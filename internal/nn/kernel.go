package nn

// The arithmetic core: every product a layer computes, forward or backward,
// tracked or frozen, is one of the kernels below. They work on raw slices
// with explicit leading dimensions so an attention head is read in place by
// stride. The package comment's "Kernels" section states the summation-order
// rule they all obey.

// gemmChunk bounds the term list gemm gathers on its stack per output row; a
// power of two, so masking an index with gemmChunk-1 needs no bounds check.
const gemmChunk = 128

// gemm accumulates dst[i][j] += Σ_p a(i,p)·b[p][j] for i<m, p<k, j<n, where
// a(i,p) = a[i*ars+p*aps]: (ars, aps) = (lda, 1) is a·b, the forward product,
// and (1, lda) is aᵀ·b, MatMul's weight-gradient product. Terms are added to
// each dst element in ascending p starting from its current value, and a term
// whose a(i,p) is zero is skipped outright (its b row may hold anything).
func gemm(dst []float64, ldd int, a []float64, ars, aps int, b []float64, ldb int, m, k, n int) {
	var vals [gemmChunk]float64
	var offs [gemmChunk]int
	for i := 0; i < m; i++ {
		dr := dst[i*ldd : i*ldd+n]
		for p0 := 0; p0 < k; p0 += gemmChunk {
			// Gather the row's non-zero terms. The store is unconditional and
			// only the count depends on the value, so a half-zero post-ReLU row
			// costs no mispredicted branches.
			cnt, ai, bo := 0, i*ars+p0*aps, p0*ldb
			for p := min(gemmChunk, k-p0); p > 0; p-- {
				av := a[ai]
				vals[cnt&(gemmChunk-1)], offs[cnt&(gemmChunk-1)] = av, bo
				if av != 0 {
					cnt++
				}
				ai += aps
				bo += ldb
			}
			addTerms(dr, vals[:cnt], offs[:cnt], b)
		}
	}
}

// addTerms adds Σ_t vs[t]·b[os[t]+j] to dr[j] for every j, in ascending t.
// Eight (then four, then one) output elements are carried in registers across
// the whole term list: the sums are independent, so interleaving them changes
// no element's order of additions and saves a load and a store per multiply.
func addTerms(dr, vs []float64, os []int, b []float64) {
	os = os[:len(vs)]
	j := 0
	for ; j+8 <= len(dr); j += 8 {
		d := dr[j : j+8 : j+8]
		s0, s1, s2, s3, s4, s5, s6, s7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for t, av := range vs {
			o := os[t] + j
			br := b[o : o+8 : o+8]
			s0 += av * br[0]
			s1 += av * br[1]
			s2 += av * br[2]
			s3 += av * br[3]
			s4 += av * br[4]
			s5 += av * br[5]
			s6 += av * br[6]
			s7 += av * br[7]
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j+4 <= len(dr); j += 4 {
		d := dr[j : j+4 : j+4]
		s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
		for t, av := range vs {
			o := os[t] + j
			br := b[o : o+4 : o+4]
			s0 += av * br[0]
			s1 += av * br[1]
			s2 += av * br[2]
			s3 += av * br[3]
		}
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
	for ; j < len(dr); j++ {
		s := dr[j]
		for t, av := range vs {
			s += av * b[os[t]+j]
		}
		dr[j] = s
	}
}

// gemmNT accumulates acc[i][p] += g[i]·b[p] for i<m, p<k over rows of length
// n: g·bᵀ, MatMul's input-gradient product. Each dot product is summed from
// zero in ascending j, no term skipped, and added to acc once; four of them
// that share g[i] run interleaved.
func gemmNT(acc []float64, lda int, g []float64, ldg int, b []float64, ldb int, m, k, n int) {
	for i := 0; i < m; i++ {
		gr := g[i*ldg : i*ldg+n]
		ar := acc[i*lda : i*lda+k]
		p := 0
		for ; p+4 <= k; p += 4 {
			b0 := b[p*ldb:][:len(gr)]
			b1 := b[(p+1)*ldb:][:len(gr)]
			b2 := b[(p+2)*ldb:][:len(gr)]
			b3 := b[(p+3)*ldb:][:len(gr)]
			var s0, s1, s2, s3 float64
			for j, gv := range gr {
				s0 += gv * b0[j]
				s1 += gv * b1[j]
				s2 += gv * b2[j]
				s3 += gv * b3[j]
			}
			ar[p] += s0
			ar[p+1] += s1
			ar[p+2] += s2
			ar[p+3] += s3
		}
		for ; p < k; p++ {
			br := b[p*ldb:][:len(gr)]
			s := 0.0
			for j, gv := range gr {
				s += gv * br[j]
			}
			ar[p] += s
		}
	}
}
