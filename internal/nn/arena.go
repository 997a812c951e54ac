package nn

import "sync"

// Arena is a bump allocator for the data of graph-free forwards (see the
// package comment's "Arenas" section). It hands out zeroed slices of one
// backing buffer; Reset takes them all back at once. A request that does not
// fit is served from the heap and counted, and the next Reset grows the
// buffer to hold everything the round asked for, so a warm arena serves a
// round of the same shape without touching the heap. The zero Arena is ready
// to use, and a nil *Arena allocates from the heap.
type Arena struct {
	buf   []float64
	off   int // floats of buf handed out since the last Reset
	spill int // floats served from the heap since the last Reset
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// BorrowArena takes an arena from a process-wide pool. Release returns it.
func BorrowArena() *Arena { return arenaPool.Get().(*Arena) }

// Release resets the arena and returns it to the pool. Nothing allocated in
// it may be read afterwards.
func (a *Arena) Release() {
	a.Reset()
	arenaPool.Put(a)
}

// Reset takes back every slice the arena has handed out, growing the buffer
// first if the round spilled to the heap. Nothing allocated in it before the
// Reset may be read afterwards.
func (a *Arena) Reset() {
	if a.spill > 0 {
		a.buf = make([]float64, 2*(a.off+a.spill))
	}
	a.off, a.spill = 0, 0
}

// alloc returns n zeroed floats: from the arena when they fit, otherwise
// from the heap. The slice's capacity is n, so an append cannot run into the
// next allocation.
func (a *Arena) alloc(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.off+n > len(a.buf) {
		a.spill += n
		return make([]float64, n)
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}

// arenaOf is the arena an op over ins allocates from: the first one an input
// carries, or nil (the heap) when none carries one or the op records a
// graph. A backward closure may read its op's output long after the forward,
// so tracked ops never take arena memory.
func arenaOf(ins ...*Tensor) *Arena {
	if needsGraph(ins...) {
		return nil
	}
	for _, t := range ins {
		if t != nil && t.arena != nil {
			return t.arena
		}
	}
	return nil
}

// alloc returns the zeroed data of an op's n-element output over ins, from
// arenaOf(ins).
func alloc(n int, ins ...*Tensor) []float64 { return arenaOf(ins...).alloc(n) }
