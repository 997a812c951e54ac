package workload

import (
	"math/rand"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/query"
)

// jobSchema declares the 21 IMDb-style relations of the Join Order Benchmark.
func jobSchema() *catalog.Schema {
	s := catalog.NewSchema()
	s.AddTable(catalog.NewTable("kind_type", col("id", true), col("kind", false)))
	s.AddTable(catalog.NewTable("info_type", col("id", true), col("info", false)))
	s.AddTable(catalog.NewTable("company_type", col("id", true), col("kind", false)))
	s.AddTable(catalog.NewTable("link_type", col("id", true), col("link", false)))
	s.AddTable(catalog.NewTable("role_type", col("id", true), col("role", false)))
	s.AddTable(catalog.NewTable("comp_cast_type", col("id", true), col("kind", false)))
	s.AddTable(catalog.NewTable("char_name", col("id", true), col("name_hash", false)))
	s.AddTable(catalog.NewTable("company_name", col("id", true), col("country_code", false), col("name_hash", false)))
	s.AddTable(catalog.NewTable("keyword", col("id", true), col("keyword_hash", false)))
	s.AddTable(catalog.NewTable("name", col("id", true), col("gender", false), col("name_pcode", false)))
	s.AddTable(catalog.NewTable("aka_name", col("id", true), col("person_id", true), col("name_hash", false)))
	s.AddTable(catalog.NewTable("title", col("id", true), col("kind_id", true), col("production_year", false), col("phonetic_code", false)))
	s.AddTable(catalog.NewTable("aka_title", col("id", true), col("movie_id", true), col("kind_id", false)))
	s.AddTable(catalog.NewTable("cast_info", col("id", true), col("person_id", true), col("movie_id", true), col("role_id", false), col("nr_order", false)))
	s.AddTable(catalog.NewTable("complete_cast", col("id", true), col("movie_id", true), col("subject_id", false), col("status_id", false)))
	s.AddTable(catalog.NewTable("movie_companies", col("id", true), col("movie_id", true), col("company_id", true), col("company_type_id", false)))
	s.AddTable(catalog.NewTable("movie_info", col("id", true), col("movie_id", true), col("info_type_id", false), col("info_val", false)))
	s.AddTable(catalog.NewTable("movie_info_idx", col("id", true), col("movie_id", true), col("info_type_id", false), col("info_val", false)))
	s.AddTable(catalog.NewTable("movie_keyword", col("id", true), col("movie_id", true), col("keyword_id", true)))
	s.AddTable(catalog.NewTable("movie_link", col("id", true), col("movie_id", true), col("linked_movie_id", true), col("link_type_id", false)))
	s.AddTable(catalog.NewTable("person_info", col("id", true), col("person_id", true), col("info_type_id", false), col("info_val", false)))

	s.AddFK("title", "kind_id", "kind_type", "id")
	s.AddFK("aka_title", "movie_id", "title", "id")
	s.AddFK("aka_name", "person_id", "name", "id")
	s.AddFK("cast_info", "person_id", "name", "id")
	s.AddFK("cast_info", "movie_id", "title", "id")
	s.AddFK("cast_info", "role_id", "role_type", "id")
	s.AddFK("complete_cast", "movie_id", "title", "id")
	s.AddFK("complete_cast", "subject_id", "comp_cast_type", "id")
	s.AddFK("complete_cast", "status_id", "comp_cast_type", "id")
	s.AddFK("movie_companies", "movie_id", "title", "id")
	s.AddFK("movie_companies", "company_id", "company_name", "id")
	s.AddFK("movie_companies", "company_type_id", "company_type", "id")
	s.AddFK("movie_info", "movie_id", "title", "id")
	s.AddFK("movie_info", "info_type_id", "info_type", "id")
	s.AddFK("movie_info_idx", "movie_id", "title", "id")
	s.AddFK("movie_info_idx", "info_type_id", "info_type", "id")
	s.AddFK("movie_keyword", "movie_id", "title", "id")
	s.AddFK("movie_keyword", "keyword_id", "keyword", "id")
	s.AddFK("movie_link", "movie_id", "title", "id")
	s.AddFK("movie_link", "linked_movie_id", "title", "id")
	s.AddFK("movie_link", "link_type_id", "link_type", "id")
	s.AddFK("person_info", "person_id", "name", "id")
	s.AddFK("person_info", "info_type_id", "info_type", "id")
	return s
}

// loadJOB generates the JOB-like workload.
func loadJOB(opts Options) (*Workload, error) {
	schema := jobSchema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db := storage.NewDB(schema)
	rng := rand.New(rand.NewSource(opts.Seed))
	sc := opts.Scale

	nTitle := scaled(12000, sc)
	nName := scaled(8000, sc)
	nCompany := scaled(2000, sc)
	nKeyword := scaled(4000, sc)
	nChar := scaled(3000, sc)

	// Tiny dimension tables.
	for i := 0; i < 7; i++ {
		db.Table("kind_type").AppendRow(int64(i), int64(i))
	}
	for i := 0; i < 40; i++ {
		db.Table("info_type").AppendRow(int64(i), int64(i))
	}
	for i := 0; i < 4; i++ {
		db.Table("company_type").AppendRow(int64(i), int64(i))
	}
	for i := 0; i < 18; i++ {
		db.Table("link_type").AppendRow(int64(i), int64(i))
	}
	for i := 0; i < 12; i++ {
		db.Table("role_type").AppendRow(int64(i), int64(i))
	}
	for i := 0; i < 4; i++ {
		db.Table("comp_cast_type").AppendRow(int64(i), int64(i))
	}
	for i := 0; i < nChar; i++ {
		db.Table("char_name").AppendRow(int64(i), int64(rng.Intn(1000)))
	}
	for i := 0; i < nCompany; i++ {
		// country codes Zipf-skewed: code 0 ("us") dominates
		db.Table("company_name").AppendRow(int64(i), int64(zipfRank(rng, 30, 2.2)), int64(rng.Intn(500)))
	}
	for i := 0; i < nKeyword; i++ {
		db.Table("keyword").AppendRow(int64(i), int64(rng.Intn(2000)))
	}
	for i := 0; i < nName; i++ {
		db.Table("name").AppendRow(int64(i), int64(rng.Intn(3)), int64(rng.Intn(26)))
	}

	// Titles: popularity rank == id; kind and year correlate with rank.
	// Popular (low id) titles are recent movies; unpopular ones are old or TV
	// episodes. This correlation is what single-column histograms miss.
	for i := 0; i < nTitle; i++ {
		year := popularityYear(rng, i, nTitle)
		kind := int64(0) // movie
		if i > nTitle/2 && rng.Float64() < 0.6 {
			kind = int64(1 + rng.Intn(6)) // tv series, episode, ...
		}
		db.Table("title").AppendRow(int64(i), kind, year, int64(rng.Intn(100)))
	}
	for i := 0; i < scaled(3000, sc); i++ {
		db.Table("aka_title").AppendRow(int64(i), int64(activeRank(rng, nTitle, 1.6, 0.35)), int64(rng.Intn(7)))
	}
	for i := 0; i < scaled(4000, sc); i++ {
		db.Table("aka_name").AppendRow(int64(i), int64(activeRank(rng, nName, 1.6, 0.4)), int64(rng.Intn(500)))
	}

	// cast_info: movie popularity Zipf; person popularity Zipf; role
	// correlates with order (leading roles are rare).
	for i := 0; i < scaled(60000, sc); i++ {
		movie := activeRank(rng, nTitle, 1.6, 0.35)
		person := activeRank(rng, nName, 1.6, 0.4)
		order := rng.Intn(30)
		role := int64(rng.Intn(12))
		if order < 3 {
			role = int64(rng.Intn(2)) // actor/actress for leads
		}
		db.Table("cast_info").AppendRow(int64(i), int64(person), int64(movie), role, int64(order))
	}
	for i := 0; i < scaled(5000, sc); i++ {
		db.Table("complete_cast").AppendRow(int64(i), int64(activeRank(rng, nTitle, 1.6, 0.35)), int64(rng.Intn(4)), int64(rng.Intn(4)))
	}
	for i := 0; i < scaled(20000, sc); i++ {
		movie := activeRank(rng, nTitle, 1.6, 0.35)
		// production companies (type 0/1) dominate for popular movies
		ctype := int64(rng.Intn(4))
		if movie < nTitle/10 {
			ctype = int64(rng.Intn(2))
		}
		db.Table("movie_companies").AppendRow(int64(i), int64(movie), int64(activeRank(rng, nCompany, 1.6, 0.4)), ctype)
	}
	// movie_info: info types cluster by popularity (budget/gross info exists
	// mostly for popular movies).
	for i := 0; i < scaled(40000, sc); i++ {
		movie := activeRank(rng, nTitle, 1.6, 0.35)
		var it int64
		if movie < nTitle/8 {
			it = int64(rng.Intn(10)) // rich info for popular titles
		} else {
			it = int64(10 + rng.Intn(30))
		}
		db.Table("movie_info").AppendRow(int64(i), int64(movie), it, int64(rng.Intn(1000)))
	}
	for i := 0; i < scaled(10000, sc); i++ {
		movie := activeRank(rng, nTitle, 1.6, 0.35)
		db.Table("movie_info_idx").AppendRow(int64(i), int64(movie), int64(rng.Intn(5)), int64(rng.Intn(100)))
	}
	for i := 0; i < scaled(25000, sc); i++ {
		db.Table("movie_keyword").AppendRow(int64(i), int64(activeRank(rng, nTitle, 1.6, 0.35)), int64(activeRank(rng, nKeyword, 1.6, 0.4)))
	}
	for i := 0; i < scaled(3000, sc); i++ {
		db.Table("movie_link").AppendRow(int64(i), int64(activeRank(rng, nTitle, 1.6, 0.35)), int64(activeRank(rng, nTitle, 1.6, 0.35)), int64(rng.Intn(18)))
	}
	for i := 0; i < scaled(15000, sc); i++ {
		db.Table("person_info").AppendRow(int64(i), int64(activeRank(rng, nName, 1.6, 0.4)), int64(rng.Intn(40)), int64(rng.Intn(1000)))
	}
	db.BuildAllIndexes()

	qs := jobQueries(rand.New(rand.NewSource(opts.Seed+1)), nTitle)
	mustValidate(qs, db)

	// Balsa-style random partition: 94 train / 19 test of the 113 queries.
	split := rand.New(rand.NewSource(opts.Seed + 2))
	perm := split.Perm(len(qs))
	var train, test []*query.Query
	for i, p := range perm {
		if i < 19 {
			test = append(test, qs[p])
		} else {
			train = append(train, qs[p])
		}
	}

	return &Workload{
		Name:      "job",
		DB:        db,
		Stats:     stats.Build(db, opts.StatsSampleFrac, opts.Seed+3),
		Train:     train,
		Test:      test,
		MaxTables: maxTables(qs),
	}, nil
}

// jobQueries builds the 33 templates / 113 queries of the JOB-like workload.
func jobQueries(rng *rand.Rand, nTitle int) []*query.Query {
	infoLow := func() int64 { return int64(rng.Intn(10)) }
	infoHigh := func() int64 { return int64(10 + rng.Intn(30)) }

	// Join fragments reused across templates.
	tTitle := tr("title", "t")
	tCI := tr("cast_info", "ci")
	tN := tr("name", "n")
	tMC := tr("movie_companies", "mc")
	tCN := tr("company_name", "cn")
	tCT := tr("company_type", "ct")
	tMI := tr("movie_info", "mi")
	tMIX := tr("movie_info_idx", "mi_idx")
	tIT := tr("info_type", "it")
	tIT2 := tr("info_type", "it2")
	tMK := tr("movie_keyword", "mk")
	tK := tr("keyword", "k")
	tKT := tr("kind_type", "kt")
	tRT := tr("role_type", "rt")
	tAN := tr("aka_name", "an")
	tAT := tr("aka_title", "at")
	tCC := tr("complete_cast", "cc")
	tCCT := tr("comp_cast_type", "cct")
	tML := tr("movie_link", "ml")
	tLT := tr("link_type", "lt")
	tPI := tr("person_info", "pi")

	jTCi := jp("ci", "movie_id", "t", "id")
	jCiN := jp("ci", "person_id", "n", "id")
	jTMc := jp("mc", "movie_id", "t", "id")
	jMcCn := jp("mc", "company_id", "cn", "id")
	jMcCt := jp("mc", "company_type_id", "ct", "id")
	jTMi := jp("mi", "movie_id", "t", "id")
	jMiIt := jp("mi", "info_type_id", "it", "id")
	jTMix := jp("mi_idx", "movie_id", "t", "id")
	jMixIt := jp("mi_idx", "info_type_id", "it", "id")
	jMixIt2 := jp("mi_idx", "info_type_id", "it2", "id")
	jTMk := jp("mk", "movie_id", "t", "id")
	jMkK := jp("mk", "keyword_id", "k", "id")
	jTKt := jp("t", "kind_id", "kt", "id")
	jCiRt := jp("ci", "role_id", "rt", "id")
	jAnN := jp("an", "person_id", "n", "id")
	jAtT := jp("at", "movie_id", "t", "id")
	jCcT := jp("cc", "movie_id", "t", "id")
	jCcCct := jp("cc", "subject_id", "cct", "id")
	jMlT := jp("ml", "movie_id", "t", "id")
	jMlLt := jp("ml", "link_type_id", "lt", "id")
	jPiN := jp("pi", "person_id", "n", "id")
	jPiIt2 := jp("pi", "info_type_id", "it2", "id")

	templates := []template{
		// --- 3-4 table templates (families 1-10) ---
		{"1", []query.TableRef{tTitle, tMIX, tIT}, []query.JoinPred{jTMix, jMixIt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("it", "id", int64(r.Intn(5))), yearFilter(r, "t", "production_year")}
			}},
		{"2", []query.TableRef{tTitle, tMI, tIT}, []query.JoinPred{jTMi, jMiIt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("it", "id", infoLow()), yearFilter(r, "t", "production_year")}
			}},
		{"3", []query.TableRef{tTitle, tCI, tN}, []query.JoinPred{jTCi, jCiN},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("n", "gender", int64(r.Intn(3))), yearFilter(r, "t", "production_year")}
			}},
		{"4", []query.TableRef{tTitle, tMK, tK}, []query.JoinPred{jTMk, jMkK},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("k", "keyword_hash", int64(50+r.Intn(400))), yearFilter(r, "t", "production_year")}
			}},
		{"5", []query.TableRef{tTitle, tMC, tCN}, []query.JoinPred{jTMc, jMcCn},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cn", "country_code", int64(r.Intn(3))), yearFilter(r, "t", "production_year")}
			}},
		{"6", []query.TableRef{tTitle, tMC, tCT}, []query.JoinPred{jTMc, jMcCt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("ct", "id", int64(r.Intn(4))), yearFilter(r, "t", "production_year")}
			}},
		{"7", []query.TableRef{tTitle, tKT, tMI}, []query.JoinPred{jTKt, jTMi},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("kt", "id", int64(r.Intn(3))), fEq("mi", "info_type_id", infoLow())}
			}},
		{"8", []query.TableRef{tTitle, tAT, tKT}, []query.JoinPred{jAtT, jTKt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("kt", "id", int64(r.Intn(2))), yearFilter(r, "t", "production_year")}
			}},
		{"9", []query.TableRef{tTitle, tCC, tCCT}, []query.JoinPred{jCcT, jCcCct},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cct", "id", int64(r.Intn(4))), yearFilter(r, "t", "production_year")}
			}},
		{"10", []query.TableRef{tTitle, tML, tLT}, []query.JoinPred{jMlT, jMlLt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fIn("lt", "id", int64(r.Intn(9)), int64(9+r.Intn(9))), yearFilter(r, "t", "production_year")}
			}},

		// --- 4-5 table templates (families 11-20) ---
		{"11", []query.TableRef{tTitle, tCI, tN, tRT}, []query.JoinPred{jTCi, jCiN, jCiRt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("rt", "id", int64(r.Intn(2))), fEq("n", "gender", int64(r.Intn(3))), yearFilter(r, "t", "production_year")}
			}},
		{"12", []query.TableRef{tTitle, tMC, tCN, tCT}, []query.JoinPred{jTMc, jMcCn, jMcCt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cn", "country_code", 0), fEq("ct", "id", int64(r.Intn(2))), yearFilter(r, "t", "production_year")}
			}},
		{"13", []query.TableRef{tTitle, tMI, tMIX, tIT}, []query.JoinPred{jTMi, jTMix, jMixIt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("it", "id", int64(r.Intn(5))), fEq("mi", "info_type_id", infoLow()), yearFilter(r, "t", "production_year")}
			}},
		{"14", []query.TableRef{tTitle, tMK, tK, tMI}, []query.JoinPred{jTMk, jMkK, jTMi},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("k", "keyword_hash", int64(100+r.Intn(300))), fEq("mi", "info_type_id", infoHigh())}
			}},
		{"15", []query.TableRef{tTitle, tCI, tN, tAN}, []query.JoinPred{jTCi, jCiN, jAnN},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("n", "gender", int64(r.Intn(2))), yearFilter(r, "t", "production_year")}
			}},
		{"16", []query.TableRef{tTitle, tKT, tMIX, tIT}, []query.JoinPred{jTKt, jTMix, jMixIt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("kt", "id", 0), fEq("it", "id", int64(r.Intn(5))), fGt("mi_idx", "info_val", int64(r.Intn(60)))}
			}},
		{"17", []query.TableRef{tTitle, tCC, tCCT, tMK}, []query.JoinPred{jCcT, jCcCct, jTMk},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cct", "id", int64(r.Intn(4))), yearFilter(r, "t", "production_year")}
			}},
		{"18", []query.TableRef{tTitle, tML, tLT, tKT}, []query.JoinPred{jMlT, jMlLt, jTKt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("kt", "id", int64(r.Intn(2))), fLt("lt", "id", int64(3+r.Intn(10)))}
			}},
		{"19", []query.TableRef{tN, tPI, tIT2, tCI}, []query.JoinPred{jPiN, jPiIt2, jCiN},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("n", "gender", int64(r.Intn(3))), fEq("pi", "info_type_id", int64(r.Intn(40)))}
			}},
		{"20", []query.TableRef{tTitle, tCI, tRT, tMI}, []query.JoinPred{jTCi, jCiRt, jTMi},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("rt", "id", int64(r.Intn(12))), fEq("mi", "info_type_id", infoLow()), yearFilter(r, "t", "production_year")}
			}},

		// --- 5-6 table templates (families 21-28) ---
		{"21", []query.TableRef{tTitle, tCI, tN, tMC, tCN}, []query.JoinPred{jTCi, jCiN, jTMc, jMcCn},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cn", "country_code", int64(r.Intn(2))), fEq("n", "gender", int64(r.Intn(3))), yearFilter(r, "t", "production_year")}
			}},
		{"22", []query.TableRef{tTitle, tMI, tIT, tMIX, tIT2}, []query.JoinPred{jTMi, jMiIt, jTMix, jMixIt2},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("it", "id", infoLow()), fEq("it2", "id", int64(r.Intn(5))), yearFilter(r, "t", "production_year")}
			}},
		{"23", []query.TableRef{tTitle, tMK, tK, tMC, tCN}, []query.JoinPred{jTMk, jMkK, jTMc, jMcCn},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cn", "country_code", 0), fLt("k", "keyword_hash", int64(100+r.Intn(400)))}
			}},
		{"24", []query.TableRef{tTitle, tCI, tN, tKT, tRT}, []query.JoinPred{jTCi, jCiN, jTKt, jCiRt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("kt", "id", 0), fEq("rt", "id", int64(r.Intn(2))), yearFilter(r, "t", "production_year")}
			}},
		{"25", []query.TableRef{tTitle, tMC, tCN, tMI, tIT}, []query.JoinPred{jTMc, jMcCn, jTMi, jMiIt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cn", "country_code", int64(r.Intn(3))), fEq("it", "id", infoLow()), yearFilter(r, "t", "production_year")}
			}},
		{"26", []query.TableRef{tTitle, tMK, tK, tCI, tN}, []query.JoinPred{jTMk, jMkK, jTCi, jCiN},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("k", "keyword_hash", int64(50+r.Intn(200))), fEq("n", "gender", int64(r.Intn(2)))}
			}},
		{"27", []query.TableRef{tTitle, tCC, tCCT, tMK, tK}, []query.JoinPred{jCcT, jCcCct, jTMk, jMkK},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cct", "id", int64(r.Intn(4))), fLt("k", "keyword_hash", int64(100+r.Intn(300)))}
			}},
		{"28", []query.TableRef{tTitle, tML, tLT, tMK, tK}, []query.JoinPred{jMlT, jMlLt, jTMk, jMkK},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("lt", "id", int64(4+r.Intn(10))), fLt("k", "keyword_hash", int64(100+r.Intn(400)))}
			}},

		// --- 6-8 table templates (families 29-33) ---
		{"29", []query.TableRef{tTitle, tCI, tN, tMC, tCN, tCT}, []query.JoinPred{jTCi, jCiN, jTMc, jMcCn, jMcCt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cn", "country_code", 0), fEq("ct", "id", int64(r.Intn(2))), fEq("n", "gender", int64(r.Intn(3))), yearFilter(r, "t", "production_year")}
			}},
		{"30", []query.TableRef{tTitle, tMI, tIT, tCI, tN, tRT}, []query.JoinPred{jTMi, jMiIt, jTCi, jCiN, jCiRt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("it", "id", infoLow()), fEq("rt", "id", int64(r.Intn(2))), yearFilter(r, "t", "production_year")}
			}},
		{"31", []query.TableRef{tTitle, tMK, tK, tMI, tMIX, tIT}, []query.JoinPred{jTMk, jMkK, jTMi, jTMix, jMixIt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("k", "keyword_hash", int64(100+r.Intn(200))), fEq("it", "id", int64(r.Intn(5))), fEq("mi", "info_type_id", infoLow())}
			}},
		{"32", []query.TableRef{tTitle, tCI, tN, tMK, tK, tKT, tRT}, []query.JoinPred{jTCi, jCiN, jTMk, jMkK, jTKt, jCiRt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("kt", "id", 0), fEq("rt", "id", int64(r.Intn(2))), fLt("k", "keyword_hash", int64(100+r.Intn(300))), yearFilter(r, "t", "production_year")}
			}},
		{"33", []query.TableRef{tTitle, tCI, tN, tMC, tCN, tMI, tIT, tKT}, []query.JoinPred{jTCi, jCiN, jTMc, jMcCn, jTMi, jMiIt, jTKt},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("kt", "id", 0), fEq("cn", "country_code", 0), fEq("it", "id", infoLow()), fEq("n", "gender", int64(r.Intn(2))), yearFilter(r, "t", "production_year")}
			}},
	}

	// 113 queries over 33 templates: the first 14 templates get 4 variants,
	// the rest get 3 (14*4 + 19*3 = 113), echoing JOB's uneven families.
	var qs []*query.Query
	for i, tpl := range templates {
		count := 3
		if i < 14 {
			count = 4
		}
		qs = append(qs, tpl.instantiate(rng, count)...)
	}
	return qs
}
