package workload

import (
	"fmt"
	"math/rand"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/query"
)

// stackSchema declares a StackExchange-style schema: sites hosting
// questions, answers, tags, users, badges, comments, votes, and post links.
func stackSchema() *catalog.Schema {
	s := catalog.NewSchema()
	s.AddTable(catalog.NewTable("site", col("id", true), col("popularity", false)))
	s.AddTable(catalog.NewTable("account", col("id", true), col("creation_year", false)))
	s.AddTable(catalog.NewTable("so_user", col("id", true), col("site_id", true), col("account_id", true), col("reputation", false)))
	s.AddTable(catalog.NewTable("question", col("id", true), col("site_id", true), col("owner_id", true),
		col("creation_year", false), col("score", false), col("view_count", false)))
	s.AddTable(catalog.NewTable("answer", col("id", true), col("site_id", true), col("question_id", true),
		col("owner_id", true), col("score", false)))
	s.AddTable(catalog.NewTable("tag", col("id", true), col("site_id", true), col("name_hash", false)))
	s.AddTable(catalog.NewTable("tag_question", col("id", true), col("tag_id", true), col("question_id", true)))
	s.AddTable(catalog.NewTable("badge", col("id", true), col("site_id", true), col("user_id", true), col("name_hash", false), col("date_year", false)))
	s.AddTable(catalog.NewTable("comment", col("id", true), col("site_id", true), col("post_id", true), col("score", false)))
	s.AddTable(catalog.NewTable("post_link", col("id", true), col("site_id", true), col("q_from", true), col("q_to", true), col("link_type", false)))
	s.AddTable(catalog.NewTable("vote", col("id", true), col("site_id", true), col("post_id", true), col("vote_type", false)))

	s.AddFK("so_user", "site_id", "site", "id")
	s.AddFK("so_user", "account_id", "account", "id")
	s.AddFK("question", "site_id", "site", "id")
	s.AddFK("question", "owner_id", "so_user", "id")
	s.AddFK("answer", "site_id", "site", "id")
	s.AddFK("answer", "question_id", "question", "id")
	s.AddFK("answer", "owner_id", "so_user", "id")
	s.AddFK("tag", "site_id", "site", "id")
	s.AddFK("tag_question", "tag_id", "tag", "id")
	s.AddFK("tag_question", "question_id", "question", "id")
	s.AddFK("badge", "site_id", "site", "id")
	s.AddFK("badge", "user_id", "so_user", "id")
	s.AddFK("comment", "site_id", "site", "id")
	s.AddFK("comment", "post_id", "question", "id")
	s.AddFK("post_link", "q_from", "question", "id")
	s.AddFK("post_link", "q_to", "question", "id")
	s.AddFK("vote", "post_id", "question", "id")
	return s
}

// loadStack generates the Stack-like workload: 12 templates × 10 queries,
// 8 train / 2 test per template.
func loadStack(opts Options) (*Workload, error) {
	schema := stackSchema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db := storage.NewDB(schema)
	rng := rand.New(rand.NewSource(opts.Seed))
	sc := opts.Scale

	nSite := 40
	nAccount := scaled(6000, sc)
	nUser := scaled(9000, sc)
	nQuestion := scaled(30000, sc)
	nTag := scaled(1200, sc)

	for i := 0; i < nSite; i++ {
		db.Table("site").AppendRow(int64(i), int64(zipfRank(rng, 100, 1.5)))
	}
	for i := 0; i < nAccount; i++ {
		db.Table("account").AppendRow(int64(i), int64(2008+rng.Intn(15)))
	}
	// users: site follows Zipf (stackoverflow = site 0 dominates); reputation
	// Zipf over users, correlated with id rank.
	for i := 0; i < nUser; i++ {
		rep := int64(1 + 100000/(1+zipfRank(rng, 1000, 0.7)+i/10))
		db.Table("so_user").AppendRow(int64(i), int64(zipfRank(rng, nSite, 2.0)), int64(rng.Intn(nAccount)), rep)
	}
	// questions: popular (low-id) questions get the views/scores and, below,
	// most of the answers — correlation the estimator cannot see.
	for i := 0; i < nQuestion; i++ {
		site := int64(zipfRank(rng, nSite, 2.0))
		year := int64(2008 + (i*14)/nQuestion + rng.Intn(2))
		if year > 2022 {
			year = 2022
		}
		score := int64(zipfRank(rng, 500, 2.0))
		if i < nQuestion/20 {
			score += 50
		}
		views := score*37 + int64(rng.Intn(100))
		db.Table("question").AppendRow(int64(i), site, int64(activeRank(rng, nUser, 1.6, 0.35)), year, score, views)
	}
	for i := 0; i < scaled(45000, sc); i++ {
		q := activeRank(rng, nQuestion, 1.6, 0.3)
		db.Table("answer").AppendRow(int64(i), int64(zipfRank(rng, nSite, 2.0)), int64(q),
			int64(activeRank(rng, nUser, 1.6, 0.35)), int64(zipfRank(rng, 200, 2.2)))
	}
	for i := 0; i < nTag; i++ {
		db.Table("tag").AppendRow(int64(i), int64(zipfRank(rng, nSite, 2.0)), int64(rng.Intn(600)))
	}
	for i := 0; i < scaled(40000, sc); i++ {
		db.Table("tag_question").AppendRow(int64(i), int64(activeRank(rng, nTag, 1.6, 0.4)), int64(activeRank(rng, nQuestion, 1.6, 0.3)))
	}
	for i := 0; i < scaled(15000, sc); i++ {
		db.Table("badge").AppendRow(int64(i), int64(zipfRank(rng, nSite, 2.0)), int64(activeRank(rng, nUser, 1.6, 0.35)),
			int64(rng.Intn(200)), int64(2008+rng.Intn(15)))
	}
	for i := 0; i < scaled(20000, sc); i++ {
		db.Table("comment").AppendRow(int64(i), int64(zipfRank(rng, nSite, 2.0)), int64(activeRank(rng, nQuestion, 1.6, 0.3)), int64(rng.Intn(20)))
	}
	for i := 0; i < scaled(5000, sc); i++ {
		db.Table("post_link").AppendRow(int64(i), int64(zipfRank(rng, nSite, 2.0)),
			int64(activeRank(rng, nQuestion, 1.6, 0.3)), int64(activeRank(rng, nQuestion, 1.6, 0.3)), int64(rng.Intn(3)))
	}
	for i := 0; i < scaled(30000, sc); i++ {
		db.Table("vote").AppendRow(int64(i), int64(zipfRank(rng, nSite, 2.0)), int64(activeRank(rng, nQuestion, 1.6, 0.3)), int64(rng.Intn(4)))
	}
	db.BuildAllIndexes()

	qs := stackQueries(rand.New(rand.NewSource(opts.Seed + 1)))
	mustValidate(qs, db)

	// 8 train / 2 test per template of 10.
	var train, test []*query.Query
	for i, q := range qs {
		if i%10 >= 8 {
			test = append(test, q)
		} else {
			train = append(train, q)
		}
	}

	return &Workload{
		Name:      "stack",
		DB:        db,
		Stats:     stats.Build(db, opts.StatsSampleFrac, opts.Seed+3),
		Train:     train,
		Test:      test,
		MaxTables: maxTables(qs),
	}, nil
}

// stackQueries builds 12 templates × 10 queries, named after the paper's
// selected Stack template numbers.
func stackQueries(rng *rand.Rand) []*query.Query {
	tQ, tA, tU := tr("question", "q"), tr("answer", "a"), tr("so_user", "u")
	tS, tT, tTQ := tr("site", "s"), tr("tag", "tg"), tr("tag_question", "tq")
	tB, tC, tPL, tV := tr("badge", "b"), tr("comment", "cm"), tr("post_link", "pl"), tr("vote", "v")
	tAcc := tr("account", "acc")

	jQS := jp("q", "site_id", "s", "id")
	jQU := jp("q", "owner_id", "u", "id")
	jAQ := jp("a", "question_id", "q", "id")
	jAU := jp("a", "owner_id", "u", "id")
	jTQQ := jp("tq", "question_id", "q", "id")
	jTQT := jp("tq", "tag_id", "tg", "id")
	jBU := jp("b", "user_id", "u", "id")
	jCQ := jp("cm", "post_id", "q", "id")
	jPLQ := jp("pl", "q_from", "q", "id")
	jVQ := jp("v", "post_id", "q", "id")
	jUS := jp("u", "site_id", "s", "id")
	jUAcc := jp("u", "account_id", "acc", "id")

	siteF := func(r *rand.Rand) int64 { return int64(r.Intn(5)) }
	yearF := func(r *rand.Rand) int64 { return int64(2009 + r.Intn(12)) }

	mk := func(name string, ts []query.TableRef, js []query.JoinPred, f func(*rand.Rand) []query.Filter) template {
		return template{name: "s" + name, tables: ts, joins: js, filters: f}
	}
	templates := []template{
		mk("1", []query.TableRef{tQ, tS, tU}, []query.JoinPred{jQS, jQU},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("s", "id", siteF(r)), fGt("u", "reputation", int64(100+r.Intn(5000)))}
			}),
		mk("4", []query.TableRef{tQ, tA, tU}, []query.JoinPred{jAQ, jAU},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fGt("q", "score", int64(r.Intn(30))), fGt("u", "reputation", int64(1000+r.Intn(20000)))}
			}),
		mk("5", []query.TableRef{tQ, tTQ, tT}, []query.JoinPred{jTQQ, jTQT},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("tg", "name_hash", int64(20+r.Intn(100))), fGt("q", "creation_year", yearF(r))}
			}),
		mk("6", []query.TableRef{tQ, tA, tC}, []query.JoinPred{jAQ, jCQ},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fGt("q", "view_count", int64(500+r.Intn(3000))), fGt("cm", "score", int64(r.Intn(5)))}
			}),
		mk("7", []query.TableRef{tQ, tU, tB}, []query.JoinPred{jQU, jBU},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fGt("b", "date_year", yearF(r)), fGt("q", "score", int64(r.Intn(20)))}
			}),
		mk("8", []query.TableRef{tQ, tPL, tV}, []query.JoinPred{jPLQ, jVQ},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("pl", "link_type", int64(r.Intn(3))), fEq("v", "vote_type", int64(r.Intn(4)))}
			}),
		mk("11", []query.TableRef{tQ, tA, tU, tS}, []query.JoinPred{jAQ, jAU, jUS},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("s", "id", siteF(r)), fGt("a", "score", int64(r.Intn(10))), fGt("q", "creation_year", yearF(r))}
			}),
		mk("12", []query.TableRef{tQ, tTQ, tT, tA}, []query.JoinPred{jTQQ, jTQT, jAQ},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("tg", "name_hash", int64(20+r.Intn(80))), fGt("a", "score", int64(r.Intn(8)))}
			}),
		mk("13", []query.TableRef{tQ, tU, tAcc, tB}, []query.JoinPred{jQU, jUAcc, jBU},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fGt("acc", "creation_year", yearF(r)), fGt("u", "reputation", int64(500+r.Intn(10000)))}
			}),
		mk("14", []query.TableRef{tQ, tA, tU, tB, tS}, []query.JoinPred{jAQ, jAU, jBU, jUS},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("s", "id", siteF(r)), fGt("b", "date_year", yearF(r)), fGt("q", "score", int64(r.Intn(15)))}
			}),
		mk("15", []query.TableRef{tQ, tTQ, tT, tV, tC}, []query.JoinPred{jTQQ, jTQT, jVQ, jCQ},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fLt("tg", "name_hash", int64(30+r.Intn(100))), fEq("v", "vote_type", int64(r.Intn(4)))}
			}),
		mk("16", []query.TableRef{tQ, tA, tU, tTQ, tT, tS}, []query.JoinPred{jAQ, jAU, jTQQ, jTQT, jQS},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("s", "id", siteF(r)), fLt("tg", "name_hash", int64(30+r.Intn(80))), fGt("u", "reputation", int64(200+r.Intn(3000)))}
			}),
	}
	if len(templates) != 12 {
		panic(fmt.Sprintf("workload: %d Stack templates, want 12", len(templates)))
	}
	var qs []*query.Query
	for _, tpl := range templates {
		qs = append(qs, tpl.instantiate(rng, 10)...)
	}
	return qs
}
