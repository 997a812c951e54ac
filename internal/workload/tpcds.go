package workload

import (
	"fmt"
	"math/rand"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/query"
)

// tpcdsSchema declares a TPC-DS-style star/snowflake schema: three sales
// fact tables plus inventory, and the dimensions the 19 selected templates
// touch.
func tpcdsSchema() *catalog.Schema {
	s := catalog.NewSchema()
	s.AddTable(catalog.NewTable("date_dim", col("id", true), col("year", false), col("moy", false), col("dom", false)))
	s.AddTable(catalog.NewTable("time_dim", col("id", true), col("hour", false)))
	s.AddTable(catalog.NewTable("item", col("id", true), col("category", false), col("brand", false), col("price", false)))
	s.AddTable(catalog.NewTable("customer", col("id", true), col("cdemo_id", true), col("addr_id", true), col("birth_year", false)))
	s.AddTable(catalog.NewTable("customer_address", col("id", true), col("state", false), col("country", false)))
	s.AddTable(catalog.NewTable("customer_demographics", col("id", true), col("gender", false), col("education", false)))
	s.AddTable(catalog.NewTable("household_demographics", col("id", true), col("income_band", false)))
	s.AddTable(catalog.NewTable("store", col("id", true), col("state", false)))
	s.AddTable(catalog.NewTable("promotion", col("id", true), col("channel", false)))
	s.AddTable(catalog.NewTable("warehouse", col("id", true), col("state", false)))
	s.AddTable(catalog.NewTable("store_sales", col("id", true), col("date_id", true), col("item_id", true),
		col("cust_id", true), col("store_id", true), col("promo_id", true), col("hdemo_id", true), col("qty", false)))
	s.AddTable(catalog.NewTable("catalog_sales", col("id", true), col("date_id", true), col("item_id", true),
		col("cust_id", true), col("promo_id", true), col("qty", false)))
	s.AddTable(catalog.NewTable("web_sales", col("id", true), col("date_id", true), col("item_id", true),
		col("cust_id", true), col("time_id", true), col("qty", false)))
	s.AddTable(catalog.NewTable("inventory", col("id", true), col("date_id", true), col("item_id", true),
		col("wh_id", true), col("qty_on_hand", false)))

	for _, fact := range []string{"store_sales", "catalog_sales", "web_sales"} {
		s.AddFK(fact, "date_id", "date_dim", "id")
		s.AddFK(fact, "item_id", "item", "id")
		s.AddFK(fact, "cust_id", "customer", "id")
	}
	s.AddFK("store_sales", "store_id", "store", "id")
	s.AddFK("store_sales", "promo_id", "promotion", "id")
	s.AddFK("store_sales", "hdemo_id", "household_demographics", "id")
	s.AddFK("catalog_sales", "promo_id", "promotion", "id")
	s.AddFK("web_sales", "time_id", "time_dim", "id")
	s.AddFK("customer", "cdemo_id", "customer_demographics", "id")
	s.AddFK("customer", "addr_id", "customer_address", "id")
	s.AddFK("inventory", "date_id", "date_dim", "id")
	s.AddFK("inventory", "item_id", "item", "id")
	s.AddFK("inventory", "wh_id", "warehouse", "id")
	return s
}

// loadTPCDS generates the TPC-DS-like workload: 19 templates × 6 queries,
// 5 train / 1 test per template.
func loadTPCDS(opts Options) (*Workload, error) {
	schema := tpcdsSchema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db := storage.NewDB(schema)
	rng := rand.New(rand.NewSource(opts.Seed))
	sc := opts.Scale

	nDate := scaled(1500, sc)
	nItem := scaled(3000, sc)
	nCust := scaled(8000, sc)
	nAddr := scaled(1500, sc)
	nCdemo := scaled(800, sc)
	nHdemo := scaled(200, sc)
	nStore := 24
	nPromo := 120
	nWh := 15
	nTime := scaled(500, sc)

	for i := 0; i < nDate; i++ {
		// years 1998..2003, holiday-season months over-represented late ids
		year := int64(1998 + i*6/nDate)
		moy := int64(rng.Intn(12) + 1)
		db.Table("date_dim").AppendRow(int64(i), year, moy, int64(rng.Intn(28)+1))
	}
	for i := 0; i < nTime; i++ {
		db.Table("time_dim").AppendRow(int64(i), int64(rng.Intn(24)))
	}
	for i := 0; i < nItem; i++ {
		// category correlates with popularity rank: popular items are in few
		// categories, defeating independence between category filter and join
		cat := int64(i * 10 / nItem)
		if rng.Float64() < 0.1 {
			cat = int64(rng.Intn(10))
		}
		db.Table("item").AppendRow(int64(i), cat, int64(rng.Intn(60)), int64(rng.Intn(200)+1))
	}
	for i := 0; i < nCust; i++ {
		db.Table("customer").AppendRow(int64(i), int64(rng.Intn(nCdemo)), int64(zipfRank(rng, nAddr, 1.6)), popularityYear(rng, i, nCust))
	}
	for i := 0; i < nAddr; i++ {
		db.Table("customer_address").AppendRow(int64(i), int64(zipfRank(rng, 50, 1.8)), int64(zipfRank(rng, 12, 2.5)))
	}
	for i := 0; i < nCdemo; i++ {
		db.Table("customer_demographics").AppendRow(int64(i), int64(rng.Intn(2)), int64(rng.Intn(7)))
	}
	for i := 0; i < nHdemo; i++ {
		db.Table("household_demographics").AppendRow(int64(i), int64(rng.Intn(20)))
	}
	for i := 0; i < nStore; i++ {
		db.Table("store").AppendRow(int64(i), int64(rng.Intn(12)))
	}
	for i := 0; i < nPromo; i++ {
		db.Table("promotion").AppendRow(int64(i), int64(rng.Intn(5)))
	}
	for i := 0; i < nWh; i++ {
		db.Table("warehouse").AppendRow(int64(i), int64(rng.Intn(12)))
	}

	for i := 0; i < scaled(60000, sc); i++ {
		db.Table("store_sales").AppendRow(int64(i),
			int64(zipfRank(rng, nDate, 1.6)), int64(activeRank(rng, nItem, 1.5, 0.35)),
			int64(activeRank(rng, nCust, 1.5, 0.4)), int64(zipfRank(rng, nStore, 2.2)),
			int64(zipfRank(rng, nPromo, 2.6)), int64(rng.Intn(nHdemo)), int64(rng.Intn(100)+1))
	}
	for i := 0; i < scaled(30000, sc); i++ {
		db.Table("catalog_sales").AppendRow(int64(i),
			int64(zipfRank(rng, nDate, 1.6)), int64(activeRank(rng, nItem, 1.5, 0.35)),
			int64(activeRank(rng, nCust, 1.5, 0.4)), int64(zipfRank(rng, nPromo, 2.6)), int64(rng.Intn(100)+1))
	}
	for i := 0; i < scaled(20000, sc); i++ {
		db.Table("web_sales").AppendRow(int64(i),
			int64(zipfRank(rng, nDate, 1.6)), int64(activeRank(rng, nItem, 1.5, 0.35)),
			int64(activeRank(rng, nCust, 1.5, 0.4)), int64(rng.Intn(nTime)), int64(rng.Intn(100)+1))
	}
	for i := 0; i < scaled(20000, sc); i++ {
		db.Table("inventory").AppendRow(int64(i),
			int64(rng.Intn(nDate)), int64(activeRank(rng, nItem, 1.5, 0.35)),
			int64(rng.Intn(nWh)), int64(rng.Intn(500)))
	}
	db.BuildAllIndexes()

	qs := tpcdsQueries(rand.New(rand.NewSource(opts.Seed + 1)))
	mustValidate(qs, db)

	// 5 train / 1 test per template.
	var train, test []*query.Query
	for i, q := range qs {
		if i%6 == 5 {
			test = append(test, q)
		} else {
			train = append(train, q)
		}
	}

	return &Workload{
		Name:      "tpcds",
		DB:        db,
		Stats:     stats.Build(db, opts.StatsSampleFrac, opts.Seed+3),
		Train:     train,
		Test:      test,
		MaxTables: maxTables(qs),
	}, nil
}

// tpcdsQueries builds 19 templates × 6 queries, named after the paper's
// selected TPC-DS template numbers.
func tpcdsQueries(rng *rand.Rand) []*query.Query {
	y := func() int64 { return int64(1998 + rng.Intn(6)) }
	tSS, tCS, tWS := tr("store_sales", "ss"), tr("catalog_sales", "cs"), tr("web_sales", "ws")
	tD, tI, tC := tr("date_dim", "d"), tr("item", "i"), tr("customer", "c")
	tCA, tCD := tr("customer_address", "ca"), tr("customer_demographics", "cd")
	tS, tP, tHD := tr("store", "s"), tr("promotion", "p"), tr("household_demographics", "hd")
	tINV, tW, tT := tr("inventory", "inv"), tr("warehouse", "w"), tr("time_dim", "td")

	jSSD := jp("ss", "date_id", "d", "id")
	jSSI := jp("ss", "item_id", "i", "id")
	jSSC := jp("ss", "cust_id", "c", "id")
	jSSS := jp("ss", "store_id", "s", "id")
	jSSP := jp("ss", "promo_id", "p", "id")
	jSSHD := jp("ss", "hdemo_id", "hd", "id")
	jCSD := jp("cs", "date_id", "d", "id")
	jCSI := jp("cs", "item_id", "i", "id")
	jCSC := jp("cs", "cust_id", "c", "id")
	jWSD := jp("ws", "date_id", "d", "id")
	jWSI := jp("ws", "item_id", "i", "id")
	jWSC := jp("ws", "cust_id", "c", "id")
	jWST := jp("ws", "time_id", "td", "id")
	jCCA := jp("c", "addr_id", "ca", "id")
	jCCD := jp("c", "cdemo_id", "cd", "id")
	jINVD := jp("inv", "date_id", "d", "id")
	jINVI := jp("inv", "item_id", "i", "id")
	jINVW := jp("inv", "wh_id", "w", "id")

	mk := func(name string, ts []query.TableRef, js []query.JoinPred, f func(*rand.Rand) []query.Filter) template {
		return template{name: "q" + name, tables: ts, joins: js, filters: f}
	}
	templates := []template{
		mk("3", []query.TableRef{tSS, tD, tI}, []query.JoinPred{jSSD, jSSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("d", "moy", int64(r.Intn(12)+1)), fEq("i", "brand", int64(r.Intn(60)))}
			}),
		mk("7", []query.TableRef{tSS, tD, tI, tC, tCD}, []query.JoinPred{jSSD, jSSI, jSSC, jCCD},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cd", "gender", int64(r.Intn(2))), fEq("d", "year", y())}
			}),
		mk("12", []query.TableRef{tWS, tD, tI}, []query.JoinPred{jWSD, jWSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fIn("i", "category", int64(r.Intn(5)), int64(5+r.Intn(5))), fEq("d", "year", y())}
			}),
		mk("18", []query.TableRef{tCS, tD, tI, tC, tCD}, []query.JoinPred{jCSD, jCSI, jCSC, jCCD},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cd", "education", int64(r.Intn(7))), fEq("d", "year", y())}
			}),
		mk("20", []query.TableRef{tCS, tD, tI}, []query.JoinPred{jCSD, jCSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fIn("i", "category", int64(r.Intn(4)), int64(4+r.Intn(4))), fEq("d", "moy", int64(r.Intn(12)+1))}
			}),
		mk("26", []query.TableRef{tCS, tD, tC, tCD, tP}, []query.JoinPred{jCSD, jCSC, jCCD, jp("cs", "promo_id", "p", "id")},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("cd", "gender", int64(r.Intn(2))), fEq("p", "channel", int64(r.Intn(5))), fEq("d", "year", y())}
			}),
		mk("27", []query.TableRef{tSS, tD, tI, tS}, []query.JoinPred{jSSD, jSSI, jSSS},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("s", "state", int64(r.Intn(12))), fEq("d", "year", y())}
			}),
		mk("37", []query.TableRef{tCS, tI, tINV, tD}, []query.JoinPred{jCSI, jINVI, jINVD},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fBetween("i", "price", int64(r.Intn(50)), int64(80+r.Intn(100))), fLt("inv", "qty_on_hand", int64(80+r.Intn(200)))}
			}),
		mk("42", []query.TableRef{tSS, tD, tI}, []query.JoinPred{jSSD, jSSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("i", "category", int64(r.Intn(10))), fEq("d", "year", y()), fEq("d", "moy", int64(r.Intn(12)+1))}
			}),
		mk("43", []query.TableRef{tSS, tD, tS}, []query.JoinPred{jSSD, jSSS},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("s", "state", int64(r.Intn(12))), fEq("d", "year", y())}
			}),
		mk("50", []query.TableRef{tSS, tD, tS, tI}, []query.JoinPred{jSSD, jSSS, jSSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("d", "moy", int64(r.Intn(12)+1)), fGt("i", "price", int64(r.Intn(100)))}
			}),
		mk("52", []query.TableRef{tSS, tD, tI}, []query.JoinPred{jSSD, jSSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("i", "brand", int64(r.Intn(60))), fEq("d", "year", y())}
			}),
		mk("55", []query.TableRef{tSS, tD, tI}, []query.JoinPred{jSSD, jSSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("i", "brand", int64(r.Intn(30))), fEq("d", "moy", int64(r.Intn(12)+1)), fEq("d", "year", y())}
			}),
		mk("62", []query.TableRef{tWS, tD, tTd(), tI}, []query.JoinPred{jWSD, jWST, jWSI},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("d", "year", y()), fLt("td", "hour", int64(6+r.Intn(16)))}
			}),
		mk("82", []query.TableRef{tSS, tI, tINV, tD, tW}, []query.JoinPred{jSSI, jINVI, jINVD, jINVW},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fBetween("i", "price", int64(r.Intn(40)), int64(60+r.Intn(120))), fLt("inv", "qty_on_hand", int64(100+r.Intn(300))), fEq("w", "state", int64(r.Intn(12)))}
			}),
		mk("91", []query.TableRef{tCS, tC, tCA, tCD, tD}, []query.JoinPred{jCSC, jCCA, jCCD, jCSD},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("ca", "state", int64(r.Intn(20))), fEq("d", "year", y()), fEq("cd", "gender", int64(r.Intn(2)))}
			}),
		mk("96", []query.TableRef{tSS, tHD, tS}, []query.JoinPred{jSSHD, jSSS},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("hd", "income_band", int64(r.Intn(20))), fEq("s", "state", int64(r.Intn(12)))}
			}),
		mk("98", []query.TableRef{tSS, tD, tI, tP}, []query.JoinPred{jSSD, jSSI, jSSP},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("i", "category", int64(r.Intn(10))), fEq("p", "channel", int64(r.Intn(5))), fEq("d", "year", y())}
			}),
		mk("99", []query.TableRef{tWS, tD, tI, tC, tCA}, []query.JoinPred{jWSD, jWSI, jWSC, jCCA},
			func(r *rand.Rand) []query.Filter {
				return []query.Filter{fEq("ca", "country", int64(r.Intn(4))), fEq("d", "year", y())}
			}),
	}
	if len(templates) != 19 {
		panic(fmt.Sprintf("workload: %d TPC-DS templates, want 19", len(templates)))
	}
	var qs []*query.Query
	for _, tpl := range templates {
		qs = append(qs, tpl.instantiate(rng, 6)...)
	}
	_ = tCA
	_ = tW
	_ = tT
	return qs
}

// tTd returns the time_dim ref (avoids an unused-variable dance above).
func tTd() query.TableRef { return tr("time_dim", "td") }
