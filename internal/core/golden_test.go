package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/tpox"
	"xixa/internal/workload"
)

// adviseGolden is one algorithm's answer on the advise workload, in the
// form that catches any change of float summation order: the benefit's
// bits, not its value.
type adviseGolden struct {
	defs        []string
	benefitBits uint64
	totalSize   int64
	calls       int64
}

// The advisor's answer on the xixabench advise workload (TPoX scale 1:
// the 11 TPoX queries, tpox.SyntheticQueries(db, 200, 130) and the 4
// update statements, shuffled with seed 1), one fresh advisor per
// algorithm at half the All-Index size. The values were taken before the
// evaluator cached maintenance costs and coverage; any change here means
// the recommendation, its benefit bits or the optimizer call count moved.
var adviseGoldens = map[string]adviseGolden{
	AlgoGreedy: {
		defs: []string{
			"/Customer/Name/* string on CUSTACC",
			"/Customer/Name/First string on CUSTACC",
			"/Customer/Name/Last string on CUSTACC",
			"/Customer/Nationality string on CUSTACC",
			"/Security/* numerical on SECURITY",
			"/Security/*/BondInformation/CreditRating string on SECURITY",
			"/Security/*/BondInformation/Duration numerical on SECURITY",
			"/Security/*/BondInformation/Duration string on SECURITY",
			"/Security/*/BondInformation/Industry string on SECURITY",
			"/Security//* numerical on SECURITY",
			"/Security//BondInformation/* string on SECURITY",
			"/Security//BondInformation/CreditRating string on SECURITY",
			"/Security//BondInformation/Duration numerical on SECURITY",
			"/Security//BondInformation/Duration string on SECURITY",
			"/Security//CreditRating string on SECURITY",
			"/Security//Duration numerical on SECURITY",
			"/Security//Duration string on SECURITY",
			"/Security//MarketCap numerical on SECURITY",
			"/Security//MarketCap string on SECURITY",
			"/Security//Sector string on SECURITY",
			"/Security//StockInformation/* string on SECURITY",
			"/Security/@id numerical on SECURITY",
			"/Security/PE numerical on SECURITY",
			"/Security/Price/LastTrade numerical on SECURITY",
			"/Security/Price/Low numerical on SECURITY",
			"/Security/SecInfo//* numerical on SECURITY",
			"/Security/SecInfo//Industry string on SECURITY",
			"/Security/SecInfo//Sector string on SECURITY",
			"/Security/SecInfo/BondInformation/* string on SECURITY",
			"/Security/SecInfo/BondInformation/CreditRating string on SECURITY",
			"/Security/SecInfo/BondInformation/Duration numerical on SECURITY",
			"/Security/SecInfo/BondInformation/Duration string on SECURITY",
			"/Security/SecInfo/BondInformation/Industry string on SECURITY",
			"/Security/SecInfo/StockInformation/Industry string on SECURITY",
			"/Security/SecInfo/StockInformation/MarketCap numerical on SECURITY",
			"/Security/SecInfo/StockInformation/Sector string on SECURITY",
			"/Security/Symbol string on SECURITY",
			"/Security/Yield numerical on SECURITY",
		},
		benefitBits: 0x41469e849ccea864, totalSize: 674825, calls: 489,
	},
	AlgoHeuristic: {
		defs: []string{
			"/Customer//Balance numerical on CUSTACC",
			"/Customer//Balance string on CUSTACC",
			"/Customer/@id string on CUSTACC",
			"/Customer/Name/First string on CUSTACC",
			"/Customer/Name/Last string on CUSTACC",
			"/Customer/Nationality string on CUSTACC",
			"/Order/@ID string on ORDERS",
			"/Order/OrderDate string on ORDERS",
			"/Order/Price numerical on ORDERS",
			"/Order/Status string on ORDERS",
			"/Order/Symbol string on ORDERS",
			"/Security/*/BondInformation/Industry string on SECURITY",
			"/Security/*/StockInformation/Industry string on SECURITY",
			"/Security//BondInformation/Industry string on SECURITY",
			"/Security//CreditRating string on SECURITY",
			"/Security//Duration numerical on SECURITY",
			"/Security//Duration string on SECURITY",
			"/Security//MarketCap numerical on SECURITY",
			"/Security//MarketCap string on SECURITY",
			"/Security//Sector string on SECURITY",
			"/Security/@id numerical on SECURITY",
			"/Security/@id string on SECURITY",
			"/Security/PE numerical on SECURITY",
			"/Security/PE string on SECURITY",
			"/Security/Price/Close numerical on SECURITY",
			"/Security/Price/Close string on SECURITY",
			"/Security/Price/High numerical on SECURITY",
			"/Security/Price/LastTrade numerical on SECURITY",
			"/Security/Price/LastTrade string on SECURITY",
			"/Security/Price/Low numerical on SECURITY",
			"/Security/Price/Open numerical on SECURITY",
			"/Security/SecInfo/BondInformation/Industry string on SECURITY",
			"/Security/SecInfo/StockInformation/Industry string on SECURITY",
			"/Security/SecurityType string on SECURITY",
			"/Security/Symbol string on SECURITY",
			"/Security/Yield numerical on SECURITY",
			"/Security/Yield string on SECURITY",
		},
		benefitBits: 0x4150f4f353856ecc, totalSize: 675092, calls: 2708,
	},
	AlgoTopDownLite: {
		defs: []string{
			"/Customer/Name/* string on CUSTACC",
			"/Customer/Nationality string on CUSTACC",
			"/Order/@ID string on ORDERS",
			"/Security//* numerical on SECURITY",
			"/Security//* string on SECURITY",
			"/Security/@id numerical on SECURITY",
			"/Security/@id string on SECURITY",
		},
		benefitBits: 0x414da57e5a0e7e6c, totalSize: 673162, calls: 501,
	},
	AlgoTopDownFull: {
		defs: []string{
			"/Customer/Name/* string on CUSTACC",
			"/Customer/Nationality string on CUSTACC",
			"/Order/@ID string on ORDERS",
			"/Security//* numerical on SECURITY",
			"/Security//* string on SECURITY",
			"/Security/@id numerical on SECURITY",
			"/Security/@id string on SECURITY",
		},
		benefitBits: 0x414da57e5a0e7e6c, totalSize: 673162, calls: 557,
	},
	AlgoDP: {
		defs: []string{
			"/Customer/Name/* string on CUSTACC",
			"/Customer/Name/Last string on CUSTACC",
			"/Customer/Nationality string on CUSTACC",
			"/Security/* numerical on SECURITY",
			"/Security/*/BondInformation/CreditRating string on SECURITY",
			"/Security/*/BondInformation/Duration numerical on SECURITY",
			"/Security/*/BondInformation/Duration string on SECURITY",
			"/Security/*/BondInformation/Industry string on SECURITY",
			"/Security//* numerical on SECURITY",
			"/Security//BondInformation/* string on SECURITY",
			"/Security//BondInformation/CreditRating string on SECURITY",
			"/Security//BondInformation/Duration numerical on SECURITY",
			"/Security//BondInformation/Duration string on SECURITY",
			"/Security//CreditRating string on SECURITY",
			"/Security//Duration numerical on SECURITY",
			"/Security//Duration string on SECURITY",
			"/Security//MarketCap numerical on SECURITY",
			"/Security//MarketCap string on SECURITY",
			"/Security//Sector string on SECURITY",
			"/Security//StockInformation/* string on SECURITY",
			"/Security/@id numerical on SECURITY",
			"/Security/PE numerical on SECURITY",
			"/Security/Price/Close numerical on SECURITY",
			"/Security/Price/LastTrade numerical on SECURITY",
			"/Security/Price/Low numerical on SECURITY",
			"/Security/SecInfo//* numerical on SECURITY",
			"/Security/SecInfo//Industry string on SECURITY",
			"/Security/SecInfo//Sector string on SECURITY",
			"/Security/SecInfo/BondInformation/* string on SECURITY",
			"/Security/SecInfo/BondInformation/CreditRating string on SECURITY",
			"/Security/SecInfo/BondInformation/Duration numerical on SECURITY",
			"/Security/SecInfo/BondInformation/Duration string on SECURITY",
			"/Security/SecInfo/BondInformation/Industry string on SECURITY",
			"/Security/SecInfo/StockInformation/Industry string on SECURITY",
			"/Security/SecInfo/StockInformation/Sector string on SECURITY",
			"/Security/Symbol string on SECURITY",
			"/Security/Yield numerical on SECURITY",
		},
		benefitBits: 0x4146a43113d97d1d, totalSize: 673079, calls: 489,
	},
}

const adviseGoldenSpeedupBits uint64 = 0x40073f4e425ac86d // 2.905911

func TestAdviseRoundMatchesGolden(t *testing.T) {
	db, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	stmts := append([]string(nil), tpox.Queries()...)
	stmts = append(stmts, tpox.SyntheticQueries(db, 200, 130)...)
	stmts = append(stmts, tpox.UpdateStatements()...)
	rand.New(rand.NewSource(1)).Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		// Every advisor of both rounds shares one optimizer, as a
		// serving tuner's rounds do: nothing an advisor leaves on it may
		// change the next one's answer or call count.
		opt := optimizer.New(db, optimizer.CollectStats(db))
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		for round := 1; round <= 2; round++ {
			for _, algo := range Algorithms() {
				a, err := New(db, opt, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := a.Recommend(algo, a.AllIndexSize()/2)
				if err != nil {
					t.Fatal(err)
				}
				defs := make([]string, len(rec.Config))
				for i, d := range rec.Definitions() {
					defs[i] = d.String()
				}
				sort.Strings(defs)
				got := adviseGolden{defs: defs, benefitBits: math.Float64bits(rec.Benefit), totalSize: rec.TotalSize, calls: rec.OptimizerCalls}
				if want := adviseGoldens[algo]; !reflect.DeepEqual(got, want) {
					t.Errorf("parallelism %d, round %d, %s:\n got %#v\nwant %#v", parallelism, round, algo, got, want)
				}
				if algo == AlgoTopDownFull {
					if bits := math.Float64bits(a.EstimatedSpeedup(rec.Config)); bits != adviseGoldenSpeedupBits {
						t.Errorf("parallelism %d, round %d: topdown-full estimated speedup bits %#x, want %#x", parallelism, round, bits, adviseGoldenSpeedupBits)
					}
				}
			}
		}
	}
}
