package main

import (
	"fmt"
	"math/rand"
)

// The generators know the shape of the TPoX data xixad builds at scale
// 1 (1,000 securities, 2,000 orders, 500 customers and their value
// domains); the oracle checks every generated statement against the
// real data, so a drift here shows as wrong counts, not silently.
const (
	nSecurities = 1000
	nOrders     = 2000
	nCustomers  = 500
)

var (
	sectors = []string{"Energy", "Technology", "Finance", "Healthcare", "Utilities",
		"Materials", "Industrials", "ConsumerStaples", "Telecom", "RealEstate"}
	industries = []string{"OilGas", "Software", "Banking", "Pharma", "Electric", "Mining",
		"Aerospace", "Food", "Wireless", "REIT", "Semiconductors", "Retail",
		"Insurance", "Biotech", "Chemicals", "Railroads", "Media", "Gaming",
		"Shipping", "Agriculture"}
	ratings = []string{"AAA", "AA", "A", "BBB", "BB"}
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opUpdate
	opDelete
)

// op is one generated statement with what the harness must see back.
type op struct {
	line []byte // the statement and its newline, as sent
	want int64  // expected result count
	kind opKind
	id   string // write stream: the order an insert creates or a delete removes
	xml  int    // write stream: bytes of inserted XML (the user's bytes)
}

func (o op) stmt() string { return string(o.line[:len(o.line)-1]) }

// stream is one client's deterministic statement sequence.
type stream interface{ next() op }

// expecter computes expected result counts by brute force over the
// data (layers.go); tests substitute a fake.
type expecter interface {
	// countStatement evaluates the statement against every document.
	countStatement(raw string) (int64, error)
	// countKey counts the documents of table whose keyPath has the
	// string value key.
	countKey(table, keyPath, key string) (int64, error)
}

// keyTable is one TPoX table with its unique key, as the point
// lookups address it.
type keyTable struct {
	table, keyPath string
	n              int
	key            func(i int) string
	query          func(key string) string
}

var keyTables = []keyTable{
	{"SECURITY", "/Security/Symbol", nSecurities,
		func(i int) string { return fmt.Sprintf("SYM%05d", i) },
		func(k string) string {
			return `for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "` + k + `" return $sec`
		}},
	{"ORDERS", "/Order/@ID", nOrders,
		func(i int) string { return fmt.Sprintf("ORD%07d", i) },
		func(k string) string { return `for $o in ORDERS('ODOC')/Order where $o/@ID = "` + k + `" return $o` }},
	{"CUSTACC", "/Customer/@id", nCustomers,
		func(i int) string { return fmt.Sprintf("C%05d", i) },
		func(k string) string {
			return `for $c in CUSTACC('CADOC')/Customer where $c/@id = "` + k + `" return $c`
		}},
}

// primeStatements is the fixed sequence a tuned workload's set-up
// sends before \tune: 16 lookups per key table, enough for the advisor
// to recommend the three key indexes. It does not depend on the seed.
func primeStatements() []string {
	var out []string
	for i := 0; i < 16; i++ {
		for _, kt := range keyTables {
			out = append(out, kt.query(kt.key(i*7%kt.n)))
		}
	}
	return out
}

// pointPool holds every key-equality lookup pre-rendered with its
// expected count; streams only draw indices from it.
type pointPool struct {
	ops [][]op // per key table, by key number
}

func newPointPool(e expecter) (*pointPool, error) {
	p := &pointPool{}
	for _, kt := range keyTables {
		ops := make([]op, kt.n)
		for i := range ops {
			k := kt.key(i)
			want, err := e.countKey(kt.table, kt.keyPath, k)
			if err != nil {
				return nil, err
			}
			ops[i] = op{line: []byte(kt.query(k) + "\n"), want: want}
		}
		p.ops = append(p.ops, ops)
	}
	return p, nil
}

// pointStream draws a key table uniformly and a key Zipf(1.1) over a
// seeded permutation of that table's keys, so which keys are hot
// depends on the seed and not on their numbers.
type pointStream struct {
	pool *pointPool
	r    *rand.Rand
	zipf []*rand.Zipf
	perm [][]int
}

// zipfS is the skew of the point lookups. Skew is neutral today (no
// literal-keyed cache on the serve path); it lets a later statement or
// plan cache show.
const zipfS = 1.1

func newPointStream(pool *pointPool, seed int64, client int) *pointStream {
	s := &pointStream{pool: pool, r: rand.New(rand.NewSource(seed*1000 + int64(client)))}
	// The permutation is shared by a seed's clients: they agree on
	// which keys are hot, as users of one application would.
	pr := rand.New(rand.NewSource(seed))
	for _, ops := range pool.ops {
		s.perm = append(s.perm, pr.Perm(len(ops)))
		s.zipf = append(s.zipf, rand.NewZipf(s.r, zipfS, 1, uint64(len(ops)-1)))
	}
	return s
}

func (s *pointStream) next() op {
	t := s.r.Intn(len(s.pool.ops))
	return s.pool.ops[t][s.perm[t][s.zipf[t].Uint64()]]
}

// scanPool is a seeded set of the sector / industry / valuation /
// rating predicates of TPoX Q2-Q4 and Q6, none of which an untuned
// daemon can answer without evaluating every SECURITY document.
type scanPool struct{ ops []op }

// scanPoolPerTemplate statements are drawn per query template; enough
// that a seed's mean result size is close to every other seed's.
const scanPoolPerTemplate = 48

func newScanPool(e expecter, seed int64) (*scanPool, error) {
	r := rand.New(rand.NewSource(seed))
	tenth := func(lo, hi int) float64 { return float64(lo+r.Intn(hi-lo)) / 10 }
	templates := []func() string{
		func() string { // Q2: a sector above a yield
			return fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security[Yield>%.1f] where $sec/SecInfo/*/Sector = "%s" return <Security>{$sec/Name}</Security>`,
				tenth(5, 95), sectors[r.Intn(len(sectors))])
		},
		func() string { // Q3: one industry, descendant navigation
			return fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec//Industry = "%s" return <R>{$sec/Symbol}{$sec/Name}</R>`,
				industries[r.Intn(len(industries))])
		},
		func() string { // Q4: two numeric ranges
			return fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security[PE<%.1f] where $sec/Yield >= %.1f return <R>{$sec/Symbol}{$sec/PE}{$sec/Yield}</R>`,
				tenth(80, 300), tenth(20, 80))
		},
		func() string { // Q6: bonds by rating
			return fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/BondInformation/CreditRating = "%s" return <R>{$sec/Symbol}</R>`,
				ratings[r.Intn(len(ratings))])
		},
	}
	p := &scanPool{}
	for _, render := range templates {
		for i := 0; i < scanPoolPerTemplate; i++ {
			raw := render()
			want, err := e.countStatement(raw)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, op{line: []byte(raw + "\n"), want: want})
		}
	}
	return p, nil
}

type scanStream struct {
	pool *scanPool
	r    *rand.Rand
}

func newScanStream(pool *scanPool, seed int64, client int) *scanStream {
	return &scanStream{pool: pool, r: rand.New(rand.NewSource(seed*1000 + int64(client)))}
}

func (s *scanStream) next() op { return s.pool.ops[s.r.Intn(len(s.pool.ops))] }

// writeLag is how many cycles an inserted order lives before its
// client deletes it, so table and index sizes stay level.
const writeLag = 64

// writeStream cycles insert-order → update-security-yield → delete the
// order inserted writeLag cycles earlier. Clients own disjoint orders
// (the client number is in the ID) and disjoint securities (symbol
// number mod clients), so no statement conflicts with another and none
// fails.
type writeStream struct {
	r               *rand.Rand
	client, clients int
	cycle, phase    int
}

func newWriteStream(seed int64, client, clients int) *writeStream {
	return &writeStream{r: rand.New(rand.NewSource(seed*1000 + int64(client))), client: client, clients: clients}
}

func (s *writeStream) orderID(cycle int) string {
	return fmt.Sprintf("ORD9%d%07d", s.client, cycle)
}

func (s *writeStream) next() op {
	switch s.phase {
	case 0:
		s.phase = 1
		id := s.orderID(s.cycle)
		xml := fmt.Sprintf(`<Order ID="%s"><CustID>C%05d</CustID><Symbol>SYM%05d</Symbol><Quantity>%d</Quantity><Price>%.2f</Price><Type>%s</Type><Status>new</Status><OrderDate>2007-%02d-%02d</OrderDate></Order>`,
			id, s.r.Intn(nCustomers), s.r.Intn(nSecurities), 1+s.r.Intn(10000), 10+float64(s.r.Intn(20000))/100,
			[]string{"buy", "sell"}[s.r.Intn(2)], 1+s.r.Intn(12), 1+s.r.Intn(28))
		return op{line: []byte("insert into ORDERS value " + xml + "\n"), kind: opInsert, id: id, xml: len(xml)}
	case 1:
		s.phase = 2
		sym := s.r.Intn(nSecurities/s.clients)*s.clients + s.client
		return op{line: []byte(fmt.Sprintf("update SECURITY set Yield = %.2f where /Security[Symbol=\"SYM%05d\"]\n",
			float64(s.r.Intn(1000))/100, sym)), kind: opUpdate}
	}
	s.phase = 0
	s.cycle++
	if s.cycle <= writeLag {
		return s.next() // nothing old enough to delete yet
	}
	id := s.orderID(s.cycle - 1 - writeLag)
	return op{line: []byte(`delete from ORDERS where /Order[@ID="` + id + "\"]\n"), kind: opDelete, id: id}
}

// orderLookup is the durability check's probe for one order.
func orderLookup(id string) string { return keyTables[1].query(id) }
