// Package tpox implements the benchmark substrate of the paper's
// evaluation (§VII): a deterministic generator for TPoX-like XML
// documents (securities, FIXML-style orders, customer accounts), the
// 11-query workload analog, the DML statements used in the
// index-maintenance experiments, and the synthetic random-path
// workloads of §VII-C.
//
// The document shapes follow the paper's running examples — Security
// documents expose /Security/Symbol, /Security/Yield, and
// /Security/SecInfo/*/Sector, so the paper's Q1/Q2 and candidates C1-C4
// arise verbatim. Everything is seeded and reproducible.
package tpox

import (
	"fmt"
	"math/rand"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
)

// Table names, mirroring TPoX's three tables.
const (
	TableSecurity = "SECURITY"
	TableOrders   = "ORDERS"
	TableCustAcc  = "CUSTACC"
)

// PartitionKeys maps each table to its natural partition key for a
// sharded deployment: the document identifier its generator makes
// unique per document.
func PartitionKeys() map[string]string {
	return map[string]string{
		TableSecurity: "/Security/Symbol",
		TableOrders:   "/Order/@ID",
		TableCustAcc:  "/Customer/@id",
	}
}

// Config sizes the generated database.
type Config struct {
	Securities int
	Orders     int
	Customers  int
	Seed       int64
}

// DefaultConfig returns the document counts for a scale factor: scale 1
// generates 1000 securities, 2000 orders, and 500 customers — small
// enough for CI, large enough that full scans dominate index probes by
// orders of magnitude, the regime of the paper's 1 GB setup.
func DefaultConfig(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{
		Securities: 1000 * scale,
		Orders:     2000 * scale,
		Customers:  500 * scale,
		Seed:       1914, // arbitrary fixed seed: determinism over cleverness
	}
}

var (
	sectors = []string{
		"Energy", "Technology", "Finance", "Healthcare", "Utilities",
		"Materials", "Industrials", "ConsumerStaples", "Telecom", "RealEstate",
	}
	industries = []string{
		"OilGas", "Software", "Banking", "Pharma", "Electric", "Mining",
		"Aerospace", "Food", "Wireless", "REIT", "Semiconductors", "Retail",
		"Insurance", "Biotech", "Chemicals", "Railroads", "Media", "Gaming",
		"Shipping", "Agriculture",
	}
	securityTypes = []string{"Stock", "Bond", "MutualFund"}
	currencies    = []string{"USD", "EUR", "GBP", "JPY", "CAD"}
	countries     = []string{"US", "DE", "UK", "JP", "CA", "FR", "AU", "BR"}
	firstNames    = []string{"Ada", "Brian", "Carol", "Dmitri", "Elena", "Farid", "Grace", "Hugo"}
	lastNames     = []string{"Ng", "Smith", "Okafor", "Ivanov", "Garcia", "Chen", "Dubois", "Kim"}
)

// SymbolOf returns the deterministic ticker symbol of security i.
func SymbolOf(i int) string { return fmt.Sprintf("SYM%05d", i) }

// securityDoc builds one Security document. The shape matches the
// paper's examples: Symbol, Name, Yield, and SecInfo/<kind>/Sector.
func securityDoc(r *rand.Rand, i int) *xmltree.Document {
	b := xmltree.NewBuilder()
	secType := securityTypes[r.Intn(len(securityTypes))]
	b.Begin("Security").
		Attr("id", fmt.Sprintf("%d", 100000+i)).
		Leaf("Symbol", SymbolOf(i)).
		Leaf("Name", fmt.Sprintf("%s Holdings %d", sectors[i%len(sectors)], i)).
		Leaf("SecurityType", secType).
		LeafFloat("Yield", float64(r.Intn(1000))/100). // 0.00 .. 9.99
		LeafFloat("PE", 5+float64(r.Intn(4000))/100)

	b.Begin("SecInfo")
	switch secType {
	case "Bond":
		b.Begin("BondInformation").
			Leaf("Sector", sectors[r.Intn(len(sectors))]).
			Leaf("Industry", industries[r.Intn(len(industries))]).
			Leaf("CreditRating", []string{"AAA", "AA", "A", "BBB", "BB"}[r.Intn(5)]).
			LeafFloat("Duration", float64(r.Intn(30))).
			End()
	default:
		b.Begin("StockInformation").
			Leaf("Sector", sectors[r.Intn(len(sectors))]).
			Leaf("Industry", industries[r.Intn(len(industries))]).
			LeafFloat("MarketCap", float64(1+r.Intn(500))*1e8).
			End()
	}
	b.End() // SecInfo

	open := 10 + float64(r.Intn(20000))/100
	b.Begin("Price").
		LeafFloat("Open", open).
		LeafFloat("Close", open*(0.95+float64(r.Intn(10))/100)).
		LeafFloat("High", open*1.05).
		LeafFloat("Low", open*0.95).
		LeafFloat("LastTrade", open*(0.97+float64(r.Intn(6))/100)).
		End()
	b.End() // Security
	return b.Document()
}

// orderDoc builds one FIXML-like Order document.
func orderDoc(r *rand.Rand, i, securities, customers int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("Order").
		Attr("ID", fmt.Sprintf("ORD%07d", i)).
		Leaf("CustID", fmt.Sprintf("C%05d", r.Intn(max(customers, 1)))).
		Leaf("Symbol", SymbolOf(r.Intn(max(securities, 1)))).
		LeafInt("Quantity", int64(1+r.Intn(10000))).
		LeafFloat("Price", 10+float64(r.Intn(20000))/100).
		Leaf("Type", []string{"buy", "sell"}[r.Intn(2)]).
		Leaf("Status", []string{"new", "filled", "cancelled"}[r.Intn(3)]).
		Leaf("OrderDate", fmt.Sprintf("2007-%02d-%02d", 1+r.Intn(12), 1+r.Intn(28))).
		End()
	return b.Document()
}

// custAccDoc builds one Customer document with nested accounts.
func custAccDoc(r *rand.Rand, i int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("Customer").
		Attr("id", fmt.Sprintf("C%05d", i)).
		Begin("Name").
		Leaf("First", firstNames[r.Intn(len(firstNames))]).
		Leaf("Last", lastNames[r.Intn(len(lastNames))]).
		End().
		Leaf("Nationality", countries[r.Intn(len(countries))])
	b.Begin("Accounts")
	for a := 0; a < 1+r.Intn(3); a++ {
		b.Begin("Account").
			Attr("id", fmt.Sprintf("A%05d-%d", i, a)).
			LeafFloat("Balance", float64(r.Intn(1000000))/100).
			Leaf("Currency", currencies[r.Intn(len(currencies))]).
			Leaf("Type", []string{"checking", "savings", "trading"}[r.Intn(3)]).
			End()
	}
	b.End() // Accounts
	b.End() // Customer
	return b.Document()
}

// Generate creates the three TPoX tables in db and fills them per cfg,
// one commit per table.
func Generate(db *storage.Database, cfg Config) error {
	r := rand.New(rand.NewSource(cfg.Seed))
	for _, t := range []struct {
		name string
		n    int
		doc  func(i int) *xmltree.Document
	}{
		{TableSecurity, cfg.Securities, func(i int) *xmltree.Document { return securityDoc(r, i) }},
		{TableOrders, cfg.Orders, func(i int) *xmltree.Document { return orderDoc(r, i, cfg.Securities, cfg.Customers) }},
		{TableCustAcc, cfg.Customers, func(i int) *xmltree.Document { return custAccDoc(r, i) }},
	} {
		if _, err := db.CreateTable(t.name); err != nil {
			return err
		}
		docs := make([]*xmltree.Document, t.n)
		for i := range docs {
			docs[i] = t.doc(i)
		}
		if _, err := db.Load(t.name, docs...); err != nil {
			return err
		}
	}
	return nil
}

// NewDatabase generates a fresh TPoX database at the given scale.
func NewDatabase(scale int) (*storage.Database, error) {
	db := storage.NewDatabase()
	if err := Generate(db, DefaultConfig(scale)); err != nil {
		return nil, err
	}
	return db, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
