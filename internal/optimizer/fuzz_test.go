package optimizer

import (
	"strings"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// FuzzStatement feeds the statement parser arbitrary text, as a client
// line carries it. Parse must not panic, and every statement it accepts
// must plan on a small TPoX database without panicking: Enumerate
// Indexes, then Evaluate Indexes with no index and with the enumerated
// ones, and for DML the maintenance cost of a //* index. The seeds are
// the TPoX queries and updates, the statements whose overlong predicate
// or updated path crashed the planner before Parse refused them, the
// 30-step boundary, and the non-ASCII statements that crashed the
// keyword search.
func FuzzStatement(f *testing.F) {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 20, Orders: 20, Customers: 10, Seed: 1}); err != nil {
		f.Fatal(err)
	}
	o := New(db, CollectStats(db))
	a31 := strings.Repeat("/a", 31)
	for _, raw := range append(append(tpox.Queries(), tpox.UpdateStatements()...),
		`for $s in SECURITY('SDOC')/Security where $s`+a31+` = "x" return $s`,
		`delete from SECURITY where /Security[Symbol`+a31+` = "x"]`,
		`update SECURITY set Symbol`+a31+` = "y" where /Security[Symbol="SYM00001"]`,
		`for $s in SECURITY('SDOC')/Security`+strings.Repeat("/a", 28)+` where $s/b = "x" return $s`,
		`SELECT * FROM SECURITY WHERE XMLEXISTS('$SDOC/Security[Yield>4.5]' PASSING SDOC)`,
		"for \xff\xeb\xde\xd0 return",
		"SELECT \xff\xff\xff FROM x",
		`for $s in SECURITY('C')/İİİ where $s/a = 1 return $s`,
	) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		stmt, err := xquery.Parse(raw)
		if err != nil {
			return
		}
		defs, err := o.EnumerateIndexes(stmt)
		if err != nil {
			return // a table the database lacks
		}
		for _, config := range [][]xindex.Definition{nil, defs} {
			if _, err := o.EvaluateIndexes(stmt, config); err != nil {
				t.Fatalf("EvaluateIndexes(%q, %v): %v", raw, config, err)
			}
		}
		if stmt.Kind != xquery.Query {
			o.MaintenanceCost(xindex.Definition{Table: stmt.Table, Pattern: anyElement, Type: xpath.StringVal}, stmt)
		}
	})
}
