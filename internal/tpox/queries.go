package tpox

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
)

// Queries returns the 11-query workload analog of the TPoX benchmark
// specification used in §VII-B: seven security-side queries (including
// the paper's running examples Q1 and Q2) plus order and customer
// queries. The parameter values are fixed so the workload is
// deterministic.
func Queries() []string {
	return []string{
		// Q1 (paper): point lookup of a security by symbol.
		`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "SYM00042" return $sec`,
		// Q2 (paper): securities in a sector given a yield range.
		`for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>`,
		// Q3: securities of one industry (descendant navigation).
		`for $sec in SECURITY('SDOC')/Security where $sec//Industry = "Software" return <R>{$sec/Symbol}{$sec/Name}</R>`,
		// Q4: valuation screen with two numeric ranges.
		`for $sec in SECURITY('SDOC')/Security[PE<12.0] where $sec/Yield >= 6.0 return <R>{$sec/Symbol}{$sec/PE}{$sec/Yield}</R>`,
		// Q5: price of a security (point lookup, different target).
		`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "SYM00777" return $sec/Price/LastTrade`,
		// Q6: bonds by credit rating.
		`for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/BondInformation/CreditRating = "AAA" return <R>{$sec/Symbol}</R>`,
		// Q7: order by identifier (attribute lookup).
		`for $o in ORDERS('ODOC')/Order where $o/@ID = "ORD0000123" return $o`,
		// Q8: a customer's open buy orders.
		`for $o in ORDERS('ODOC')/Order[Type="buy"] where $o/CustID = "C00017" return <O>{$o/Symbol}{$o/Quantity}</O>`,
		// Q9: large orders for one symbol.
		`for $o in ORDERS('ODOC')/Order[Quantity>9000] where $o/Symbol = "SYM00042" return $o`,
		// Q10: customer account lookup by customer id.
		`for $c in CUSTACC('CADOC')/Customer where $c/@id = "C00007" return $c`,
		// Q11: wealthy accounts in one currency (nested account search).
		`for $c in CUSTACC('CADOC')/Customer where $c/Accounts/Account/Balance > 9900.0 and $c/Nationality = "US" return <R>{$c/Name/Last}</R>`,
	}
}

// PaperQ1 and PaperQ2 are the indices of the paper's running examples
// within Queries().
const (
	PaperQ1 = 0
	PaperQ2 = 1
)

// UpdateStatements returns the DML mix used by the index-maintenance
// experiments: TPoX's transaction side (order insert, order delete,
// price update, new security).
func UpdateStatements() []string {
	return []string{
		`insert into ORDERS value <Order ID="ORD9000001"><CustID>C00001</CustID><Symbol>SYM00042</Symbol><Quantity>100</Quantity><Price>55.25</Price><Type>buy</Type><Status>new</Status><OrderDate>2007-06-12</OrderDate></Order>`,
		`insert into SECURITY value <Security id="999999"><Symbol>SYMNEW01</Symbol><Name>Newly Listed</Name><SecurityType>Stock</SecurityType><Yield>2.5</Yield><PE>18</PE><SecInfo><StockInformation><Sector>Technology</Sector><Industry>Software</Industry><MarketCap>1000000</MarketCap></StockInformation></SecInfo><Price><Open>10</Open><Close>11</Close><High>12</High><Low>9</Low><LastTrade>10.5</LastTrade></Price></Security>`,
		`delete from ORDERS where /Order[Status="cancelled"]`,
		`update SECURITY set Yield = 5.5 where /Security[Symbol="SYM00042"]`,
	}
}

// pathSample is one concrete rooted path with an example value, drawn
// from the data; the synthetic workload generator turns samples into
// queries.
type pathSample struct {
	table   string
	labels  []string
	value   string
	numeric bool
	num     float64
}

// collectSamples walks up to maxDocs documents per table and records
// every leaf (value-bearing) path with an example value.
func collectSamples(db *storage.Database, maxDocs int) []pathSample {
	var out []pathSample
	seen := make(map[string]bool)
	tables := db.TableNames()
	for _, tname := range tables {
		tbl, err := db.Table(tname)
		if err != nil {
			continue
		}
		count := 0
		tbl.Scan(func(doc *xmltree.Document) bool {
			count++
			var labels []string
			var walk func(id xmltree.NodeID)
			walk = func(id xmltree.NodeID) {
				n := doc.Node(id)
				label := n.Name
				if n.Kind == xmltree.Attribute {
					label = "@" + label
				}
				labels = append(labels, label)
				elemChildren := 0
				for c := id + 1; c <= n.EndID; c = doc.Nodes[c].EndID + 1 {
					if doc.Node(c).Kind != xmltree.Text {
						elemChildren++
					}
				}
				if elemChildren == 0 { // leaf: element with text, or attribute
					key := tname + "|" + strings.Join(labels, "/")
					if !seen[key] {
						seen[key] = true
						s := pathSample{
							table:  tname,
							labels: append([]string(nil), labels...),
							value:  doc.TrimmedText(id),
						}
						if f, ok := doc.NumericValue(id); ok {
							s.numeric, s.num = true, f
						}
						out = append(out, s)
					}
				}
				for c := id + 1; c <= n.EndID; c = doc.Nodes[c].EndID + 1 {
					if doc.Node(c).Kind != xmltree.Text {
						walk(c)
					}
				}
				labels = labels[:len(labels)-1]
			}
			if doc.Root() != nil {
				walk(doc.Root().ID)
			}
			return count < maxDocs
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].table != out[j].table {
			return out[i].table < out[j].table
		}
		return strings.Join(out[i].labels, "/") < strings.Join(out[j].labels, "/")
	})
	return out
}

// SyntheticQueries generates n random path-expression queries that
// occur in the data (§VII-C: "synthetic workloads consisting of random
// XPath path expressions that occur in the data"). Each query is a bare
// path with a value predicate on its last step; with some probability a
// middle step is wildcarded or a descendant axis introduced, so that
// distinct queries share generalizable structure.
func SyntheticQueries(db *storage.Database, n int, seed int64) []string {
	samples := collectSamples(db, 25)
	if len(samples) == 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	seen := make(map[string]bool)
	for len(out) < n {
		s := samples[r.Intn(len(samples))]
		q := renderSyntheticQuery(r, s)
		if q == "" {
			continue
		}
		if seen[q] {
			// Degrade gracefully on tiny databases: accept a duplicate
			// after too many retries.
			if r.Intn(10) == 0 {
				out = append(out, q)
			}
			continue
		}
		seen[q] = true
		out = append(out, q)
	}
	return out
}

func renderSyntheticQuery(r *rand.Rand, s pathSample) string {
	k := len(s.labels)
	if k < 2 {
		return "" // a root-level leaf cannot carry a predicate site
	}
	// Binding path = all steps but the leaf; the leaf becomes the
	// predicate's relative path.
	bind := append([]string(nil), s.labels[:k-1]...)
	axes := make([]string, len(bind))
	for i := range axes {
		axes[i] = "/"
	}
	// Mutate the middle so distinct queries share generalizable
	// structure: wildcard a middle step or collapse one into a
	// descendant axis.
	if len(bind) >= 3 {
		switch r.Intn(4) {
		case 0:
			bind[1+r.Intn(len(bind)-2)] = "*"
		case 1:
			i := 1 + r.Intn(len(bind)-2)
			bind = append(bind[:i], bind[i+1:]...)
			axes = axes[:len(bind)]
			axes[i] = "//"
		}
	}
	var path strings.Builder
	for i := range bind {
		path.WriteString(axes[i])
		path.WriteString(bind[i])
	}
	var pred string
	if s.numeric && r.Intn(2) == 0 {
		op := []string{">", "<", ">=", "<="}[r.Intn(4)]
		pred = fmt.Sprintf("%s%s%g", s.labels[k-1], op, s.num)
	} else {
		pred = fmt.Sprintf(`%s="%s"`, s.labels[k-1], escapeQuotes(s.value))
	}
	col := map[string]string{TableSecurity: "SDOC", TableOrders: "ODOC", TableCustAcc: "CADOC"}[s.table]
	if col == "" {
		col = "DOC"
	}
	return fmt.Sprintf("%s('%s')%s[%s]", s.table, col, path.String(), pred)
}

func escapeQuotes(s string) string {
	return strings.ReplaceAll(s, `"`, ``)
}
