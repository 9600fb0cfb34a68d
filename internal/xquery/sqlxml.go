package xquery

import (
	"fmt"
	"strings"

	"xixa/internal/xpath"
)

// SQL/XML support. The paper (§I) argues that tight optimizer coupling
// gives the advisor every language the optimizer understands "simply by
// virtue of the fact that the DB2 query optimizer supports both":
// XQuery and SQL/XML. This file adds the SQL/XML surface: a SELECT with
// an XMLEXISTS predicate compiles to the same Statement the FLWOR form
// produces, so candidate enumeration, benefit estimation, and execution
// need no changes at all.
//
// Supported form (DB2 9 style):
//
//	SELECT * FROM SECURITY
//	WHERE XMLEXISTS('$SDOC/Security[Symbol="BCIIPRC"]' PASSING SDOC)
//
// Multiple XMLEXISTS predicates may be joined with AND; each holds one
// absolute path over the document column.
func parseSQLXML(input string) (*Statement, error) {
	lower := lowerASCII(input)
	fromIdx := findKeyword(lower, "from")
	if fromIdx < 0 {
		return nil, fmt.Errorf("xquery: SQL/XML: missing FROM in %q", input)
	}
	whereIdx := findKeyword(lower, "where")
	if whereIdx >= 0 && whereIdx < fromIdx {
		return nil, fmt.Errorf("xquery: SQL/XML: WHERE before FROM in %q", input)
	}
	var table string
	if whereIdx < 0 {
		table = strings.TrimSpace(input[fromIdx+4:])
	} else {
		table = strings.TrimSpace(input[fromIdx+4 : whereIdx])
	}
	if table == "" || strings.ContainsAny(table, " \t\n") {
		return nil, fmt.Errorf("xquery: SQL/XML: bad table name %q", table)
	}
	table = strings.ToUpper(table)

	st := &Statement{Kind: Query, Raw: input, Table: table}
	if whereIdx < 0 {
		return nil, fmt.Errorf("xquery: SQL/XML: a WHERE with XMLEXISTS is required in %q", input)
	}
	whereClause := input[whereIdx+5:]
	exprs, err := splitXMLExists(whereClause)
	if err != nil {
		return nil, err
	}
	if len(exprs) == 0 {
		return nil, fmt.Errorf("xquery: SQL/XML: no XMLEXISTS predicate in %q", input)
	}
	for i, raw := range exprs {
		p, err := parseXMLExistsPath(raw)
		if err != nil {
			return nil, fmt.Errorf("xquery: SQL/XML predicate %d: %w", i+1, err)
		}
		if i == 0 {
			st.Binding = p
			continue
		}
		// Additional XMLEXISTS predicates must share the binding's
		// linear skeleton; their predicates merge onto it.
		if !p.StripPreds().Equal(st.Binding.StripPreds()) {
			return nil, fmt.Errorf(
				"xquery: SQL/XML: XMLEXISTS paths must share a root path (%s vs %s)",
				p.StripPreds(), st.Binding.StripPreds())
		}
		for si := range p.Steps {
			st.Binding.Steps[si].Preds = append(st.Binding.Steps[si].Preds, p.Steps[si].Preds...)
		}
	}
	return st, nil
}

// splitXMLExists extracts the quoted path expression of each
// XMLEXISTS('...' PASSING col) term of an AND-joined WHERE clause.
func splitXMLExists(clause string) ([]string, error) {
	var out []string
	lower := lowerASCII(clause)
	for i := 0; ; {
		j := strings.Index(lower[i:], "xmlexists")
		if j < 0 {
			break
		}
		i += j + len("xmlexists")
		open := strings.Index(clause[i:], "(")
		if open < 0 {
			return nil, fmt.Errorf("xquery: SQL/XML: XMLEXISTS missing '('")
		}
		i += open + 1
		// Skip whitespace to the quote.
		for i < len(clause) && (clause[i] == ' ' || clause[i] == '\t') {
			i++
		}
		if i >= len(clause) || (clause[i] != '\'' && clause[i] != '"') {
			return nil, fmt.Errorf("xquery: SQL/XML: XMLEXISTS argument must be a quoted path")
		}
		quote := clause[i]
		i++
		start := i
		for i < len(clause) && clause[i] != quote {
			i++
		}
		if i >= len(clause) {
			return nil, fmt.Errorf("xquery: SQL/XML: unterminated XMLEXISTS argument")
		}
		out = append(out, clause[start:i])
		i++
	}
	return out, nil
}

// parseXMLExistsPath parses the quoted argument: an optional $COL
// variable prefix followed by an absolute path.
func parseXMLExistsPath(raw string) (xpath.Path, error) {
	text := strings.TrimSpace(raw)
	if strings.HasPrefix(text, "$") {
		slash := strings.Index(text, "/")
		if slash < 0 {
			return xpath.Path{}, fmt.Errorf("variable %q has no path", text)
		}
		text = text[slash:]
	}
	p, err := xpath.Parse(text)
	if err != nil {
		return xpath.Path{}, err
	}
	if p.Relative {
		return xpath.Path{}, fmt.Errorf("XMLEXISTS path must be absolute: %q", raw)
	}
	return p, nil
}
