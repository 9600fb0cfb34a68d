// Package xquery implements the workload statement dialect: a FLWOR
// subset of XQuery modeled on the paper's TPoX examples, plus the
// INSERT/DELETE/UPDATE statements whose index-maintenance cost the
// advisor must account for (paper §III).
//
// Supported query forms:
//
//	for $sec in SECURITY('SDOC')/Security[Yield>4.5]
//	where $sec/Symbol = "BCIIPRC" and $sec/SecInfo/*/Sector = "Energy"
//	return <Security>{$sec/Name}</Security>
//
//	SECURITY('SDOC')/Security[Yield>4.5]          (bare path query)
//
// Supported DML forms:
//
//	insert into SECURITY value <Security>...</Security>
//	delete from SECURITY where /Security[Symbol="X"]
//	update SECURITY set Yield = 5.1 where /Security[Symbol="X"]
//
// The FLWOR where-clause is a conjunction of comparisons or existence
// tests on paths rooted at the bound variable. The optimizer folds these
// conditions into the binding path (the paper's "indexes exposed by
// query rewrites").
package xquery

import (
	"fmt"
	"strings"
	"sync/atomic"

	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// Kind discriminates statement kinds.
type Kind uint8

const (
	// Query is a read-only FLWOR or bare path statement.
	Query Kind = iota
	// Insert adds one document to a table.
	Insert
	// Delete removes the documents matched by a predicate path.
	Delete
	// Update modifies a leaf value in the documents matched by a
	// predicate path.
	Update
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Query:
		return "query"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Cond is one conjunct of a where clause: a comparison or existence test
// on a path relative to the bound variable.
type Cond struct {
	Rel xpath.Path
	Op  xpath.CmpOp // OpNone for existence
	Lit xpath.Value
}

// String renders the condition without the variable prefix.
func (c Cond) String() string {
	if c.Op == xpath.OpNone {
		return c.Rel.String()
	}
	return c.Rel.String() + c.Op.String() + c.Lit.String()
}

// Statement is one parsed workload statement.
type Statement struct {
	Kind Kind
	Raw  string
	// Table is the target table for all statement kinds.
	Table string

	// Query fields.
	Var     string       // bound variable name without '$' (FLWOR only)
	Binding xpath.Path   // absolute binding path (may contain predicates)
	Where   []Cond       // conjunction over the bound variable
	Returns []xpath.Path // relative paths extracted from the return clause

	// DML fields.
	Doc      *xmltree.Document // Insert: the document
	Match    xpath.Path        // Delete/Update: absolute predicate path
	SetPath  xpath.Path        // Update: relative leaf path to modify
	SetValue xpath.Value       // Update: new value

	// normKey memoizes NormalizedKey. The key is derived from fields
	// that are fixed once parsing returns, and it is re-read on every
	// workload-capture observation and plan-trace site, so rebuilding
	// the string each time is measurable on the serve path. Statements
	// are shared by pointer (the optimizer's compiled-statement cache
	// keys on the pointer too; its plan cache keys on Raw), which makes
	// per-statement memoization safe.
	normKey atomic.Pointer[string]
}

// NormalizedPath returns the statement's access path with all where
// conditions folded in as predicates on the binding path's last step.
// This is the rewrite that exposes indexable patterns (e.g. it turns
// Q1's where clause into /Security[Symbol="BCIIPRC"], exposing
// /Security/Symbol — candidate C1 in the paper's Table I).
func (s *Statement) NormalizedPath() xpath.Path {
	switch s.Kind {
	case Delete, Update:
		return s.Match.Clone()
	case Insert:
		return xpath.Path{}
	}
	p := s.Binding.Clone()
	if len(p.Steps) == 0 {
		return p
	}
	last := &p.Steps[len(p.Steps)-1]
	for _, c := range s.Where {
		last.Preds = append(last.Preds, xpath.Pred{Rel: c.Rel.Clone(), Op: c.Op, Lit: c.Lit})
	}
	return p
}

// NormalizedKey returns the statement's identity under workload
// capture: two statements with the same key are the same logical
// statement even if their raw spellings differ (whitespace, clause
// formatting), so captures from many sessions accumulate one
// frequency-weighted entry instead of shadowing each other. The key is
// built from the statement kind, table, and the normalized access path
// (predicates folded in), plus the return paths for queries and the
// set clause for updates. Inserts key by their raw text: distinct
// documents are distinct statements.
func (s *Statement) NormalizedKey() string {
	if k := s.normKey.Load(); k != nil {
		return *k
	}
	key := s.buildNormalizedKey()
	// A concurrent caller may race here; both compute the same string,
	// so whichever Store wins is correct.
	s.normKey.Store(&key)
	return key
}

func (s *Statement) buildNormalizedKey() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	b.WriteByte('|')
	b.WriteString(s.Table)
	b.WriteByte('|')
	switch s.Kind {
	case Insert:
		b.WriteString(strings.Join(strings.Fields(s.Raw), " "))
	case Update:
		b.WriteString(s.Match.String())
		b.WriteByte('|')
		b.WriteString(s.SetPath.String())
		b.WriteByte('=')
		b.WriteString(s.SetValue.String())
	case Delete:
		b.WriteString(s.Match.String())
	default:
		b.WriteString(s.NormalizedPath().String())
		for _, r := range s.Returns {
			b.WriteByte('|')
			b.WriteString(r.String())
		}
	}
	return b.String()
}

// Parse parses one workload statement.
func Parse(input string) (*Statement, error) {
	trimmed := strings.TrimSpace(input)
	lower := strings.ToLower(trimmed)
	switch {
	case strings.HasPrefix(lower, "insert into "):
		return parseInsert(trimmed)
	case strings.HasPrefix(lower, "delete from "):
		return parseDelete(trimmed)
	case strings.HasPrefix(lower, "update "):
		return parseUpdate(trimmed)
	case strings.HasPrefix(lower, "for "):
		return parseFLWOR(trimmed)
	case strings.HasPrefix(lower, "select "):
		return parseSQLXML(trimmed)
	default:
		return parseBarePath(trimmed)
	}
}

// MustParse parses a statement and panics on error.
func MustParse(input string) *Statement {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

// parseSource parses TABLE('COL')/path..., returning the table name and
// the absolute path.
func parseSource(src string) (table string, p xpath.Path, err error) {
	open := strings.Index(src, "(")
	if open <= 0 {
		return "", xpath.Path{}, fmt.Errorf("xquery: expected TABLE('COL') source in %q", src)
	}
	table = strings.TrimSpace(src[:open])
	close := strings.Index(src, ")")
	if close < open {
		return "", xpath.Path{}, fmt.Errorf("xquery: unterminated source in %q", src)
	}
	rest := strings.TrimSpace(src[close+1:])
	if rest == "" {
		return "", xpath.Path{}, fmt.Errorf("xquery: source %q has no path", src)
	}
	p, err = xpath.Parse(rest)
	if err != nil {
		return "", xpath.Path{}, err
	}
	if p.Relative {
		return "", xpath.Path{}, fmt.Errorf("xquery: source path must be absolute in %q", src)
	}
	return table, p, nil
}

func parseBarePath(input string) (*Statement, error) {
	table, p, err := parseSource(input)
	if err != nil {
		return nil, err
	}
	return &Statement{Kind: Query, Raw: input, Table: table, Binding: p}, nil
}

func parseFLWOR(input string) (*Statement, error) {
	// Split into for / where / return sections. The where clause is
	// optional; return is required.
	lower := strings.ToLower(input)
	forIdx := strings.Index(lower, "for ")
	retIdx := findKeyword(lower, "return")
	if retIdx < 0 {
		return nil, fmt.Errorf("xquery: missing return clause in %q", input)
	}
	whereIdx := findKeyword(lower[:retIdx], "where")

	forEnd := retIdx
	if whereIdx >= 0 {
		forEnd = whereIdx
	}
	forClause := strings.TrimSpace(input[forIdx+4 : forEnd])
	inIdx := findKeyword(strings.ToLower(forClause), "in")
	if inIdx < 0 {
		return nil, fmt.Errorf("xquery: missing 'in' in for clause of %q", input)
	}
	varTok := strings.TrimSpace(forClause[:inIdx])
	if !strings.HasPrefix(varTok, "$") || len(varTok) < 2 {
		return nil, fmt.Errorf("xquery: bad variable %q", varTok)
	}
	varName := varTok[1:]
	table, binding, err := parseSource(strings.TrimSpace(forClause[inIdx+2:]))
	if err != nil {
		return nil, err
	}
	st := &Statement{Kind: Query, Raw: input, Table: table, Var: varName, Binding: binding}

	if whereIdx >= 0 {
		whereClause := strings.TrimSpace(input[whereIdx+5 : retIdx])
		conds, err := parseWhere(whereClause, varName)
		if err != nil {
			return nil, err
		}
		st.Where = conds
	}

	retClause := strings.TrimSpace(input[retIdx+6:])
	st.Returns = extractVarPaths(retClause, varName)
	return st, nil
}

// findKeyword locates a keyword that stands alone (preceded and followed
// by whitespace or string start/end), so that element names containing
// "where" etc. are not misparsed.
func findKeyword(s, kw string) int {
	from := 0
	for {
		i := strings.Index(s[from:], kw)
		if i < 0 {
			return -1
		}
		i += from
		beforeOK := i == 0 || s[i-1] == ' ' || s[i-1] == '\n' || s[i-1] == '\t' || s[i-1] == '\r'
		j := i + len(kw)
		afterOK := j >= len(s) || s[j] == ' ' || s[j] == '\n' || s[j] == '\t' || s[j] == '\r'
		if beforeOK && afterOK {
			return i
		}
		from = i + len(kw)
	}
}

func parseWhere(clause, varName string) ([]Cond, error) {
	parts := splitAnd(clause)
	conds := make([]Cond, 0, len(parts))
	for _, part := range parts {
		c, err := parseCond(strings.TrimSpace(part), varName)
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
	}
	return conds, nil
}

// splitAnd splits on the standalone keyword "and" outside quotes.
func splitAnd(s string) []string {
	var parts []string
	depth := 0
	var quote byte
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case 'a':
			if depth == 0 && i+3 <= len(s) && s[i:i+3] == "and" &&
				(i == 0 || s[i-1] == ' ') && (i+3 == len(s) || s[i+3] == ' ') {
				parts = append(parts, s[last:i])
				last = i + 3
				i += 2
			}
		}
	}
	parts = append(parts, s[last:])
	return parts
}

func parseCond(part, varName string) (Cond, error) {
	prefix := "$" + varName
	if !strings.HasPrefix(part, prefix) {
		return Cond{}, fmt.Errorf("xquery: condition %q must start with $%s", part, varName)
	}
	rest := strings.TrimSpace(part[len(prefix):])
	if !strings.HasPrefix(rest, "/") {
		return Cond{}, fmt.Errorf("xquery: condition %q must navigate from $%s", part, varName)
	}
	// Find the comparison operator at depth 0.
	opIdx, opLen, op := -1, 0, xpath.OpNone
	depth := 0
	var quote byte
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '[':
			depth++
		case ']':
			depth--
		case '!', '<', '>', '=':
			if depth != 0 {
				continue
			}
			switch {
			case strings.HasPrefix(rest[i:], "!="):
				opIdx, opLen, op = i, 2, xpath.OpNe
			case strings.HasPrefix(rest[i:], "<="):
				opIdx, opLen, op = i, 2, xpath.OpLe
			case strings.HasPrefix(rest[i:], ">="):
				opIdx, opLen, op = i, 2, xpath.OpGe
			case c == '=':
				opIdx, opLen, op = i, 1, xpath.OpEq
			case c == '<':
				opIdx, opLen, op = i, 1, xpath.OpLt
			case c == '>':
				opIdx, opLen, op = i, 1, xpath.OpGt
			}
		}
		if opIdx >= 0 {
			break
		}
	}
	if opIdx < 0 {
		// Existence condition.
		rel, err := parseRelFromSlash(rest)
		if err != nil {
			return Cond{}, err
		}
		return Cond{Rel: rel, Op: xpath.OpNone}, nil
	}
	rel, err := parseRelFromSlash(strings.TrimSpace(rest[:opIdx]))
	if err != nil {
		return Cond{}, err
	}
	lit, err := parseLiteral(strings.TrimSpace(rest[opIdx+opLen:]))
	if err != nil {
		return Cond{}, err
	}
	return Cond{Rel: rel, Op: op, Lit: lit}, nil
}

// parseRelFromSlash parses "/Symbol" or "//a/b" as a relative path (the
// leading separator is relative to the bound variable).
func parseRelFromSlash(s string) (xpath.Path, error) {
	var text string
	if strings.HasPrefix(s, "//") {
		text = "." + s
	} else if strings.HasPrefix(s, "/") {
		text = s[1:]
	} else {
		text = s
	}
	p, err := xpath.Parse(text)
	if err != nil {
		return xpath.Path{}, err
	}
	p.Relative = true
	return p, nil
}

func parseLiteral(s string) (xpath.Value, error) {
	if s == "" {
		return xpath.Value{}, fmt.Errorf("xquery: empty literal")
	}
	if s[0] == '"' || s[0] == '\'' {
		if len(s) < 2 || s[len(s)-1] != s[0] {
			return xpath.Value{}, fmt.Errorf("xquery: unterminated literal %q", s)
		}
		return xpath.StringValue(s[1 : len(s)-1]), nil
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
		return xpath.Value{}, fmt.Errorf("xquery: bad literal %q", s)
	}
	return xpath.NumberValue(f), nil
}

// extractVarPaths scans a return clause for $var and $var/path tokens,
// returning the relative paths (an empty relative path for bare $var).
func extractVarPaths(clause, varName string) []xpath.Path {
	var out []xpath.Path
	prefix := "$" + varName
	for i := 0; i+len(prefix) <= len(clause); {
		j := strings.Index(clause[i:], prefix)
		if j < 0 {
			break
		}
		i += j + len(prefix)
		// A path continuation?
		if i < len(clause) && clause[i] == '/' {
			start := i + 1
			end := start
			for end < len(clause) && isPathChar(clause[end]) {
				end++
			}
			if p, err := xpath.Parse(clause[start:end]); err == nil {
				p.Relative = true
				out = append(out, p)
				i = end
				continue
			}
		}
		out = append(out, xpath.Path{Relative: true})
	}
	return out
}

func isPathChar(c byte) bool {
	return c == '/' || c == '*' || c == '@' || c == '_' || c == '-' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func parseInsert(input string) (*Statement, error) {
	const kw = "insert into "
	rest := strings.TrimSpace(input[len(kw):])
	valIdx := findKeyword(strings.ToLower(rest), "value")
	if valIdx < 0 {
		return nil, fmt.Errorf("xquery: insert missing 'value' in %q", input)
	}
	table := strings.TrimSpace(rest[:valIdx])
	xmlText := strings.TrimSpace(rest[valIdx+5:])
	doc, err := xmltree.ParseString(xmlText)
	if err != nil {
		return nil, fmt.Errorf("xquery: insert document: %w", err)
	}
	return &Statement{Kind: Insert, Raw: input, Table: table, Doc: doc}, nil
}

func parseDelete(input string) (*Statement, error) {
	const kw = "delete from "
	rest := strings.TrimSpace(input[len(kw):])
	whereIdx := findKeyword(strings.ToLower(rest), "where")
	if whereIdx < 0 {
		return nil, fmt.Errorf("xquery: delete missing 'where' in %q", input)
	}
	table := strings.TrimSpace(rest[:whereIdx])
	match, err := xpath.Parse(strings.TrimSpace(rest[whereIdx+5:]))
	if err != nil {
		return nil, err
	}
	if match.Relative {
		return nil, fmt.Errorf("xquery: delete predicate must be absolute in %q", input)
	}
	return &Statement{Kind: Delete, Raw: input, Table: table, Match: match}, nil
}

func parseUpdate(input string) (*Statement, error) {
	const kw = "update "
	rest := strings.TrimSpace(input[len(kw):])
	lower := strings.ToLower(rest)
	setIdx := findKeyword(lower, "set")
	whereIdx := findKeyword(lower, "where")
	if setIdx < 0 || whereIdx < 0 || whereIdx < setIdx {
		return nil, fmt.Errorf("xquery: update needs 'set ... where ...' in %q", input)
	}
	table := strings.TrimSpace(rest[:setIdx])
	setClause := strings.TrimSpace(rest[setIdx+3 : whereIdx])
	eq := strings.Index(setClause, "=")
	if eq < 0 {
		return nil, fmt.Errorf("xquery: update set clause missing '=' in %q", input)
	}
	setPath, err := xpath.Parse(strings.TrimSpace(setClause[:eq]))
	if err != nil {
		return nil, err
	}
	setPath.Relative = true
	lit, err := parseLiteral(strings.TrimSpace(setClause[eq+1:]))
	if err != nil {
		return nil, err
	}
	match, err := xpath.Parse(strings.TrimSpace(rest[whereIdx+5:]))
	if err != nil {
		return nil, err
	}
	if match.Relative {
		return nil, fmt.Errorf("xquery: update predicate must be absolute in %q", input)
	}
	return &Statement{
		Kind: Update, Raw: input, Table: table,
		Match: match, SetPath: setPath, SetValue: lit,
	}, nil
}
