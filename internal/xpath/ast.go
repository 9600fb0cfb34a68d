// Package xpath implements the linear XPath dialect used by the index
// advisor and its optimizer: absolute and relative location paths built
// from child (/) and descendant (//) axes, name tests (including the *
// wildcard and @attribute tests), and value predicates.
//
// Index patterns — the objects the advisor recommends — are linear paths
// without predicates (paper §III). Workload queries may carry predicates
// at arbitrary locations.
package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is a navigation axis of a path step.
type Axis uint8

const (
	// Child is the '/' axis.
	Child Axis = iota
	// Descendant is the '//' axis (proper descendants).
	Descendant
)

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// CmpOp is a comparison operator of a value predicate.
type CmpOp uint8

const (
	// OpNone marks an existence predicate: [path].
	OpNone CmpOp = iota
	// OpEq is '='.
	OpEq
	// OpNe is '!='.
	OpNe
	// OpLt is '<'.
	OpLt
	// OpLe is '<='.
	OpLe
	// OpGt is '>'.
	OpGt
	// OpGe is '>='.
	OpGe
)

var opNames = map[CmpOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// String returns the operator spelling; empty for OpNone.
func (o CmpOp) String() string { return opNames[o] }

// Negate returns the complementary operator (e.g. < becomes >=).
func (o CmpOp) Negate() CmpOp {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		return OpNone
	}
}

// ValueKind is the type of a predicate literal and, by extension, the
// data type of an index (paper Table I: string vs numerical).
type ValueKind uint8

const (
	// StringVal is a string literal / string-typed index.
	StringVal ValueKind = iota
	// NumberVal is a numeric literal / double-typed index.
	NumberVal
)

// String names the kind the way Table I of the paper does.
func (k ValueKind) String() string {
	if k == NumberVal {
		return "numerical"
	}
	return "string"
}

// Value is a typed literal.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
}

// StringValue returns a string-typed literal.
func StringValue(s string) Value { return Value{Kind: StringVal, Str: s} }

// NumberValue returns a double-typed literal.
func NumberValue(f float64) Value { return Value{Kind: NumberVal, Num: f} }

// String renders the literal as it would appear in a query.
func (v Value) String() string {
	if v.Kind == NumberVal {
		return strconv.FormatFloat(v.Num, 'f', -1, 64)
	}
	return `"` + v.Str + `"`
}

// Pred is a predicate attached to a path step: an existence test
// [rel] or a value comparison [rel op literal]. The relative path is
// evaluated from the step's context node.
type Pred struct {
	Rel Path
	Op  CmpOp
	Lit Value
}

// String renders the predicate including brackets.
func (p Pred) String() string {
	var sb strings.Builder
	p.writeTo(&sb)
	return sb.String()
}

func (p Pred) writeTo(sb *strings.Builder) {
	sb.WriteByte('[')
	p.Rel.writeTo(sb)
	if p.Op != OpNone {
		sb.WriteString(p.Op.String())
		sb.WriteString(p.Lit.String())
	}
	sb.WriteByte(']')
}

// Step is one location step: an axis, a name test, and any predicates.
// Name tests: "name" (element), "*" (any element), "@name" (attribute),
// "@*" (any attribute).
type Step struct {
	Axis  Axis
	Test  string
	Preds []Pred
}

// IsAttribute reports whether the step's name test selects attributes.
func (s Step) IsAttribute() bool { return strings.HasPrefix(s.Test, "@") }

// IsWildcard reports whether the name test is * or @*.
func (s Step) IsWildcard() bool { return s.Test == "*" || s.Test == "@*" }

// MatchesLabel reports whether the name test accepts a node label.
// Labels are element names or "@name" for attributes.
func (s Step) MatchesLabel(label string) bool {
	attr := strings.HasPrefix(label, "@")
	if s.IsAttribute() != attr {
		return false
	}
	if s.IsWildcard() {
		return true
	}
	return s.Test == label
}

// String renders the step including its axis prefix.
func (s Step) String() string {
	var sb strings.Builder
	sb.WriteString(s.Axis.String())
	s.writeTestTo(&sb)
	return sb.String()
}

// writeTestTo writes the step's name test and predicates.
func (s Step) writeTestTo(sb *strings.Builder) {
	sb.WriteString(s.Test)
	for _, p := range s.Preds {
		p.writeTo(sb)
	}
}

// Path is a location path. Absolute paths (Relative == false) navigate
// from the document node; relative paths navigate from a context node
// and appear only inside predicates and FLWOR bindings.
type Path struct {
	Relative bool
	Steps    []Step
}

// String renders the path in XPath syntax.
func (p Path) String() string {
	var sb strings.Builder
	n := 0
	for _, s := range p.Steps {
		n += len("//") + len(s.Test)
	}
	sb.Grow(n) // exact or nearly so for a linear path: one allocation
	p.writeTo(&sb)
	return sb.String()
}

// writeTo writes the path in XPath syntax, each step straight into sb.
func (p Path) writeTo(sb *strings.Builder) {
	if len(p.Steps) == 0 {
		if p.Relative {
			sb.WriteByte('.')
		} else {
			sb.WriteByte('/')
		}
		return
	}
	for i, s := range p.Steps {
		if i == 0 && p.Relative {
			// A leading child axis is implicit for relative paths.
			if s.Axis == Descendant {
				sb.WriteString(".//")
			}
		} else {
			sb.WriteString(s.Axis.String())
		}
		s.writeTestTo(sb)
	}
}

// IsLinear reports whether the path has no predicates on any step —
// the shape required of an index pattern.
func (p Path) IsLinear() bool {
	for _, s := range p.Steps {
		if len(s.Preds) != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	out := Path{Relative: p.Relative, Steps: make([]Step, len(p.Steps))}
	for i, s := range p.Steps {
		cs := Step{Axis: s.Axis, Test: s.Test}
		if len(s.Preds) > 0 {
			cs.Preds = make([]Pred, len(s.Preds))
			for j, pr := range s.Preds {
				cs.Preds[j] = Pred{Rel: pr.Rel.Clone(), Op: pr.Op, Lit: pr.Lit}
			}
		}
		out.Steps[i] = cs
	}
	return out
}

// StripPreds returns a copy of the path with all predicates removed,
// turning a query path into its linear skeleton.
func (p Path) StripPreds() Path {
	out := Path{Relative: p.Relative, Steps: make([]Step, len(p.Steps))}
	for i, s := range p.Steps {
		out.Steps[i] = Step{Axis: s.Axis, Test: s.Test}
	}
	return out
}

// Concat joins an absolute prefix with a relative suffix: the suffix's
// first step keeps its own axis. It panics if suffix is absolute,
// which indicates a rewrite bug.
func Concat(prefix Path, suffix Path) Path {
	if suffix.Relative == false && len(suffix.Steps) > 0 {
		panic("xpath: Concat: suffix must be relative")
	}
	out := Path{Relative: prefix.Relative}
	out.Steps = append(out.Steps, prefix.Steps...)
	out.Steps = append(out.Steps, suffix.Steps...)
	return out
}

// Equal reports structural equality of two paths, including predicates.
func (p Path) Equal(q Path) bool { return p.String() == q.String() && p.Relative == q.Relative }

// LastStep returns the final step of the path. It panics on empty paths.
func (p Path) LastStep() Step {
	if len(p.Steps) == 0 {
		panic("xpath: LastStep of empty path")
	}
	return p.Steps[len(p.Steps)-1]
}

// Fprintf-style helper for error messages.
func pathErrorf(format string, args ...interface{}) error {
	return fmt.Errorf("xpath: "+format, args...)
}
