package relation

import (
	"fmt"
)

// CmpOp is a comparison operator used in selection conditions.
type CmpOp uint8

// Comparison operators. OpEq/OpNe apply to all kinds; the orderings apply to
// any kinds under Value.Compare's total order.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the CAQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Flip returns the operator with its operands swapped (e.g. a<b iff b>a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Eval applies the operator to two values.
func (op CmpOp) Eval(a, b Value) bool {
	switch op {
	case OpEq:
		return a.Equal(b)
	case OpNe:
		return !a.Equal(b)
	}
	c := a.Compare(b)
	switch op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// LookupCmpOp maps a comparison operator token to its CmpOp; ok is false for
// anything else. It allocates nothing, so callers that only ask "is this a
// comparison?" (logic.Atom.IsComparison, per atom) pay no error value.
func LookupCmpOp(s string) (op CmpOp, ok bool) {
	switch s {
	case "=", "==":
		return OpEq, true
	case "!=", "<>", "\\=":
		return OpNe, true
	case "<":
		return OpLt, true
	case "<=", "=<":
		return OpLe, true
	case ">":
		return OpGt, true
	case ">=":
		return OpGe, true
	default:
		return 0, false
	}
}

// ParseCmpOp parses a comparison operator token.
func ParseCmpOp(s string) (CmpOp, error) {
	op, ok := LookupCmpOp(s)
	if !ok {
		return 0, fmt.Errorf("relation: unknown comparison operator %q", s)
	}
	return op, nil
}

// Cond is a selection condition on a single tuple: either column-vs-constant
// (Right < 0) or column-vs-column (Right >= 0).
type Cond struct {
	Left  int   // column index
	Op    CmpOp //
	Right int   // column index, or -1 when comparing against Const
	Const Value // constant operand when Right < 0
}

// ColConst builds a column-vs-constant condition.
func ColConst(col int, op CmpOp, c Value) Cond {
	return Cond{Left: col, Op: op, Right: -1, Const: c}
}

// ColCol builds a column-vs-column condition.
func ColCol(l int, op CmpOp, r int) Cond {
	return Cond{Left: l, Op: op, Right: r}
}

// Eval applies the condition to a tuple.
func (c Cond) Eval(t Tuple) bool {
	if c.Right < 0 {
		return c.Op.Eval(t[c.Left], c.Const)
	}
	return c.Op.Eval(t[c.Left], t[c.Right])
}

// String renders the condition against the given schema (nil schema uses
// positional $i names).
func (c Cond) String(s *Schema) string {
	name := func(i int) string {
		if s != nil && i < s.Arity() {
			return s.Attr(i).Name
		}
		return fmt.Sprintf("$%d", i)
	}
	if c.Right < 0 {
		return fmt.Sprintf("%s %s %s", name(c.Left), c.Op, c.Const)
	}
	return fmt.Sprintf("%s %s %s", name(c.Left), c.Op, name(c.Right))
}

// EvalAll reports whether the tuple satisfies every condition.
func EvalAll(conds []Cond, t Tuple) bool {
	for _, c := range conds {
		if !c.Eval(t) {
			return false
		}
	}
	return true
}
