package logic

import (
	"fmt"
	"strings"
)

// Second-order assertions (SOAs), Section 4 of the paper: in addition to
// first-order rules, the knowledge base contains limited second-order
// knowledge used for problem-graph culling and constraint.

// MutexSOA asserts that predicates P and Q are mutually exclusive: no
// argument tuple satisfies both. The shaper prunes OR branches guarded by a
// predicate mutually exclusive with one already established, and the path
// expression creator emits selection terms (at most one alternative fires).
type MutexSOA struct {
	P, Q PredRef
}

// String renders the SOA as a directive body.
func (m MutexSOA) String() string { return fmt.Sprintf("mutex(%s, %s)", m.P, m.Q) }

// FDSOA asserts a functional dependency on a predicate: the argument
// positions From (0-based) functionally determine the positions To. The
// shaper uses FDs to derive producer/consumer relationships and tighter
// cardinality estimates (a bound From-set yields at most one To-set value).
type FDSOA struct {
	Pred PredRef
	From []int
	To   []int
}

// String renders the SOA as "fd(pred/arity, [i,...] -> [j,...])" with
// 1-based positions (surface syntax).
func (f FDSOA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fd(%s, [", f.Pred)
	for i, c := range f.From {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c+1)
	}
	b.WriteString("] -> [")
	for i, c := range f.To {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c+1)
	}
	b.WriteString("])")
	return b.String()
}
