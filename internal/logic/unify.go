package logic

// MatchOneWay extends the raw mapping m so that pattern maps onto target,
// binding only variables of the pattern. Constants in the pattern must match
// the target exactly; target variables never get bound. This is the
// "unification in a single direction" of the paper's subsumption step
// (Section 5.3.2): a constant in the query matches the same constant or a
// variable in the cache element, but a query variable matches only a
// variable.
//
// The result is a plain mapping, deliberately not a Subst: pattern and
// target may share variable names (a cache element and a query often both
// use X), and walking bindings across the two namespaces would conflate
// them. Apply the mapping positionally, without chaining.
func MatchOneWay(pattern, target Atom, m map[string]Term) (map[string]Term, bool) {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return nil, false
	}
	out := make(map[string]Term, len(m)+len(pattern.Args))
	for k, v := range m {
		out[k] = v
	}
	for i := range pattern.Args {
		p := pattern.Args[i]
		tg := target.Args[i]
		switch {
		case p.IsVar():
			if prev, ok := out[p.Var]; ok {
				if !prev.Equal(tg) {
					return nil, false // pattern equates terms the target does not
				}
				continue
			}
			out[p.Var] = tg
		case tg.IsConst():
			if !p.Const.Equal(tg.Const) {
				return nil, false
			}
		default:
			// pattern has a constant where target has a variable: the
			// pattern (cache element) is more restricted.
			return nil, false
		}
	}
	return out, true
}
