// Package experiments implements the reproduction's evaluation suite (see
// DESIGN.md Section 5 and EXPERIMENTS.md): one experiment per directional
// claim of the paper, each producing a table in the style a systems paper
// would report. cmd/braid-bench prints the tables; the package's tests assert
// the parts of each table that repeat (counts, simulated costs, invariants).
// Wall-clock columns are diagnostics of one host: numbers to compare across
// commits come from bench/. Engineering properties the paper does not claim
// (concurrency, stream transport and recovery, durability, parallel
// execution) are asserted by the tests of the packages that own them.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: a title, column headers, and formatted
// rows.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim under test
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Cell formatting helpers.
func fi(v int64) string   { return fmt.Sprintf("%d", v) }
func ff(v float64) string { return fmt.Sprintf("%.1f", v) }
func fp(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// Experiment is one entry of the suite: braid-bench lists, selects and runs
// experiments from Registry, and the tests check it is complete.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
}

// Registry is the whole suite, in order: E1..E11, one entry per claim of the
// paper (DESIGN.md Section 5 indexes them, EXPERIMENTS.md reports them).
var Registry = []Experiment{
	{"E1", "inference strategy along the I-C range", E1ICRange},
	{"E2", "caching strategies on overlapping queries", E2CachingStrategies},
	{"E3", "lazy vs eager evaluation", E3LazyVsEager},
	{"E4", "path-expression prefetching", E4Prefetching},
	{"E5", "query generalization", E5Generalization},
	{"E6", "attribute indexing", E6AttributeIndexing},
	{"E7", "advice-modified replacement", E7Replacement},
	{"E8", "parallel cache/remote subqueries", E8ParallelSubqueries},
	{"E9", "subsumption overhead", E9SubsumptionOverhead},
	{"E10", "feature ablation (Figure 2)", E10FeatureAblation},
	{"E11", "fault tolerance under an unreliable remote", E11FaultTolerance},
}
