package relation

import (
	"container/heap"
	"sort"
)

// TopN consumes the input and returns the first n tuples of its stable
// ascending sort by the given columns, holding at most n tuples in memory (a
// bounded replacement heap). The result is exactly SortBy(cols) followed by a
// prefix of length n: ties keep their encounter order, so a LIMIT fused into
// an ORDER BY produces the same tuples as sort-then-slice.
func TopN(in Iterator, cols []int, n int) []Tuple {
	if n <= 0 {
		for {
			if _, ok := in.Next(); !ok {
				break
			}
		}
		return nil
	}
	h := &topNHeap{cols: cols}
	seq := 0
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		it := topNItem{t: t, seq: seq}
		seq++
		if h.Len() < n {
			heap.Push(h, it)
			continue
		}
		// Replace the current worst kept tuple when the new one sorts before
		// it; equal keys lose (the earlier tuple wins a tie).
		if topNBefore(it, h.items[0], cols) {
			h.items[0] = it
			heap.Fix(h, 0)
		}
	}
	sort.Slice(h.items, func(i, j int) bool { return topNBefore(h.items[i], h.items[j], cols) })
	out := make([]Tuple, len(h.items))
	for i, it := range h.items {
		out[i] = it.t
	}
	return out
}

type topNItem struct {
	t   Tuple
	seq int
}

// topNBefore reports whether a precedes b in the stable ascending order by
// cols (column comparison first, encounter order breaking ties).
func topNBefore(a, b topNItem, cols []int) bool {
	if d := compareOn(a.t, b.t, cols); d != 0 {
		return d < 0
	}
	return a.seq < b.seq
}

// topNHeap is a max-heap on the stable order: the root is the worst kept
// tuple, the one a better newcomer evicts.
type topNHeap struct {
	items []topNItem
	cols  []int
}

func (h *topNHeap) Len() int           { return len(h.items) }
func (h *topNHeap) Less(i, j int) bool { return topNBefore(h.items[j], h.items[i], h.cols) }
func (h *topNHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topNHeap) Push(x any)         { h.items = append(h.items, x.(topNItem)) }
func (h *topNHeap) Pop() any {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}
