package ie

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"

	"repro/internal/logic"
	"repro/internal/relation"
)

// Linear tabling (Zhou, Sato and Shen, TPLP 2008; SLG resolution is the
// reference semantics) for the SLD strategies. Every call to a derived
// predicate, the goal's own included, has an answer table, one per variant
// of the call, which the search's choices read in order:
//
//   - a call whose table is complete reads it;
//   - a call that is a variant of an open ancestor, a pioneer, follows it:
//     it reads the pioneer's table while the table grows, and fails at its
//     end;
//   - a call whose table was pioneered, in the current round, no earlier
//     than one of the call's ancestors started follows the nearest such
//     ancestor the same way (runner.call);
//   - any other call is a pioneer. It first reads what its table holds, then
//     runs its clauses: an answer they reach goes into the table, and to the
//     caller at once when it is new (a duplicate fails).
//
// The pioneers' tables wait on a stack, in the order they started, until
// their SCC completes. A follower marks the stack's newest entry with the
// ancestor it follows, always a pioneer on the caller's own ancestor chain,
// so that a pioneer whose clauses are spent is its SCC's leader exactly when
// nothing from its entry up followed an older pioneer, and then every call
// that read one of the SCC's tables ran inside the leader's clauses. A leader
// re-runs its clauses, as a new round, while a follower in its SCC stopped
// before its table's last answer; otherwise every table from its entry up is
// complete. A new round reads only what is new, as semi-naive evaluation does
// (the Δ rule): a table none of whose reads can still grow completes, the
// others run again without their clauses that call nothing, and a clause's
// only call reads on from its table's mark, the last answer every read of the
// table reached in the round before. Everything runs on the search's one
// choice stack, and a runner's tables live for one ask: an answer each call
// reached is held until the ask closes, which empties the tables and keeps
// their storage. So a call answers a set, and a variant that repeats within
// an ask reads its table instead of running its clauses again. A base goal
// has no call, and its answers go through table 0 (runner.next), so that it
// answers a set too.

// noStop is a table's stop when no follower has stopped on it this round.
const noStop = math.MaxInt32

// tables are an ask's answer tables, found by variant key through an
// open-addressing index. Every table's answers share one record array and
// one value arena, in the order they were found, each linked to its table's
// next, with an open-addressing set over them, so that the storage a runner
// keeps is a few arrays however the answers fall into tables.
type tables struct {
	tabs   []table
	keys   []byte           // the tables' variant keys, one after another
	index  []int32          // a table's number plus one, by key hash; 0 is empty
	recs   []answerRec      // every table's answers, in the order found
	vals   []relation.Value // their values, arity each
	proofs []*Proof         // their proofs, when the engine explains
	set    []int32          // an answer's record plus one, by tuple hash; 0 is empty
	scc    []sccEntry       // pioneers whose SCC is not complete, oldest first
	reads  []read           // the reads of incomplete tables in the open rounds
	rounds int32            // the rounds settle has started again, numbering them from 1
}

// table is one variant of a call: its answers are the records from first
// to last along their next links (-1: none). stop is the lowest of the
// last records the followers that stopped in the current round had read
// (-1: one read none), and sp the table's newest entry on the SCC stack
// (-1: none). marked is the round settle last marked the table for (0:
// none), and mark the last record every read of the table reached in the
// round before it. dirty is settle's scratch.
type table struct {
	key                   [2]int32 // in tables.keys
	arity                 int32
	first, last, stop, sp int32
	mark, marked          int32
	complete, dirty       bool
}

// read is a call, in a clause of the pioneer of table from, of table to.
// at is the last record of to it read when it stopped as a follower
// (noStop: a pioneer, which read them all).
type read struct{ from, to, at int32 }

// answerRec is an answer of table tab: its values are vals[val:val+arity],
// and next is its table's next answer (-1: none yet).
type answerRec struct{ tab, val, next int32 }

// sccEntry is a pioneer's table and the oldest entry any follower since the
// pioneer started has followed.
type sccEntry struct{ tab, low int32 }

// keySeed hashes variant keys for the index.
var keySeed = maphash.MakeSeed()

// find returns the table whose variant key was appended to keys at start:
// an old table, whose key is cut off again, or a new one, with arity values
// an answer, which keeps it.
func (ts *tables) find(start, arity int) int32 {
	k := ts.keys[start:]
	mask := uint64(len(ts.index) - 1)
	if len(ts.index) > 0 {
		for i := maphash.Bytes(keySeed, k) & mask; ts.index[i] != 0; i = (i + 1) & mask {
			if t := &ts.tabs[ts.index[i]-1]; bytes.Equal(ts.keys[t.key[0]:t.key[1]], k) {
				ts.keys = ts.keys[:start]
				return ts.index[i] - 1
			}
		}
	}
	id := int32(len(ts.tabs))
	ts.tabs = append(ts.tabs, table{key: [2]int32{int32(start), int32(len(ts.keys))}, arity: int32(arity),
		first: -1, last: -1, stop: noStop, sp: -1})
	if 2*len(ts.tabs) > len(ts.index) {
		ts.index = make([]int32, max(16, 2*len(ts.index)))
		for j := range ts.tabs {
			ts.indexTable(int32(j))
		}
	} else {
		ts.indexTable(id)
	}
	return id
}

// indexTable puts table id in the index.
func (ts *tables) indexTable(id int32) {
	t := &ts.tabs[id]
	mask := uint64(len(ts.index) - 1)
	i := maphash.Bytes(keySeed, ts.keys[t.key[0]:t.key[1]]) & mask
	for ts.index[i] != 0 {
		i = (i + 1) & mask
	}
	ts.index[i] = id + 1
}

// answer is record rec's values.
func (ts *tables) answer(rec int32) []relation.Value {
	a := &ts.recs[rec]
	return ts.vals[a.val : a.val+ts.tabs[a.tab].arity]
}

// after is the answer of table t after record rec (-1: before its first).
func (ts *tables) after(t *table, rec int32) int32 {
	if rec < 0 {
		return t.first
	}
	return ts.recs[rec].next
}

// add records the call a in the frame at base, once its clause has
// succeeded, as an answer of table id, with its proof p (nil unless the
// engine explains), and reports whether the answer is new.
func (ts *tables) add(id int32, b *logic.Bindings, a *logic.NumAtom, base int, p *Proof) (bool, error) {
	at := len(ts.vals)
	for i, n := range a.Nums {
		v := a.Args[i].Const
		if n >= 0 {
			var ok bool
			if _, v, ok = b.Resolve(base + int(n)); !ok {
				ts.vals = ts.vals[:at]
				return false, fmt.Errorf("ie: answer %s of a call is not ground", a.Atom)
			}
		}
		ts.vals = append(ts.vals, v)
	}
	tu := relation.Tuple(ts.vals[at:])
	if 2*(len(ts.recs)+1) > len(ts.set) {
		ts.growSet()
	}
	mask := uint64(len(ts.set) - 1)
	i := hashAnswer(id, tu) & mask
	for ; ts.set[i] != 0; i = (i + 1) & mask {
		if rec := ts.set[i] - 1; ts.recs[rec].tab == id && tu.Equal(ts.answer(rec)) {
			ts.vals = ts.vals[:at]
			return false, nil
		}
	}
	rec := int32(len(ts.recs))
	ts.set[i] = rec + 1
	ts.recs = append(ts.recs, answerRec{tab: id, val: int32(at), next: -1})
	if p != nil {
		ts.proofs = append(ts.proofs, p)
	}
	t := &ts.tabs[id]
	if t.last < 0 {
		t.first = rec
	} else {
		ts.recs[t.last].next = rec
	}
	t.last = rec
	return true, nil
}

// growSet doubles the answer set and puts every answer back in it.
func (ts *tables) growSet() {
	ts.set = make([]int32, max(64, 2*len(ts.set)))
	mask := uint64(len(ts.set) - 1)
	for rec := range ts.recs {
		i := hashAnswer(ts.recs[rec].tab, ts.answer(int32(rec))) & mask
		for ts.set[i] != 0 {
			i = (i + 1) & mask
		}
		ts.set[i] = int32(rec) + 1
	}
}

// hashAnswer hashes an answer of table id.
func hashAnswer(id int32, tu relation.Tuple) uint64 {
	h := tu.Hash64() ^ uint64(id)*0x9e3779b97f4a7c15
	return h ^ h>>29
}

// settle is the turn of pioneer c once it has read its table and its
// clauses are spent, and reports whether its clauses run again. It is the
// leader of its SCC when no entry from its own up followed an older one's
// table; a pioneer that is not keeps its entry for its leader, and the reads
// made since c started. A leader re-runs its clauses, as a new round, while
// a follower in its SCC stopped before its table's last answer, and
// otherwise completes every table from its entry up. In a new round, only
// the tables that are dirty run their clauses again: the leader's, those
// with a read that stopped before its table's last answer, and those that
// read a dirty table. The others have every answer, and complete. Every
// table of the SCC is marked with what its reads reached this round.
func (ts *tables) settle(c *choice) bool {
	group := ts.scc[c.scc:]
	rerun := false
	for _, e := range group {
		if e.low < c.scc {
			return false
		}
		if t := &ts.tabs[e.tab]; t.stop < t.last {
			rerun = true
		}
	}
	reads := ts.reads[c.reads:]
	ts.reads = ts.reads[:c.reads]
	if rerun {
		// A read from outside the SCC, made while c ran, is of a table that
		// completed since.
		ts.tabs[c.tab].dirty = true
		for grew := true; grew; {
			grew = false
			for _, rd := range reads {
				from, to := &ts.tabs[rd.from], &ts.tabs[rd.to]
				if !from.dirty && from.sp >= c.scc && (rd.at < to.last || to.dirty) {
					from.dirty, grew = true, true
				}
			}
		}
		ts.rounds++
		for _, e := range group {
			t := &ts.tabs[e.tab]
			t.stop, t.mark, t.marked = noStop, min(t.stop, t.last), ts.rounds
			t.complete, t.dirty = !t.dirty, false
		}
		ts.cut(c.scc + 1)
		c.clauses = c.pc.clauses
		return true
	}
	for _, e := range group {
		ts.tabs[e.tab].complete = true
	}
	ts.cut(c.scc)
	return false
}

// fresh reports whether round is the latest round settle started again: a
// table marked in it has a mark every read of the previous round reached,
// and a pioneer that ran in it has run all its clauses in that round.
func (ts *tables) fresh(round int32) bool { return round > 0 && round == ts.rounds }

// cut takes the SCC stack's entries from n up off it.
func (ts *tables) cut(n int32) {
	for i := n; i < int32(len(ts.scc)); i++ {
		if t := &ts.tabs[ts.scc[i].tab]; t.sp == i {
			t.sp = -1
		}
	}
	ts.scc = ts.scc[:n]
}

// reset empties the tables for the next ask, keeping their storage: the
// values and proofs of this ask are cleared, so a kept runner holds none.
func (ts *tables) reset() {
	if len(ts.tabs) == 0 {
		return
	}
	clear(ts.vals)
	clear(ts.proofs)
	clear(ts.index)
	clear(ts.set)
	ts.tabs, ts.keys, ts.recs, ts.vals, ts.proofs, ts.scc = ts.tabs[:0], ts.keys[:0], ts.recs[:0], ts.vals[:0], ts.proofs[:0], ts.scc[:0]
	ts.reads, ts.rounds = ts.reads[:0], 0
}
