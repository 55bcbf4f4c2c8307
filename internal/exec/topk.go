package exec

import (
	"cmp"
	"sort"

	"github.com/sgb-db/sgb/internal/types"
)

// TopK emits the N first rows of its input under the ORDER BY keys —
// row for row what Limit{Sort{Input, Keys}, N} returns, stable tie
// order included — while holding at most N rows: a row that does not
// beat the worst one kept is compared once and dropped. The planner
// emits it for every ORDER BY … LIMIT.
type TopK struct {
	Input Operator
	Keys  []SortKey
	N     int64
	rows  []types.Row
	pos   int
}

// Open drains the input through the heap and orders the survivors.
func (t *TopK) Open() error {
	t.pos = 0
	t.rows = nil
	if err := t.Input.Open(); err != nil {
		return err
	}
	defer t.Input.Close()
	desc := make([]bool, len(t.Keys))
	for j, k := range t.Keys {
		desc[j] = k.Desc
	}
	h := newTopHeap(desc, t.N)
	var kept []types.Row // by heap slot
	for seq := 0; ; seq++ {
		row, err := t.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		for j, k := range t.Keys {
			if h.cand[j], err = k.Expr(row); err != nil {
				return err
			}
		}
		switch slot, err := h.offer(seq); {
		case err != nil:
			return err
		case slot == len(kept):
			kept = append(kept, row)
		case slot >= 0:
			kept[slot] = row
		}
	}
	order := h.sorted()
	t.rows = make([]types.Row, len(order))
	for i, slot := range order {
		t.rows[i] = kept[slot]
	}
	return nil
}

// Next emits the kept rows in key order.
func (t *TopK) Next() (types.Row, error) {
	if t.pos >= len(t.rows) {
		return nil, nil
	}
	row := t.rows[t.pos]
	t.pos++
	return row, nil
}

// Close releases the kept rows.
func (t *TopK) Close() error { t.rows = nil; return nil }

// Top is an ORDER BY … LIMIT pushed down to a node that can rank its
// output by columns it already holds: Cols are key columns of the
// node's output row, most significant first, Desc their directions and
// N the limit. The contract is a superset in input order: the node
// emits, in the order it would have emitted them anyway, rows that
// include the N first under (keys…, position); the TopK the planner
// keeps above does the ordering, so a node may ignore the hint.
type Top struct {
	Cols []int
	Desc []bool
	N    int64
}

// keyKinds makes the comparability of an ORDER BY key column a property
// of the column rather than of the pairs an algorithm happens to
// compare: it remembers the kind of each key's first non-NULL value and
// refuses a later value types.Compare could not order against it.
type keyKinds []types.Kind

// admit checks one row's key values.
func (kk keyKinds) admit(vals []types.Value) error {
	for j, v := range vals {
		switch first := kk[j]; {
		case v.Kind == types.KindNull:
		case first == types.KindNull:
			kk[j] = v.Kind
		case v.Kind != first || first == types.KindInterval:
			if _, err := types.Compare(types.Value{Kind: first}, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// topHeap keeps the limit first entries of a stream under the order
// (keys…, arrival number): a binary max-heap of slot ids whose root is
// the worst entry kept. An entry's key values sit in one shared buffer,
// len(desc) per slot, and never move — sifting swaps slot ids only —
// so the caller can keep a payload per slot. The heap grows as entries
// arrive; a huge limit costs nothing up front.
type topHeap struct {
	desc  []bool
	limit int64
	kinds keyKinds
	cand  []types.Value // the caller fills in the next entry's keys here
	keys  []types.Value // slot s holds keys[s*len(desc):][:len(desc)]
	seq   []int         // slot s's arrival number
	heap  []int
}

func newTopHeap(desc []bool, limit int64) *topHeap {
	return &topHeap{desc: desc, limit: limit,
		kinds: make(keyKinds, len(desc)), cand: make([]types.Value, len(desc))}
}

// offer considers the entry whose keys are in h.cand; seq must exceed
// every earlier arrival number. It returns the slot the entry now
// occupies — a new one (the number of slots so far) or the evicted
// root's — or -1 when the entry is not among the limit first.
func (h *topHeap) offer(seq int) (int, error) {
	if err := h.kinds.admit(h.cand); err != nil {
		return -1, err
	}
	if int64(len(h.heap)) < h.limit {
		slot := len(h.seq)
		h.keys = append(h.keys, h.cand...)
		h.seq = append(h.seq, seq)
		h.heap = append(h.heap, slot)
		h.siftUp(len(h.heap) - 1)
		return slot, nil
	}
	if h.limit <= 0 {
		return -1, nil
	}
	root := h.heap[0]
	if !h.before(h.cand, h.slotKeys(root), seq, h.seq[root]) {
		return -1, nil
	}
	copy(h.slotKeys(root), h.cand)
	h.seq[root] = seq
	h.siftDown(0, len(h.heap))
	return root, nil
}

func (h *topHeap) slotKeys(slot int) []types.Value {
	nk := len(h.desc)
	return h.keys[slot*nk:][:nk]
}

// before reports whether entry a sorts ahead of entry b. admit has
// established that every pair of values in a key column is comparable.
//
//sgb:allocfree
func (h *topHeap) before(ka, kb []types.Value, sa, sb int) bool {
	for j, desc := range h.desc {
		if c := orderKeys(&ka[j], &kb[j]); c != 0 {
			return (c < 0) != desc
		}
	}
	return sa < sb
}

// orderKeys is types.Compare for two comparable values, with the INT and
// FLOAT pairs that aggregate keys are made of compared in place: boxed
// Compare was 27 % of a hinted statement (docs/pr19-topk.md).
//
//sgb:allocfree
func orderKeys(a, b *types.Value) int {
	switch {
	case a.Kind == types.KindFloat && b.Kind == types.KindFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case a.Kind == types.KindInt && b.Kind == types.KindInt:
		return cmp.Compare(a.I, b.I)
	case a.Kind == types.KindInt && b.Kind == types.KindFloat:
		return types.CompareIntFloat(a.I, b.F)
	case a.Kind == types.KindFloat && b.Kind == types.KindInt:
		return -types.CompareIntFloat(b.I, a.F)
	}
	c, _ := types.Compare(*a, *b)
	return c
}

// siftUp restores the heap after heap[i] was appended.
//
//sgb:allocfree
func (h *topHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		a, b := h.heap[parent], h.heap[i]
		if !h.before(h.slotKeys(a), h.slotKeys(b), h.seq[a], h.seq[b]) {
			return
		}
		h.heap[parent], h.heap[i] = b, a
		i = parent
	}
}

// siftDown restores heap[:n] after heap[i] was replaced.
//
//sgb:allocfree
func (h *topHeap) siftDown(i, n int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			a, b := h.heap[worst], h.heap[c]
			if h.before(h.slotKeys(a), h.slotKeys(b), h.seq[a], h.seq[b]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.heap[i], h.heap[worst] = h.heap[worst], h.heap[i]
		i = worst
	}
}

// sorted returns the kept slots in key order. It ends the heap's use:
// no offer may follow.
func (h *topHeap) sorted() []int {
	for n := len(h.heap) - 1; n > 0; n-- {
		h.heap[0], h.heap[n] = h.heap[n], h.heap[0]
		h.siftDown(0, n)
	}
	return h.heap
}

// arrivals returns the kept entries' arrival numbers, ascending. It
// ends the heap's use: no offer may follow.
func (h *topHeap) arrivals() []int {
	sort.Ints(h.seq)
	return h.seq
}
