// Columnar ORDER BY: an index permutation over typed column vectors instead
// of a generic-comparator sort of materialized rows, plus a bounded heap for
// ORDER BY ... LIMIT k so a 1M-row top-10 never sorts the full result.
//
// Tie-break contract (shared with the row engine, orderAndLimit, and
// exec.ApplyPostAggregation): sorting is STABLE — rows whose ORDER BY keys
// compare equal under value.Compare keep their pre-sort order, which is scan
// order for projections, first-occurrence order for DISTINCT, and group
// first-appearance order for aggregates. The permutation sort reproduces the
// row engine bit for bit because it runs the same sort.SliceStable algorithm
// with a comparator that returns the same answer for every pair; the top-K
// heap reproduces it by totalizing the order with the pre-sort position as
// the final tie-break, which is exactly what a stable sort does when the key
// comparator is a strict weak order. value.Compare is NOT a strict weak
// order when NaN is present (NaN compares equal to everything), so the heap
// path is guarded by a NaN scan and falls back to the full stable sort.
package exec

import (
	"context"
	"math"
	"math/bits"
	"sort"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Output-column source markers (see projectionSources).
const (
	srcWeight   = -1 // the effective per-row weight vector
	srcComputed = -2 // a computed expression: must be evaluated per row
)

// projectionSources resolves the output columns of a projection together
// with each column's source: a schema column index, srcWeight for the WEIGHT
// pseudo-column, or srcComputed for anything that needs per-row evaluation
// (and can therefore raise per-row errors). The names slice is identical to
// projectionColumns.
func projectionSources(snap *table.Snapshot, sel *sql.Select) (names []string, src []int) {
	sc := snap.Schema()
	for _, it := range sel.Items {
		if it.Star {
			for i, n := range sc.Names() {
				names = append(names, n)
				src = append(src, i)
			}
			continue
		}
		names = append(names, it.Name())
		s := srcComputed
		if col, ok := it.Expr.(*expr.Column); ok {
			if j, ok := sc.Index(col.Name); ok {
				s = j
			} else if strings.EqualFold(col.Name, "WEIGHT") {
				s = srcWeight
			}
		}
		src = append(src, s)
	}
	return names, src
}

// vecSortKey is one resolved ORDER BY key over snapshot columns.
type vecSortKey struct {
	desc bool
	src  int
	col  *table.Column // nil for WEIGHT
	w    []float64     // the effective weight vector when src == srcWeight
	rank []int32       // TEXT: dictionary code → collation rank
}

// resolveVecSortKeys maps every ORDER BY item onto a typed column source.
// ok=false means some key is not a plain reference to a column-backed output
// column (a computed output, an expression key, or an unresolvable name) and
// the caller must fall back to the generic materialized sort.
func resolveVecSortKeys(snap *table.Snapshot, sel *sql.Select, outCols []string, src []int, rawW []float64) ([]vecSortKey, bool) {
	keys := make([]vecSortKey, 0, len(sel.OrderBy))
	var ranks []int32 // built once, shared by every TEXT key of this query
	for _, o := range sel.OrderBy {
		col, isCol := o.Expr.(*expr.Column)
		if !isCol {
			return nil, false
		}
		// First output-column match, exactly like orderKey.
		ci := -1
		for i, name := range outCols {
			if strings.EqualFold(name, col.Name) {
				ci = i
				break
			}
		}
		if ci < 0 || src[ci] == srcComputed {
			return nil, false
		}
		k := vecSortKey{desc: o.Desc, src: src[ci]}
		if k.src == srcWeight {
			k.w = rawW
		} else {
			k.col = snap.Col(k.src)
			if k.col.Kind == value.KindText {
				if ranks == nil {
					ranks = textRanks(snap)
				}
				k.rank = ranks
			}
		}
		keys = append(keys, k)
	}
	return keys, true
}

// textRanks builds the dictionary-code → collation-rank table: rank order is
// byte order of the interned strings, matching value.Compare on TEXT.
func textRanks(snap *table.Snapshot) []int32 {
	strs := snap.DictStrings()
	idx := make([]int32, len(strs))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool { return strs[idx[a]] < strs[idx[b]] })
	rank := make([]int32, len(strs))
	for r, code := range idx {
		rank[code] = int32(r)
	}
	return rank
}

// cmp compares rows ri and rj under this key with value.Compare semantics:
// NULL below everything, exact int64, float64 with NaN comparing equal to
// everything, byte-ordered TEXT via the rank table.
func (k *vecSortKey) cmp(ri, rj int32) int {
	if k.src == srcWeight {
		x, y := k.w[ri], k.w[rj]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	}
	c := k.col
	ni, nj := c.Null(int(ri)), c.Null(int(rj))
	if ni || nj {
		switch {
		case ni && nj:
			return 0
		case ni:
			return -1
		default:
			return 1
		}
	}
	switch c.Kind {
	case value.KindInt:
		x, y := c.Ints[ri], c.Ints[rj]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case value.KindFloat:
		x, y := c.Floats[ri], c.Floats[rj]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case value.KindBool:
		return boolCmp(c.Bools[ri], c.Bools[rj])
	default: // TEXT
		x, y := k.rank[c.Codes[ri]], k.rank[c.Codes[rj]]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	}
}

// rowLess is the multi-key "less" over two row ids; its answer equals the
// row engine's comparator over the materialized rows, pair for pair.
func rowLess(keys []vecSortKey, ra, rb int32) bool {
	for kk := range keys {
		c := keys[kk].cmp(ra, rb)
		if c == 0 {
			continue
		}
		if keys[kk].desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// vecKeysLess is rowLess over candidate positions a and b.
func vecKeysLess(keys []vecSortKey, cand []int32, a, b int) bool {
	return rowLess(keys, cand[a], cand[b])
}

// sortCandidates stable-sorts the candidate row ids in place. Running the
// same sort.SliceStable algorithm with a pairwise-identical comparator makes
// the resulting permutation byte-identical to the row engine's sort of the
// materialized rows — including under NaN keys, where value.Compare is not
// a strict weak order and the outcome is algorithm-defined.
//
// With workers and a strict weak order (no NaN keys) the sort runs as a
// parallel stable merge sort instead: under a strict weak order the stably
// sorted permutation is UNIQUE — any stable algorithm produces it — so
// chunk-sorting morsels and merging adjacent runs with left preference
// yields byte-identical output to sort.SliceStable. NaN keys void the
// uniqueness argument (the outcome becomes algorithm-defined), so they take
// the serial path, exactly like the top-K heap guard.
func sortCandidates(ctx context.Context, keys []vecSortKey, cand []int32, workers int) error {
	if err := checkCtx(ctx); err != nil {
		return err
	}
	totalOrder := keysTotalOrder(keys, cand)
	// Multi-key sorts re-run the whole key chain on every comparison; under a
	// strict weak order the chain collapses into one precomputed composite
	// rank word per candidate, shared by every subsequent comparison.
	if totalOrder && len(keys) >= 2 {
		if comp := compositeRanks(keys, cand); comp != nil {
			return sortByComposite(ctx, cand, comp, workers)
		}
	}
	if workers > 1 && len(cand) > morselRows && totalOrder {
		return parallelStableSort(ctx, cand, workers, func(a, b int32) bool { return rowLess(keys, a, b) })
	}
	sort.SliceStable(cand, func(a, b int) bool { return vecKeysLess(keys, cand, a, b) })
	return nil
}

// compositeRanks collapses a multi-key ORDER BY into one packed uint64 per
// candidate: each key's values densify into order-preserving ranks (DESC keys
// invert theirs), and the per-key ranks concatenate most-significant-first,
// so a single uint64 compare answers exactly what the full key chain would —
// comp[a] < comp[b] ⟺ rowLess(keys, cand[a], cand[b]), and equality means
// every key ties (stability then falls to pre-sort position, as always).
// Requires keysTotalOrder (dense ranks are meaningless when NaN compares
// equal to everything). Returns nil — caller keeps the per-comparison chain —
// for single-key sorts, empty candidate sets, or when the combined rank
// widths exceed 64 bits (keys whose distinct-value product tops 2^64).
func compositeRanks(keys []vecSortKey, cand []int32) []uint64 {
	if len(keys) < 2 || len(cand) == 0 {
		return nil
	}
	m := len(cand)
	perm := make([]int32, m)
	ranks := make([][]uint64, len(keys))
	widths := make([]uint, len(keys))
	var total uint
	for ki := range keys {
		k := &keys[ki]
		for i := range perm {
			perm[i] = int32(i)
		}
		// Unstable single-key sort: equal values land on equal ranks no
		// matter how they permute, so stability is irrelevant here.
		sort.Slice(perm, func(a, b int) bool { return k.cmp(cand[perm[a]], cand[perm[b]]) < 0 })
		r := make([]uint64, m)
		var cur uint64
		prev := perm[0]
		for i, p := range perm {
			if i > 0 && k.cmp(cand[prev], cand[p]) != 0 {
				cur++
			}
			r[p] = cur
			prev = p
		}
		if k.desc {
			for i := range r {
				r[i] = cur - r[i]
			}
		}
		ranks[ki] = r
		widths[ki] = uint(bits.Len64(cur)) // 0 when the key never discriminates
		total += widths[ki]
		if total > 64 {
			return nil
		}
	}
	comp := make([]uint64, m)
	for ki := range keys {
		w := widths[ki]
		if w == 0 {
			continue
		}
		r := ranks[ki]
		for i := range comp {
			comp[i] = comp[i]<<w | r[i]
		}
	}
	return comp
}

// candComposite stable-sorts candidate row ids and their composite rank
// words as one unit.
type candComposite struct {
	cand []int32
	comp []uint64
}

func (s candComposite) Len() int           { return len(s.cand) }
func (s candComposite) Less(a, b int) bool { return s.comp[a] < s.comp[b] }
func (s candComposite) Swap(a, b int) {
	s.cand[a], s.cand[b] = s.cand[b], s.cand[a]
	s.comp[a], s.comp[b] = s.comp[b], s.comp[a]
}

// sortByComposite stable-sorts cand by its composite rank vector: serial
// sort.Stable below the parallel threshold, otherwise parallelStableSort
// over candidate positions ordered by their rank words. Both produce the
// unique stable permutation of the strict weak order the composite encodes,
// hence byte-identical output to the key-chain paths.
func sortByComposite(ctx context.Context, cand []int32, comp []uint64, workers int) error {
	m := len(cand)
	if workers <= 1 || m <= morselRows {
		sort.Stable(candComposite{cand, comp})
		return nil
	}
	pos := make([]int32, m)
	for i := range pos {
		pos[i] = int32(i)
	}
	if err := parallelStableSort(ctx, pos, workers, func(a, b int32) bool { return comp[a] < comp[b] }); err != nil {
		return err
	}
	sorted := make([]int32, m)
	for i, p := range pos {
		sorted[i] = cand[p]
	}
	copy(cand, sorted)
	return nil
}

// parallelStableSort is a parallel stable merge sort of s under less, which
// must be a strict weak order: stable-sort each morsel-sized run
// concurrently, then merge adjacent run pairs in passes of doubling width.
// Taking from the right run only when its head is strictly less (left
// preference) preserves stability end to end, so the result is the unique
// stable permutation — the one sort.SliceStable produces.
func parallelStableSort(ctx context.Context, s []int32, workers int, less func(a, b int32) bool) error {
	m := len(s)
	if err := forEachMorsel(ctx, m, workers, func(lo, hi int) {
		run := s[lo:hi]
		sort.SliceStable(run, func(a, b int) bool { return less(run[a], run[b]) })
	}); err != nil {
		return err
	}
	buf := make([]int32, m)
	src, dst := s, buf
	for width := morselRows; width < m; width *= 2 {
		pairs := (m + 2*width - 1) / (2 * width)
		w := width
		sr, d := src, dst
		if err := forEachTask(ctx, pairs, workers, func(p int) error {
			if err := checkCtx(ctx); err != nil {
				return err
			}
			lo := p * 2 * w
			mid, hi := min(lo+w, m), min(lo+2*w, m)
			mergeRuns(sr[lo:mid], sr[mid:hi], d[lo:hi], less)
			return nil
		}); err != nil {
			return err
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return nil
}

// mergeRuns merges two adjacent sorted runs into out, taking from b only
// when its head is strictly less than a's head (left preference = stability).
func mergeRuns(a, b, out []int32, less func(a, b int32) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// keysTotalOrder reports whether the keys impose a strict weak order over
// the candidate rows, i.e. no float key value is NaN. Only then may the
// heap-based top-K replace the full stable sort.
func keysTotalOrder(keys []vecSortKey, cand []int32) bool {
	for ki := range keys {
		k := &keys[ki]
		switch {
		case k.src == srcWeight:
			for _, ri := range cand {
				if math.IsNaN(k.w[ri]) {
					return false
				}
			}
		case k.col.Kind == value.KindFloat:
			for _, ri := range cand {
				if !k.col.Null(int(ri)) && math.IsNaN(k.col.Floats[ri]) {
					return false
				}
			}
		}
	}
	return true
}

// topKCandidates returns the first k candidates of the full stable sort
// without sorting the whole slice: a bounded max-heap keeps the best k under
// the totalized order (keys, then pre-sort position). Requires
// keysTotalOrder — under a strict weak order, stable sort equals sorting by
// that total order, so the heap's answer is exactly the k-prefix.
func topKCandidates(keys []vecSortKey, cand []int32, k int) []int32 {
	less := func(a, b int) bool {
		for kk := range keys {
			c := keys[kk].cmp(cand[a], cand[b])
			if c == 0 {
				continue
			}
			if keys[kk].desc {
				return c > 0
			}
			return c < 0
		}
		return a < b
	}
	// Multi-key heaps compare O(k log k · n) times; the shared composite rank
	// vector turns each of those into one uint64 compare. Identical order by
	// construction (see compositeRanks), so the heap's answer is unchanged.
	if comp := compositeRanks(keys, cand); comp != nil {
		less = func(a, b int) bool {
			if comp[a] != comp[b] {
				return comp[a] < comp[b]
			}
			return a < b
		}
	}
	top := boundedTopK(len(cand), k, less)
	out := make([]int32, len(top))
	for i, p := range top {
		out[i] = cand[p]
	}
	return out
}

// boundedTopK returns the k smallest positions of [0, n) under less, in
// ascending order. less must be a total order (ties broken by position).
// The heap holds at most k entries, so memory and comparisons stay O(k) per
// pushed element instead of O(n log n) for a full sort.
func boundedTopK(n, k int, less func(a, b int) bool) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	h := make([]int, 0, k)
	// Max-heap: h[0] is the worst of the current best k.
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if less(h[p], h[i]) {
				h[p], h[i] = h[i], h[p]
				i = p
				continue
			}
			break
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && less(h[big], h[l]) {
				big = l
			}
			if r < len(h) && less(h[big], h[r]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	for p := 0; p < n; p++ {
		if len(h) < k {
			h = append(h, p)
			siftUp(len(h) - 1)
			continue
		}
		if less(p, h[0]) {
			h[0] = p
			siftDown()
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// topKRows is the generic (materialized-result) top-K used by orderAndLimit
// for aggregate outputs: keys are pre-extracted once per row, then a bounded
// heap selects the k-prefix of the stable sort. It reports false — leaving
// res untouched — whenever the legacy lazy comparator must run instead:
// a key that fails to extract (the lazy path may not error at all on 0/1-row
// results) or a NaN key value (no strict weak order).
func topKRows(res *Result, sel *sql.Select, in, out *schema.Schema) bool {
	n := len(res.Rows)
	keys := make([][]value.Value, n)
	for i := 0; i < n; i++ {
		row := make([]value.Value, len(sel.OrderBy))
		for oi, o := range sel.OrderBy {
			vi, _, err := orderKey(o.Expr, res, in, out, i, i)
			if err != nil {
				return false
			}
			if vi.Kind() == value.KindFloat && math.IsNaN(vi.AsFloat()) {
				return false
			}
			row[oi] = vi
		}
		keys[i] = row
	}
	less := func(a, b int) bool {
		for oi := range sel.OrderBy {
			c := value.Compare(keys[a][oi], keys[b][oi])
			if c == 0 {
				continue
			}
			if sel.OrderBy[oi].Desc {
				return c > 0
			}
			return c < 0
		}
		return a < b
	}
	top := boundedTopK(n, sel.Limit, less)
	rows := make([][]value.Value, len(top))
	for i, p := range top {
		rows[i] = res.Rows[p]
	}
	res.Rows = rows
	return true
}
