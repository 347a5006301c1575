package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"thor/internal/corpus"
	"thor/internal/parallel"
	"thor/internal/stem"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// Candidate is a subtree that survived single-page analysis, annotated
// with the four shape metrics of the subtree distance function
// (Section 3.2.1): path P, fanout F, depth D, and node count N.
type Candidate struct {
	Node    *tagtree.Node
	PageIdx int // index into the phase-two input page slice
	Path    string
	Fanout  int
	Depth   int
	Nodes   int
}

// SubtreeSet is a common subtree set: at most one shape-matched subtree
// per page, representing one type of content region across the cluster's
// pages (navigation bar, advertisement, QA-Pagelet, ...).
type SubtreeSet struct {
	// Proto is the defining subtree from the prototype page.
	Proto *Candidate
	// Members holds the matched subtrees, Proto included.
	Members []*Candidate
	// IntraSim is the average pairwise cosine similarity of the members'
	// content vectors: near 1 for static regions, near 0 for
	// query-dependent dynamic regions.
	IntraSim float64
	// Dynamic is true when IntraSim is at or below the static/dynamic
	// threshold.
	Dynamic bool
	// DynDescendants counts, among the dynamic sets of the same cluster,
	// those whose prototype subtree is a proper descendant of this set's
	// prototype. It drives the minimal-subtree selection (Section 3.2.2).
	DynDescendants int
}

// Pagelet is one extracted QA-Pagelet.
type Pagelet struct {
	Page *corpus.Page
	Node *tagtree.Node
	// Path is the node's indexed path within its page.
	Path string
	// Objects are the recommended QA-Object subtrees inside the pagelet,
	// handed to the stage-three partitioner.
	Objects []*tagtree.Node
}

// Phase2Result is the outcome of QA-Pagelet identification on one page
// cluster.
type Phase2Result struct {
	// Sets are all common subtree sets in ascending IntraSim order
	// (most-dynamic first), before static pruning.
	Sets []*SubtreeSet
	// Selected is the top set chosen as the QA-Pagelet region, or nil when
	// the cluster yielded no dynamic sets.
	Selected *SubtreeSet
	// SelectedSets holds every selected region (NumPagelets of them at
	// most); SelectedSets[0] == Selected.
	SelectedSets []*SubtreeSet
	// Pagelets are the per-page extractions from the selected sets.
	Pagelets []*Pagelet
}

// SinglePageCandidates performs single-page analysis on one page's tag
// tree (Section 3.2.1): it keeps only subtrees that contain content and
// that are minimal — a subtree whose entire content is carried by a single
// tag-node child is discarded in favor of that child. A subtree contains
// content when some text in it holds a word token: punctuation-only text
// (list separators like "|", decorative dashes) cannot answer a query.
// The candidates come in document order, with Path, Depth and Nodes equal
// to the node's Path, Depth and NodeCount.
//
// One iterative walk computes everything, so the cost is linear in the
// tree plus the candidates' path bytes, whatever the nesting depth. On
// the way down each tag node's path is its parent's prefix plus one step,
// whose sibling index is counted once per parent; on the way up a node's
// word and text flags and node count fold into its parent. Whether a
// node qualifies is known only on the way up, so each tag node reserves
// an output slot on the way down, which keeps document order.
func SinglePageCandidates(tree *tagtree.Node, pageIdx int) []*Candidate {
	if tree.Type != tagtree.TagNode {
		return nil
	}
	type frame struct {
		n        *tagtree.Node
		next     int  // the next child to visit
		pathLen  int  // path[:pathLen] is n's path
		steps    int  // n's children's step indexes start at steps[steps]
		slot     int  // n's slot in out
		nodes    int  // n's subtree size so far
		word     bool // some text below holds a word token
		text     bool // some text below is not all white space
		textKids int  // children holding text, counted up to 2
		onlyTag  bool // the first child holding text is a tag node
	}
	var (
		out   []*Candidate
		stack []frame
		steps []int32                  // the step indexes of every stacked node's children
		tally = make(map[string]int32) // appendStepIndexes' scratch
		path  = []byte(tree.Path())
	)
	depth := tree.Depth()
	push := func(n *tagtree.Node) {
		off := len(steps)
		steps = appendStepIndexes(steps, n.Children, tally)
		stack = append(stack, frame{n: n, pathLen: len(path), steps: off, slot: len(out), nodes: 1})
		out = append(out, nil)
	}
	// hold folds a child's text flag into its parent's minimality count.
	hold := func(f *frame, text, tag bool) {
		if !text || f.textKids == 2 {
			return
		}
		if f.textKids++; f.textKids == 1 {
			f.onlyTag = tag
		}
	}
	push(tree)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if k := f.next; k < len(f.n.Children) {
			f.next++
			c := f.n.Children[k]
			if c.Type != tagtree.TagNode {
				f.nodes++
				word := tagtree.HasWordToken(c.Content)
				text := word || strings.TrimSpace(c.Content) != ""
				f.word = f.word || word
				f.text = f.text || text
				hold(f, text, false)
				continue
			}
			path = append(append(path[:f.pathLen], '/'), c.Tag...)
			if idx := steps[f.steps+k]; idx > 0 {
				path = append(strconv.AppendInt(append(path, '['), int64(idx), 10), ']')
			}
			push(c)
			continue
		}
		done := *f
		stack = stack[:len(stack)-1]
		steps = steps[:done.steps]
		if done.word && !(done.textKids == 1 && done.onlyTag) {
			out[done.slot] = &Candidate{
				Node:    done.n,
				PageIdx: pageIdx,
				Path:    string(path[:done.pathLen]),
				Fanout:  len(done.n.Children),
				Depth:   depth + len(stack),
				Nodes:   done.nodes,
			}
		}
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			p.nodes += done.nodes
			p.word = p.word || done.word
			p.text = p.text || done.text
			hold(p, done.text, true)
		}
	}
	kept := out[:0]
	for _, c := range out {
		if c != nil {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// appendStepIndexes appends, for each of children, the positional index
// its path step carries: its 1-based position among its same-tag
// siblings when it has any (tagtree's Path rule), else 0. Content
// children, which never head a tag path, get 0. tally is empty scratch,
// left empty for the next call.
func appendStepIndexes(steps []int32, children []*tagtree.Node, tally map[string]int32) []int32 {
	if len(children) < 2 {
		if len(children) == 1 {
			steps = append(steps, 0)
		}
		return steps
	}
	for _, c := range children {
		if c.Type == tagtree.TagNode {
			tally[c.Tag]++
		}
	}
	// A tag with several children holds their count until its first
	// child is met, then minus the last position handed out.
	for _, c := range children {
		var idx int32
		if c.Type == tagtree.TagNode {
			switch t := tally[c.Tag]; {
			case t > 1:
				idx = 1
				tally[c.Tag] = -1
			case t < 0:
				idx = 1 - t
				tally[c.Tag] = t - 1
			}
		}
		steps = append(steps, idx)
	}
	clear(tally)
	return steps
}

// ShapeDistance is the subtree distance function of Section 3.2.1:
//
//	d = w1·EditDist(P_i,P_j)/max(len) + w2·|F_i−F_j|/max(F)
//	  + w3·|D_i−D_j|/max(D)          + w4·|N_i−N_j|/max(N)
//
// Each term ranges over [0,1]; with weights summing to 1 so does d.
func ShapeDistance(a, b *Candidate, w ShapeWeights, simp *strdist.Simplifier) float64 {
	var path float64
	if w[0] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		path = simp.PathDistance(a.Path, b.Path)
	}
	return shapeDistance(a, b, w, path)
}

// shapeDistance sums the four weighted terms of ShapeDistance given the
// path term's normalized edit distance (read only when w[0] is non-zero),
// in a fixed order, so every caller gets the same bits for the same pair.
func shapeDistance(a, b *Candidate, w ShapeWeights, path float64) float64 {
	var d float64
	if w[0] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w[0] * path
	}
	if w[1] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w[1] * ratioDiff(a.Fanout, b.Fanout)
	}
	if w[2] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w[2] * ratioDiff(a.Depth, b.Depth)
	}
	if w[3] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w[3] * ratioDiff(a.Nodes, b.Nodes)
	}
	return d
}

// ratioDiff returns |a−b|/max(a,b), with 0 when both are 0.
func ratioDiff(a, b int) float64 {
	if a == b {
		return 0
	}
	m := a
	if b > m {
		m = b
	}
	return math.Abs(float64(a-b)) / float64(m)
}

// FindCommonSubtreeSets performs step one of cross-page analysis: for each
// candidate subtree of a prototype page, the most shape-similar candidate
// of every other page (within MaxMatchDistance) joins its common subtree
// set. The prototype is drawn randomly from the pages with the richest
// candidate inventory: a page with few candidates (few query matches)
// makes a poor exemplar of the cluster's region types, and the paper's
// "randomly choose a page" works in its setting because most answer pages
// of a cluster are full-sized.
func FindCommonSubtreeSets(perPage [][]*Candidate, cfg Config, rng *rand.Rand, simp *strdist.Simplifier) []*SubtreeSet {
	if len(perPage) == 0 {
		return nil
	}
	maxCands := 0
	for _, cands := range perPage {
		if len(cands) > maxCands {
			maxCands = len(cands)
		}
	}
	var richest []int
	for i, cands := range perPage {
		if len(cands) == maxCands {
			richest = append(richest, i)
		}
	}
	protoIdx := richest[rng.Intn(len(richest))]
	protos := perPage[protoIdx]
	sets := make([]*SubtreeSet, len(protos))
	for i, proto := range protos {
		sets[i] = &SubtreeSet{Proto: proto, Members: []*Candidate{proto}}
	}
	// Each set takes at most one subtree per page, and each page subtree
	// joins at most one set: per page, (set, candidate) pairs are assigned
	// greedily in ascending distance order, a one-to-one matching that
	// stops a prototype subtree from poaching a page subtree some other
	// prototype resembles far more closely.
	//
	// Every path is simplified at most once per call: a prototype's when
	// its set first meets a page, a page candidate's raw path right after
	// the first prototype's, the first time that raw path appears. That
	// is the first-sight order a per-pair simplification presents tags to
	// simp in — a path seen before holds no unseen tag — so each tag gets
	// the same identifier, which matters, since an identifier can be a
	// digit (q=1 gives "h1" the "1" of "[1]") and the edit distances
	// depend on it.
	//
	// A cluster's pages share a template, so the same candidate paths
	// return page after page: the path term, a function of the two
	// simplified paths alone, is computed at most once per (set, path)
	// and read from a table after that. The three shape terms vary per
	// candidate and are summed per pair.
	usePath := cfg.ShapeWeights[0] != 0 //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
	protoPaths := make([]string, len(protos))
	protoPath := func(si int) string {
		// An empty result is re-simplified on the next call, which is
		// harmless: a path with no steps assigns no identifier.
		if protoPaths[si] == "" {
			protoPaths[si] = simp.SimplifyPath(protos[si].Path)
		}
		return protoPaths[si]
	}
	var (
		lev       strdist.LevScratch
		pathIDs   map[string]int32           // raw candidate path → call-local ID, in first-sight order
		paths     []byte                     // the simplified paths, back to back
		pathOff   = []int{0}                 // path ID p's is paths[pathOff[p]:pathOff[p+1]]
		pathDist  []float64                  // set si's path term with path ID p at p*len(protos)+si; −1 until computed
		candIDs   []int32                    // the page's candidates' path IDs
		keys      []uint64                   // the page's pair keys, set si's row at si*len(cands)
		best      = make([]int, len(protos)) // set si's least free candidate, −1 when none is admissible
		setTaken  = make([]bool, len(protos))
		candTaken []bool
	)
	if usePath {
		pathIDs = make(map[string]int32)
	}
	for l, cands := range perPage {
		if l == protoIdx || len(cands) == 0 {
			continue
		}
		if usePath {
			protoPath(0)
			candIDs = candIDs[:0]
			for _, c := range cands {
				id, ok := pathIDs[c.Path]
				if !ok {
					id = int32(len(pathOff) - 1)
					pathIDs[c.Path] = id
					paths = simp.AppendPath(paths, c.Path)
					pathOff = append(pathOff, len(paths))
					for range protos {
						pathDist = append(pathDist, -1)
					}
				}
				candIDs = append(candIDs, id)
			}
		}
		nc := len(cands)
		keys = slices.Grow(keys[:0], len(protos)*nc)[:len(protos)*nc]
		for si, proto := range protos {
			var pp string
			if usePath {
				pp = protoPath(si)
			}
			row := keys[si*nc : (si+1)*nc]
			for ci, c := range cands {
				var path float64
				if usePath {
					id := candIDs[ci]
					k := int(id)*len(protos) + si
					if pathDist[k] < 0 {
						pathDist[k] = strdist.NormalizedBytes(pp, paths[pathOff[id]:pathOff[id+1]], &lev)
					}
					path = pathDist[k]
				}
				row[ci] = noPair
				if d := shapeDistance(proto, c, cfg.ShapeWeights, path); d <= cfg.MaxMatchDistance {
					row[ci] = distKey(d)
				}
			}
		}
		clear(setTaken)
		candTaken = slices.Grow(candTaken[:0], nc)[:nc]
		clear(candTaken)
		// The greedy one-to-one pass takes the least free (dist, set,
		// cand) pair until every set or every candidate is taken. That
		// pair is the least, over the free sets, of each set's best free
		// candidate, so each set keeps its row's argmin (ties to the
		// lower candidate), a step takes the least argmin (ties to the
		// lower set), and a set's row is scanned again only when the
		// candidate it pointed at has just been taken.
		for si := range protos {
			best[si] = argminFree(keys[si*nc:(si+1)*nc], candTaken)
		}
		for assigned := 0; assigned < len(protos) && assigned < nc; assigned++ {
			bs, bk := -1, noPair
			for si, ci := range best {
				if ci >= 0 && !setTaken[si] && keys[si*nc+ci] < bk {
					bs, bk = si, keys[si*nc+ci]
				}
			}
			if bs < 0 {
				break // no free set has an admissible free candidate left
			}
			ci := best[bs]
			setTaken[bs] = true
			candTaken[ci] = true
			sets[bs].Members = append(sets[bs].Members, cands[ci])
			for si, b := range best {
				if b == ci && !setTaken[si] {
					best[si] = argminFree(keys[si*nc:(si+1)*nc], candTaken)
				}
			}
		}
	}
	return sets
}

// noPair is the key of a pair beyond MaxMatchDistance: above every
// distance key, so no argmin ever picks it.
const noPair uint64 = math.MaxUint64

// distKey maps a distance to an unsigned integer of the same order. NaN
// never gets here (it fails the d <= MaxMatchDistance filter) and neither
// does −0 (the term sum starts at +0), so integer order is exactly float
// order, equality included, and every key is below noPair (NaN's bits
// would be needed to reach it).
func distKey(d float64) uint64 {
	b := math.Float64bits(d)
	if b>>63 != 0 {
		return ^b // negative: flipping every bit reverses their order
	}
	return b | 1<<63 // non-negative: above every negative
}

// argminFree returns the index of row's least key among the candidates
// not yet taken, the lowest index on ties, or −1 when none is admissible.
func argminFree(row []uint64, taken []bool) int {
	best, bk := -1, noPair
	for ci, k := range row {
		if k < bk && !taken[ci] {
			best, bk = ci, k
		}
	}
	return best
}

// RankSubtreeSets performs step two of cross-page analysis: each set's
// members are represented as (optionally TFIDF-weighted) stemmed content
// term vectors and the set's intra-similarity is the average pairwise
// cosine. The pairwise computation — the dominant phase-two cost — fans
// out across cfg.Workers, one unit per set; the units only read what the
// token pass before the fan-out built. Sets are returned in ascending
// IntraSim order — the most likely QA-Pagelet sets first — and Dynamic
// is set for sets at or below the static/dynamic threshold.
func RankSubtreeSets(sets []*SubtreeSet, cfg Config) {
	toks := tokenizeMembers(sets)
	// A unit takes a free scratch or makes one, and puts it back when it
	// is done. At most one unit per worker runs at a time, so at most
	// one scratch per worker is ever made, and that many always fit.
	free := make(chan *rankScratch, parallel.Workers(cfg.Workers))
	parallel.ForEach(len(sets), cfg.Workers, func(i int) {
		var sc *rankScratch
		select {
		case sc = <-free:
		default:
			sc = newRankScratch(toks.stems)
		}
		s := sets[i]
		s.IntraSim = intraSetSimilarity(s, &toks, sc, cfg)
		s.Dynamic = s.IntraSim <= cfg.SimThreshold
		free <- sc
	})
	sort.SliceStable(sets, func(i, j int) bool {
		return sets[i].IntraSim < sets[j].IntraSim
	})
}

// memberTokens is the token pass set ranking makes once per call: the
// members' stemmed content as stem IDs, walked once per page.
type memberTokens struct {
	// ids holds every walked page's stem IDs in document order, page
	// after page; a member's tokens are ids[lo:hi] of its span.
	ids  []int32
	span map[*tagtree.Node]tokenSpan
	// stems counts the call's distinct stems. A stem's ID is its rank
	// among them in ascending term order, the order of the dictionary
	// TFIDFInterned builds, so ID order is the cosine's merge order.
	stems int
}

type tokenSpan struct{ lo, hi int }

// tokenizeMembers walks each distinct page among the members of the sets
// with a pair to compare once, in document order. A page is identified by
// its tree's root, so hand-built sets whose pages share no page index
// still resolve. Nested members share the walk: each records where its
// subtree's tokens start and end. Each distinct spelling, as the text
// spells it, is stemmed once per call: Porter stemming is pure, and
// stem.Stem lowercases first, so the stem of a spelling is the stem of
// its lowercase token (TestStemOfSpellingIsStemOfToken). A token whose
// stem is empty counts for nothing.
func tokenizeMembers(sets []*SubtreeSet) memberTokens {
	t := memberTokens{span: make(map[*tagtree.Node]tokenSpan)}
	var roots []*tagtree.Node
	seen := make(map[*tagtree.Node]bool)
	for _, s := range sets {
		if len(s.Members) < 2 {
			continue // a set with no pair reads no tokens
		}
		for _, m := range s.Members {
			t.span[m.Node] = tokenSpan{}
			if r := m.Node.Root(); !seen[r] {
				seen[r] = true
				roots = append(roots, r)
			}
		}
	}
	spelled := make(map[string]int32) // spelling → stem ID, −1 for an empty stem
	stemIDs := make(map[string]int32) // stem → first-sight ID
	var stems []string
	count := func(tok string) {
		id, ok := spelled[tok]
		if !ok {
			id = -1
			if st := stem.Stem(tok); st != "" {
				if id, ok = stemIDs[st]; !ok {
					id = int32(len(stems))
					stemIDs[st] = id
					stems = append(stems, st)
				}
			}
			spelled[tok] = id
		}
		if id >= 0 {
			t.ids = append(t.ids, id)
		}
	}
	type frame struct {
		n        *tagtree.Node
		next, lo int
	}
	var stack []frame
	enter := func(n *tagtree.Node) {
		stack = append(stack, frame{n: n, lo: len(t.ids)})
		if n.Type == tagtree.ContentNode {
			tagtree.EachRawToken(n.Content, count)
		}
	}
	for _, r := range roots {
		enter(r)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.n.Children) {
				f.next++
				enter(f.n.Children[f.next-1])
				continue
			}
			if _, ok := t.span[f.n]; ok {
				t.span[f.n] = tokenSpan{f.lo, len(t.ids)}
			}
			stack = stack[:len(stack)-1]
		}
	}
	// Renumber from first-sight order to term order.
	sorted := slices.Clone(stems)
	slices.Sort(sorted)
	rank := make([]int32, len(stems))
	for r, st := range sorted {
		rank[stemIDs[st]] = int32(r)
	}
	for i, id := range t.ids {
		t.ids[i] = rank[id]
	}
	t.stems = len(stems)
	return t
}

// rankScratch is one worker's set-ranking scratch: dense rows over the
// call's stem IDs, all zero between sets, and buffers for one set's
// member vectors.
type rankScratch struct {
	row, df []int     // a member's counts; the set's document frequencies
	idf     []float64 // the set's IDF per stem it holds
	dense   []float64 // one member's vector, scattered for its pairs' cosines
	ids     []int32   // the members' distinct stem IDs, member after member
	counts  []float64 // their counts, weighted in place into the vectors
	off     []int     // member j's entries are ids[off[j]:off[j+1]]
	union   []int32   // the stems some member holds
	vecs    []vector.IDVec
}

func newRankScratch(stems int) *rankScratch {
	return &rankScratch{row: make([]int, stems), df: make([]int, stems), idf: make([]float64, stems), dense: make([]float64, stems)}
}

// intraSetSimilarity computes the average pairwise cosine similarity of
// the set's member content vectors. Single-member sets have no pairs and
// are deemed fully static (similarity 1): with no cross-page support, the
// content analysis has no evidence of query-dependence.
//
// Each member's tokens are counted over its span into a dense row, and
// only the int32 IDs it touched are sorted: ascending ID is ascending
// term, so the entries come out in the order TFIDFInterned
// (RawFrequencyInterned) gives them. The weights come from the set's own
// document frequencies and size through vector.Vector, the weighting the
// accumulator finishes with, so the vectors and the cosines over them are
// bit-identical to the batch weighting over the members' count maps.
func intraSetSimilarity(s *SubtreeSet, t *memberTokens, sc *rankScratch, cfg Config) float64 {
	n := len(s.Members)
	if n < 2 {
		return 1
	}
	sc.ids, sc.counts, sc.off, sc.union = sc.ids[:0], sc.counts[:0], sc.off[:0], sc.union[:0]
	for _, m := range s.Members {
		sp := t.span[m.Node]
		lo := len(sc.ids)
		sc.off = append(sc.off, lo)
		for _, id := range t.ids[sp.lo:sp.hi] {
			if sc.row[id] == 0 {
				sc.ids = append(sc.ids, id)
			}
			sc.row[id]++
		}
		doc := sc.ids[lo:]
		slices.Sort(doc)
		for _, id := range doc {
			sc.counts = append(sc.counts, float64(sc.row[id]))
			sc.row[id] = 0
			if sc.df[id] == 0 {
				sc.union = append(sc.union, id)
			}
			sc.df[id]++
		}
	}
	if len(sc.ids) == 0 {
		// Members with no word content at all (a belt-and-braces guard;
		// single-page analysis already drops token-free subtrees) carry no
		// query answers: treat as fully static.
		return 1
	}
	sc.off = append(sc.off, len(sc.ids))
	// An empty member is still a document: it counts toward the
	// collection size the TFIDF weighting divides by.
	var idf []float64
	if !cfg.RawContentVectors {
		idf = sc.idf
		for _, id := range sc.union {
			idf[id] = vector.IDF(n, sc.df[id])
		}
	}
	for _, id := range sc.union {
		sc.df[id] = 0
	}
	sc.vecs = sc.vecs[:0]
	for j := 0; j < n; j++ {
		lo, hi := sc.off[j], sc.off[j+1]
		sc.vecs = append(sc.vecs, vector.Vector(sc.ids[lo:hi:hi], sc.counts[lo:hi:hi], idf))
	}
	// Member i is scattered once and each later member gathered against
	// it: the pairs' cosines, bit for bit, summed in the (i, j) order of
	// the pairwise loop (vector.IDVec.CosineRow).
	var sum float64
	pairs := 0
	for i := 0; i < n-1; i++ {
		vi := sc.vecs[i]
		vi.Scatter(sc.dense)
		for j := i + 1; j < n; j++ {
			sum += sc.vecs[j].CosineRow(sc.dense, vi.Norm())
			pairs++
		}
		vi.Unscatter(sc.dense)
	}
	return sum / float64(pairs)
}

// SelectPagelet implements the QA-Pagelet selection criterion of
// Section 3.2.2, which favors subtrees that (1) contain many other
// dynamically generated content subtrees and (2) are deep in the tag tree.
// The two criteria combine multiplicatively:
//
//	score(s) = (DynDescendants(s) + 1) · Depth(s)
//
// Containing more dynamic subtrees (the QA-Objects) raises the score, but
// every enclosing ancestor — body, the whole page — pays for its extra
// breadth with lost depth, so the winner is the deepest subtree that still
// contains the bulk of the dynamism: the minimal subtree holding the
// QA-Pagelet. Ties go to the deeper, then more content-varying set.
func SelectPagelet(sets []*SubtreeSet, cfg Config) *SubtreeSet {
	selected := SelectPagelets(sets, Config{NumPagelets: 1})
	if len(selected) == 0 {
		return nil
	}
	return selected[0]
}

// SelectPagelets selects up to cfg.NumPagelets QA-Pagelet sets. The first
// is SelectPagelet's winner; each further selection is the best-scoring
// dynamic set structurally disjoint from (neither ancestor nor descendant
// of) every earlier selection, covering sites with multiple primary
// content regions.
func SelectPagelets(sets []*SubtreeSet, cfg Config) []*SubtreeSet {
	var dynamic []*SubtreeSet
	for _, s := range sets {
		if s.Dynamic {
			dynamic = append(dynamic, s)
		}
	}
	if len(dynamic) == 0 {
		return nil
	}
	// Count dynamic descendants per set.
	for _, s := range dynamic {
		s.DynDescendants = 0
		for _, o := range dynamic {
			if o != s && s.Proto.Node.IsAncestorOf(o.Proto.Node) {
				s.DynDescendants++
			}
		}
	}
	score := func(s *SubtreeSet) int {
		return (s.DynDescendants + 1) * s.Proto.Depth
	}
	better := func(s, than *SubtreeSet) bool {
		ss, bs := score(s), score(than)
		switch {
		case ss != bs:
			return ss > bs
		case s.Proto.Depth != than.Proto.Depth:
			return s.Proto.Depth > than.Proto.Depth
		default:
			return s.IntraSim < than.IntraSim
		}
	}
	want := cfg.NumPagelets
	if want < 1 {
		want = 1
	}
	var selected []*SubtreeSet
	for len(selected) < want {
		var best *SubtreeSet
		for _, s := range dynamic {
			if related(s, selected) {
				continue
			}
			if best == nil || better(s, best) {
				best = s
			}
		}
		if best == nil {
			break
		}
		selected = append(selected, best)
	}
	return selected
}

// related reports whether s equals, contains, or is contained in any
// already-selected set's prototype subtree.
func related(s *SubtreeSet, selected []*SubtreeSet) bool {
	for _, sel := range selected {
		if s == sel ||
			sel.Proto.Node.IsAncestorOf(s.Proto.Node) ||
			s.Proto.Node.IsAncestorOf(sel.Proto.Node) {
			return true
		}
	}
	return false
}

// Phase2 runs QA-Pagelet identification on one page cluster: single-page
// analysis, cross-page analysis, ranking, and minimal-subtree selection.
// The returned pagelets carry, as recommended QA-Objects, the dynamic
// subtrees nested inside each selected pagelet (Section 3.2.2: each
// QA-Pagelet is annotated with the dynamic content subtrees it contains to
// guide QA-Object partitioning).
//
// Randomness and the tag-name simplifier are both scoped to this one
// cluster: the seed feeds a fresh *rand.Rand, and a fresh Simplifier
// assigns tag identifiers from this cluster's pages only. Nothing leaks
// in from other clusters, so concurrently processed clusters produce
// the same result as serially processed ones. Single-page candidate
// generation fans out across cfg.Workers, one unit per page.
func Phase2(pages []*corpus.Page, cfg Config, seed int64) *Phase2Result {
	perPage := parallel.Map(len(pages), cfg.Workers, func(i int) []*Candidate {
		return SinglePageCandidates(pages[i].Tree(), i)
	})
	rng := rand.New(rand.NewSource(seed))
	simp := strdist.NewSimplifier(cfg.PathSimplifyQ)
	sets := FindCommonSubtreeSets(perPage, cfg, rng, simp)
	// Drop sets without enough cross-page support.
	minMembers := int(math.Ceil(cfg.MinSetFraction * float64(len(pages))))
	if minMembers < 1 {
		minMembers = 1
	}
	kept := sets[:0]
	for _, s := range sets {
		if len(s.Members) >= minMembers {
			kept = append(kept, s)
		}
	}
	sets = kept
	RankSubtreeSets(sets, cfg)
	res := &Phase2Result{Sets: sets}
	res.SelectedSets = SelectPagelets(sets, cfg)
	if len(res.SelectedSets) == 0 {
		return res
	}
	res.Selected = res.SelectedSets[0]
	// Collect per-page extractions and their nested dynamic subtrees.
	isSelected := make(map[*SubtreeSet]bool, len(res.SelectedSets))
	for _, s := range res.SelectedSets {
		isSelected[s] = true
	}
	dynByPage := make(map[int][]*tagtree.Node)
	for _, s := range sets {
		if !s.Dynamic || isSelected[s] {
			continue
		}
		for _, m := range s.Members {
			dynByPage[m.PageIdx] = append(dynByPage[m.PageIdx], m.Node)
		}
	}
	for _, sel := range res.SelectedSets {
		for _, m := range sel.Members {
			pl := &Pagelet{
				Page: pages[m.PageIdx],
				Node: m.Node,
				Path: m.Path,
			}
			for _, d := range dynByPage[m.PageIdx] {
				if m.Node.IsAncestorOf(d) {
					pl.Objects = append(pl.Objects, d)
				}
			}
			res.Pagelets = append(res.Pagelets, pl)
		}
	}
	return res
}
