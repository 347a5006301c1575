package core

import (
	"encoding/binary"
	"math"
	mathbits "math/bits"
	"math/rand"
	"slices"
	"sort"

	"thor/internal/corpus"
	"thor/internal/parallel"
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
// One candidateWalk computes everything, so the cost is linear in the
// tree plus the candidates' path bytes, whatever the nesting depth. The
// walk yields candidates in post-order with their document-order rank;
// each takes the slot of its rank, which restores document order.
func SinglePageCandidates(tree *tagtree.Node, pageIdx int) []*Candidate {
	var (
		w   candidateWalk
		out []*Candidate // slot i: the tag node of rank i, when a candidate
	)
	w.start(tree, nil)
	for w.next() {
		c := &w.cur
		for c.rank >= len(out) {
			out = append(out, nil)
		}
		out[c.rank] = &Candidate{
			Node:    c.n,
			PageIdx: pageIdx,
			Path:    string(w.curPath()),
			Fanout:  len(c.n.Children),
			Depth:   w.curDepth(),
			Nodes:   c.nodes,
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
	// A cluster's pages share a template, so the same candidate shapes —
	// raw path, fanout, depth and node count — return page after page. A
	// pair's key is a function of the prototype and the shape alone, so
	// it is computed once per (set, shape), the path term once per (set,
	// path), and a page's rows are filled from the shapes' columns. The
	// matching of a page is a function of its rows alone, so a page
	// whose candidates have an earlier page's shapes, in the same order,
	// takes that page's matching without building rows.
	usePath := cfg.ShapeWeights[0] != 0 //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
	S := len(protos)
	protoPaths := make([]string, S)
	protoPath := func(si int) string {
		// An empty result is re-simplified on the next call, which is
		// harmless: a path with no steps assigns no identifier.
		if protoPaths[si] == "" {
			protoPaths[si] = simp.SimplifyPath(protos[si].Path)
		}
		return protoPaths[si]
	}
	// shape is a candidate's shape; its path is empty when the path term
	// is disabled, so shapes that differ only there share a key.
	type shape struct {
		path                 string
		fanout, depth, nodes int
	}
	var (
		lev       strdist.LevScratch
		pathIDs   map[string]int32 // raw candidate path → call-local ID, in first-sight order
		paths     []byte           // the simplified paths, back to back
		pathOff   = []int{0}       // path ID p's is paths[pathOff[p]:pathOff[p+1]]
		pathDist  []float64        // set si's path term with path ID p at p*S+si
		shapeIDs  = make(map[shape]int32)
		shapeOf   []*Candidate     // shape ID h → the first candidate of that shape
		shapePath []int32          // shape ID h → its path ID (−1 without the path term)
		shapeKeys []uint64         // set si's key for shape ID h at h*S+si
		candShape []int32          // the page's candidates' shape IDs
		keys      []uint64         // the page's pair keys, set si's row at si*len(cands)
		best      = make([]int, S) // set si's least free candidate, −1 when none is admissible
		setTaken  = make([]bool, S)
		candTaken []bool
		seqKey    []byte                     // the page's shape IDs as bytes
		seqMatch  = make(map[string][]int32) // a shape sequence → its matching's (set, candidate) pairs
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
		}
		// The shapes and paths this page meets first get IDs from here.
		freshShape, freshPath := len(shapeOf), len(pathOff)-1
		candShape = candShape[:0]
		for _, c := range cands {
			k := shape{fanout: c.Fanout, depth: c.Depth, nodes: c.Nodes}
			if usePath {
				k.path = c.Path
			}
			h, ok := shapeIDs[k]
			if !ok {
				h = int32(len(shapeOf))
				shapeIDs[k] = h
				pid := int32(-1)
				if usePath {
					if pid, ok = pathIDs[c.Path]; !ok {
						pid = int32(len(pathOff) - 1)
						pathIDs[c.Path] = pid
						paths = simp.AppendPath(paths, c.Path)
						pathOff = append(pathOff, len(paths))
					}
				}
				shapeOf = append(shapeOf, c)
				shapePath = append(shapePath, pid)
			}
			candShape = append(candShape, h)
		}
		seqKey = seqKey[:0]
		for _, h := range candShape {
			seqKey = binary.LittleEndian.AppendUint32(seqKey, uint32(h))
		}
		if pairs, ok := seqMatch[string(seqKey)]; ok {
			// Every shape was met before, so nothing new is simplified.
			for p := 0; p < len(pairs); p += 2 {
				sets[pairs[p]].Members = append(sets[pairs[p]].Members, cands[pairs[p+1]])
			}
			continue
		}
		// The new paths' terms and the new shapes' keys, set by set, so
		// the prototypes' paths are simplified in set order after the
		// first page's candidates'.
		numPaths := len(pathOff) - 1
		pathDist = slices.Grow(pathDist, (numPaths-freshPath)*S)[:numPaths*S]
		shapeKeys = slices.Grow(shapeKeys, (len(shapeOf)-freshShape)*S)[:len(shapeOf)*S]
		for si, proto := range protos {
			if freshPath < numPaths {
				// The prototype's path is the pattern of every new path's
				// edit distance, so its table is built once per page.
				lev.Prepare(protoPath(si))
				for p := freshPath; p < numPaths; p++ {
					pathDist[p*S+si] = lev.NormalizedRun(paths[pathOff[p]:pathOff[p+1]])
				}
				lev.Release()
			}
			for h := freshShape; h < len(shapeOf); h++ {
				var path float64
				if usePath {
					path = pathDist[int(shapePath[h])*S+si]
				}
				key := noPair
				if d := shapeDistance(proto, shapeOf[h], cfg.ShapeWeights, path); d <= cfg.MaxMatchDistance {
					key = distKey(d)
				}
				shapeKeys[h*S+si] = key
			}
		}
		nc := len(cands)
		keys = slices.Grow(keys[:0], S*nc)[:S*nc]
		for ci, h := range candShape {
			for si, k := range shapeKeys[int(h)*S : (int(h)+1)*S] {
				keys[si*nc+ci] = k
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
		pairs := make([]int32, 0, 2*min(S, nc))
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
			pairs = append(pairs, int32(bs), int32(ci))
			for si, b := range best {
				if b == ci && !setTaken[si] {
					best[si] = argminFree(keys[si*nc:(si+1)*nc], candTaken)
				}
			}
		}
		seqMatch[string(seqKey)] = pairs
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
	rankSubtreeSets(sets, cfg, nil)
}

// rankSubtreeSets is RankSubtreeSets reading the members' tokens through
// terms, the build's index of the pages phase one recorded. When terms
// is nil, or lacks a member's page, the pages are recorded here, by the
// walk phase one records them with.
func rankSubtreeSets(sets []*SubtreeSet, cfg Config, terms *termIndex) {
	spans := make(map[*tagtree.Node]tokenSpan)
	var roots []*tagtree.Node // a page is identified by its tree's root
	seen := make(map[*tagtree.Node]bool)
	for _, s := range sets {
		if len(s.Members) < 2 {
			continue // a set with no pair reads no tokens
		}
		for _, m := range s.Members {
			spans[m.Node] = tokenSpan{}
			if r := m.Node.Root(); !seen[r] {
				seen[r] = true
				roots = append(roots, r)
			}
		}
	}
	if terms == nil || !terms.recorded(roots) {
		// The pages outlive the table, which dies with the call.
		sp := spellings{keep: true}
		own := make(map[*tagtree.Node]int, len(roots))
		for _, r := range roots {
			own[r] = len(sp.rec.starts)
			sp.walk(r)
		}
		terms = sp.index(own)
	}
	terms.spans(roots, spans)
	// A unit takes a free scratch or makes one, and puts it back when it
	// is done. At most one unit per worker runs at a time, so at most
	// one scratch per worker is ever made, and that many always fit.
	free := make(chan *rankScratch, parallel.Workers(cfg.Workers))
	parallel.ForEach(len(sets), cfg.Workers, func(i int) {
		var sc *rankScratch
		select {
		case sc = <-free:
		default:
			sc = newRankScratch(terms.stems)
		}
		s := sets[i]
		s.IntraSim = intraSetSimilarity(s, terms, spans, sc, cfg)
		s.Dynamic = s.IntraSim <= cfg.SimThreshold
		free <- sc
	})
	sort.SliceStable(sets, func(i, j int) bool {
		return sets[i].IntraSim < sets[j].IntraSim
	})
}

// tokenSpan locates a member's tokens in its index's record: forms[lo:hi].
type tokenSpan struct{ lo, hi int }

// recorded reports whether every root is a page the index recorded.
func (t *termIndex) recorded(roots []*tagtree.Node) bool {
	for _, r := range roots {
		if _, ok := t.roots[r]; !ok {
			return false
		}
	}
	return true
}

// spans sets the span of every node keyed in spans, under the given
// recorded roots. A subtree's content nodes are consecutive in document
// order, so its tokens are one run of its page's record: a walk of the
// page that counts content nodes finds where each member's run starts
// and ends, with no token read.
func (t *termIndex) spans(roots []*tagtree.Node, spans map[*tagtree.Node]tokenSpan) {
	type frame struct {
		n        *tagtree.Node
		next, lo int
	}
	var stack []frame
	for _, r := range roots {
		at := t.roots[r] // the next content node's entry in t.rec.starts
		enter := func(n *tagtree.Node) {
			stack = append(stack, frame{n: n, lo: t.rec.starts[at]})
			if n.Type == tagtree.ContentNode {
				at++
			}
		}
		enter(r)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.n.Children) {
				f.next++
				enter(f.n.Children[f.next-1])
				continue
			}
			if _, ok := spans[f.n]; ok {
				spans[f.n] = tokenSpan{f.lo, t.rec.starts[at]}
			}
			stack = stack[:len(stack)-1]
		}
	}
}

// rankScratch is one worker's set-ranking scratch: dense rows over the
// index's stem IDs, all zero between sets, and buffers for one set's
// member vectors.
type rankScratch struct {
	row, df []int     // a member's counts; the set's document frequencies
	idf     []float64 // the set's IDF per stem it holds
	dense   []float64 // one member's vector, scattered for its pairs' cosines
	seen    []uint64  // a member's stem IDs as a bitmap, bit id%64 of word id/64
	ids     []int32   // the members' distinct stem IDs, member after member
	counts  []float64 // their counts, weighted in place into the vectors
	off     []int     // member j's entries are ids[off[j]:off[j+1]]
	union   []int32   // the stems some member holds
	vecs    []vector.IDVec
}

func newRankScratch(stems int) *rankScratch {
	return &rankScratch{row: make([]int, stems), df: make([]int, stems), idf: make([]float64, stems), dense: make([]float64, stems),
		seen: make([]uint64, (stems+63)/64)}
}

// intraSetSimilarity computes the average pairwise cosine similarity of
// the set's member content vectors. Single-member sets have no pairs and
// are deemed fully static (similarity 1): with no cross-page support, the
// content analysis has no evidence of query-dependence.
//
// Each member's tokens are counted over its span into a dense row, and
// the stem IDs it touched are marked in a bitmap; scanning the marked
// words from the lowest yields them in ascending ID order, which is
// ascending term, so the entries come out in the order TFIDFInterned
// (RawFrequencyInterned) gives them. The weights come from the set's own
// document frequencies and size through vector.Vector, the weighting the
// accumulator finishes with, so the vectors and the cosines over them are
// bit-identical to the batch weighting over the members' count maps.
func intraSetSimilarity(s *SubtreeSet, t *termIndex, spans map[*tagtree.Node]tokenSpan, sc *rankScratch, cfg Config) float64 {
	n := len(s.Members)
	if n < 2 {
		return 1
	}
	sc.ids, sc.counts, sc.off, sc.union = sc.ids[:0], sc.counts[:0], sc.off[:0], sc.union[:0]
	for _, m := range s.Members {
		sp := spans[m.Node]
		sc.off = append(sc.off, len(sc.ids))
		lo, hi := len(sc.seen), -1 // the bitmap words the member marked
		for _, f := range t.rec.forms[sp.lo:sp.hi] {
			id := t.stemOf[f]
			if id < 0 {
				continue
			}
			if sc.row[id] == 0 {
				w := int(id >> 6)
				sc.seen[w] |= 1 << (id & 63)
				lo, hi = min(lo, w), max(hi, w)
			}
			sc.row[id]++
		}
		for w := lo; w <= hi; w++ {
			for bits := sc.seen[w]; bits != 0; bits &= bits - 1 {
				id := int32(w<<6 | mathbits.TrailingZeros64(bits))
				sc.ids = append(sc.ids, id)
				sc.counts = append(sc.counts, float64(sc.row[id]))
				sc.row[id] = 0
				if sc.df[id] == 0 {
					sc.union = append(sc.union, id)
				}
				sc.df[id]++
			}
			sc.seen[w] = 0
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
	return phase2(pages, cfg, seed, nil)
}

// phase2 is Phase2 ranking sets through terms, the build's index of the
// pages phase one recorded (nil to record the cluster's pages here).
func phase2(pages []*corpus.Page, cfg Config, seed int64, terms *termIndex) *Phase2Result {
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
	rankSubtreeSets(sets, cfg, terms)
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
