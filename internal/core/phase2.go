package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"

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
// tag-node child is discarded in favor of that child.
func SinglePageCandidates(tree *tagtree.Node, pageIdx int) []*Candidate {
	var out []*Candidate
	tree.Walk(func(n *tagtree.Node) bool {
		if n.Type != tagtree.TagNode {
			return false
		}
		if !hasToken(n) {
			return false // content-free subtrees cannot hold QA-Pagelets
		}
		if !isMinimal(n) {
			return true // skip n but keep descending
		}
		out = append(out, &Candidate{
			Node:    n,
			PageIdx: pageIdx,
			Path:    n.Path(),
			Fanout:  n.Fanout(),
			Depth:   n.Depth(),
			Nodes:   n.NodeCount(),
		})
		return true
	})
	return out
}

// hasToken reports whether the subtree contains at least one word token.
// Punctuation-only text (list separators like "|", decorative dashes) is
// not content in the paper's sense: it cannot answer a query.
func hasToken(n *tagtree.Node) bool {
	found := false
	n.Walk(func(m *tagtree.Node) bool {
		if found {
			return false
		}
		if m.Type == tagtree.ContentNode && tagtree.HasWordToken(m.Content) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isMinimal reports whether n's content is not entirely contained in a
// single tag-node child; if it is, n and the child have equivalent content
// and only the smaller (deeper) subtree remains a candidate.
func isMinimal(n *tagtree.Node) bool {
	var textChildren int
	var only *tagtree.Node
	for _, c := range n.Children {
		if c.HasText() {
			textChildren++
			only = c
		}
	}
	if textChildren == 1 && only.Type == tagtree.TagNode {
		return false
	}
	return true
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
		pathIDs   map[string]int32 // raw candidate path → call-local ID, in first-sight order
		paths     []byte           // the simplified paths, back to back
		pathOff   = []int{0}       // path ID p's is paths[pathOff[p]:pathOff[p+1]]
		pathDist  []float64        // set si's path term with path ID p at p*len(protos)+si; −1 until computed
		candIDs   []int32          // the page's candidates' path IDs
		pairs     []pairing
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
		pairs = pairs[:0]
		for si, proto := range protos {
			var pp string
			if usePath {
				pp = protoPath(si)
			}
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
				if d := shapeDistance(proto, c, cfg.ShapeWeights, path); d <= cfg.MaxMatchDistance {
					pairs = append(pairs, newPairing(d, si, ci))
				}
			}
		}
		clear(setTaken)
		candTaken = slices.Grow(candTaken[:0], len(cands))[:len(cands)]
		clear(candTaken)
		assigned := 0
		// The greedy pass stops once every set or every candidate is
		// taken, typically after a small share of the pairs, so the pairs
		// are heap-ordered and popped in (dist, set, cand) order rather
		// than fully sorted. No two pairings are equal (sc differs), so
		// the pop order is exactly the sorted order.
		heapifyPairings(pairs)
		for len(pairs) > 0 {
			var p pairing
			p, pairs = popPairing(pairs)
			si, ci := p.set(), p.cand()
			if setTaken[si] || candTaken[ci] {
				continue
			}
			setTaken[si] = true
			candTaken[ci] = true
			sets[si].Members = append(sets[si].Members, cands[ci])
			if assigned++; assigned == len(protos) || assigned == len(cands) {
				break
			}
		}
	}
	return sets
}

// pairing is one (set, page candidate) pair within MaxMatchDistance,
// packed so that sorting by (dist, sc) as two unsigned integers is the
// greedy matching's total order — ascending distance, ties to the lower
// set index, then to the lower candidate index.
type pairing struct {
	// dist is the distance's bits mapped to an unsigned integer of the
	// same order. NaN never gets here (it fails the d <= MaxMatchDistance
	// filter) and neither does −0 (the term sum starts at +0), so integer
	// order is exactly float order, equality included.
	dist uint64
	// sc is the set index in the high half, the candidate index in the
	// low half.
	sc uint64
}

func newPairing(dist float64, set, cand int) pairing {
	b := math.Float64bits(dist)
	if b>>63 != 0 {
		b = ^b // negative: flipping every bit reverses their order
	} else {
		b |= 1 << 63 // non-negative: above every negative
	}
	return pairing{dist: b, sc: uint64(set)<<32 | uint64(uint32(cand))}
}

func (p pairing) set() int  { return int(p.sc >> 32) }
func (p pairing) cand() int { return int(uint32(p.sc)) }

// less orders pairings by (dist, set, cand).
func (p pairing) less(q pairing) bool {
	return p.dist < q.dist || (p.dist == q.dist && p.sc < q.sc)
}

// heapifyPairings arranges h as a binary min-heap under less.
func heapifyPairings(h []pairing) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownPairing(h, i)
	}
}

// popPairing removes and returns the least pairing of heap h.
func popPairing(h []pairing) (pairing, []pairing) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	siftDownPairing(h, 0)
	return top, h
}

func siftDownPairing(h []pairing, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// RankSubtreeSets performs step two of cross-page analysis: each set's
// members are represented as (optionally TFIDF-weighted) stemmed content
// term vectors and the set's intra-similarity is the average pairwise
// cosine. The pairwise computation — the dominant phase-two cost — fans
// out across cfg.Workers, one unit per set; no candidate belongs to two
// sets, so the units share nothing. Sets are returned in ascending
// IntraSim order — the most likely QA-Pagelet sets first — and Dynamic
// is set for sets at or below the static/dynamic threshold.
func RankSubtreeSets(sets []*SubtreeSet, cfg Config) {
	parallel.ForEach(len(sets), cfg.Workers, func(i int) {
		s := sets[i]
		s.IntraSim = intraSetSimilarity(s, cfg)
		s.Dynamic = s.IntraSim <= cfg.SimThreshold
	})
	sort.SliceStable(sets, func(i, j int) bool {
		return sets[i].IntraSim < sets[j].IntraSim
	})
}

// intraSetSimilarity computes the average pairwise cosine similarity of
// the set's member content vectors. Single-member sets have no pairs and
// are deemed fully static (similarity 1): with no cross-page support, the
// content analysis has no evidence of query-dependence.
func intraSetSimilarity(s *SubtreeSet, cfg Config) float64 {
	n := len(s.Members)
	if n < 2 {
		return 1
	}
	// The members' stemmed term counts go straight into the
	// accumulator's local ID space, one stem per ID: each distinct token,
	// as the text spells it, is stemmed once (Porter stemming is pure, so
	// the memo is exact) and mapped to its stem's ID, −1 for a token whose
	// stem is empty; each member is counted in a dense row by ID, and the
	// IDs it touched are handed on with it. stem.Stem lowercases first and
	// lowercasing is idempotent on word runes, so the stem of a spelling
	// is the stem of EachToken's lowercase token, and a capitalized word
	// costs no lowercase copy per occurrence. Everything is local to this
	// set's work unit, so the fan-out in RankSubtreeSets still shares
	// nothing.
	acc := vector.NewAccumulator(cfg.RawContentVectors)
	tokenIDs := make(map[string]int32)
	var (
		row     []int
		touched []int32
	)
	count := func(tok string) {
		id, ok := tokenIDs[tok]
		if !ok {
			id = -1
			if st := stem.Stem(tok); st != "" {
				id = acc.Intern(st)
				if int(id) == len(row) {
					row = append(row, 0)
				}
			}
			tokenIDs[tok] = id
		}
		if id < 0 {
			return
		}
		if row[id] == 0 {
			touched = append(touched, id)
		}
		row[id]++
	}
	empty := true
	for _, m := range s.Members {
		touched = touched[:0]
		m.Node.EachRawContentToken(count)
		// An empty member is still a document: it counts toward the
		// collection size the TFIDF weighting divides by.
		acc.AddRow(touched, row)
		for _, id := range touched {
			row[id] = 0
		}
		if len(touched) > 0 {
			empty = false
		}
	}
	if empty {
		// Members with no word content at all (a belt-and-braces guard;
		// single-page analysis already drops token-free subtrees) carry no
		// query answers: treat as fully static.
		return 1
	}
	// The vectors are weighted and interned over the set's own vocabulary,
	// bit-identical to TFIDFInterned (RawFrequencyInterned) over the
	// members' count maps, so the O(n²) pairwise cosine runs on the
	// integer kernels.
	iv := acc.FinishInterned()
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += iv.Vecs[i].Cosine(iv.Vecs[j])
			pairs++
		}
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
				Path: m.Node.Path(),
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
