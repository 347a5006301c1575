package core

import (
	"io"
	"slices"
	"sort"
	"strings"

	"thor/internal/cluster"
	"thor/internal/corpus"
	"thor/internal/stem"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// PageCluster is one cluster of structurally similar pages together with
// the statistics used to rank it.
type PageCluster struct {
	// ClusterID is the cluster's index in the phase-one Clustering (and in
	// a Model's centroid and wrapper tables), stable under ranking.
	ClusterID int
	// Indexes are the positions of the member pages in the input slice.
	Indexes []int
	// Pages are the member pages.
	Pages []*corpus.Page
	// Ranking criteria (Section 3.1.3), each averaged over member pages.
	AvgDistinctTerms float64
	AvgMaxFanout     float64
	AvgPageSize      float64
	// Score is the normalized linear combination of the three criteria;
	// clusters are ranked by descending score.
	Score float64
}

// Phase1Result is the outcome of the page clustering phase.
type Phase1Result struct {
	Clustering cluster.Clustering
	// Ranked lists the non-empty clusters in descending rank order.
	Ranked []*PageCluster
	// InternalSimilarity of the chosen clustering (only meaningful for
	// centroid-based approaches; 0 otherwise).
	InternalSimilarity float64
}

// TagSignatures returns the per-page tag-count maps (the raw tag-tree
// signatures of Section 3.1.2).
func TagSignatures(pages []*corpus.Page) []map[string]int {
	out := make([]map[string]int, len(pages))
	for i, p := range pages {
		out[i] = p.TagSignature()
	}
	return out
}

// ContentSignatures returns the per-page stemmed content term counts (the
// content signature alternative of Section 3.1.2, with Porter stemming).
func ContentSignatures(pages []*corpus.Page) []map[string]int {
	out := make([]map[string]int, len(pages))
	for i, p := range pages {
		out[i] = p.ContentSignature()
	}
	return out
}

// signatureOf returns the signature a page is vectorized by under
// approach a: stemmed content terms for the content approaches, tag
// frequencies for everything else (the size/URL/random baselines cluster
// on other criteria but still assign fresh pages by tag signature).
func signatureOf(p *corpus.Page, a Approach) map[string]int {
	if a.IsVector() && a.ContentBased() {
		return p.ContentSignature()
	}
	return p.TagSignature()
}

// newInput assembles the multi-representation clusterer input over pages
// around their vector view. The size, URL, and tag-tree views read the
// pages lazily, each at most once, so a clusterer pays only for the view
// it consumes.
func newInput(pages []*corpus.Page, interned func() vector.Interned) cluster.Input {
	return cluster.Input{
		N:        len(pages),
		Interned: interned,
		Sizes: cluster.Memo(func() []int {
			sizes := make([]int, len(pages))
			for i, p := range pages {
				sizes[i] = p.Size()
			}
			return sizes
		}),
		URLs: cluster.Memo(func() []string {
			urls := make([]string, len(pages))
			for i, p := range pages {
				urls[i] = p.URL
			}
			return urls
		}),
		Trees: cluster.Memo(func() []*tagtree.Node {
			trees := make([]*tagtree.Node, len(pages))
			for i, p := range pages {
				trees[i] = p.Tree()
			}
			return trees
		}),
	}
}

// clustererFor resolves the clusterer a configuration selects: the named
// one when Config.Clusterer is set, the approach's historical algorithm
// otherwise.
func clustererFor(cfg Config) (cluster.Clusterer, error) {
	name := cfg.Clusterer
	if name == "" {
		name = cfg.Approach.DefaultClusterer()
	}
	return cluster.MustLookup(name)
}

// clusterPages runs the configured clusterer over the page input and
// returns its full result (clustering, centroids where the algorithm
// produces them, internal similarity).
func clusterPages(in cluster.Input, cfg Config) (cluster.Result, error) {
	c, err := clustererFor(cfg)
	if err != nil {
		return cluster.Result{}, err
	}
	return c.Cluster(in, cluster.Config{
		K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed, Workers: cfg.Workers,
	})
}

// ClusterPages partitions pages into cfg.K clusters using the configured
// approach (and clusterer, when one is named) and returns the clustering
// plus its internal similarity (for centroid-based approaches). Unlike
// Phase1 it is lazy: the vector view is weighted only if the clusterer
// asks for it, so the size, URL, and random baselines run without
// parsing a page (Figure 5 times them that way).
func ClusterPages(pages []*corpus.Page, cfg Config) (cluster.Clustering, float64) {
	a := cfg.Approach
	in := newInput(pages, cluster.Memo(func() vector.Interned {
		sigs := make([]map[string]int, len(pages))
		for i, p := range pages {
			sigs[i] = signatureOf(p, a)
		}
		if a.RawWeighted() {
			return vector.RawFrequencyInterned(sigs)
		}
		return vector.TFIDFInterned(sigs)
	}))
	res, err := clusterPages(in, cfg)
	if err != nil {
		//thorlint:allow no-panic-in-lib programmer-error guard; preserved behavior of the pre-registry closed-enum dispatch
		panic("core: " + err.Error())
	}
	return res.Clustering, res.Similarity
}

// Phase1 runs the page clustering phase: cluster the sampled pages, then
// rank the clusters by likelihood of containing QA-Pagelets using the
// linear combination of average distinct terms, average fanout, and
// average page size (Section 3.1.3). It is BuildModel's own phase-one
// step, so its clusters and ranking are the ones a model is built on.
func Phase1(pages []*corpus.Page, cfg Config) Phase1Result {
	p1, err := phase1(corpus.NewSliceSource(pages), cfg, false)
	if err != nil {
		//thorlint:allow no-panic-in-lib programmer-error guard; a slice source never errors, so only an unknown clusterer name reaches here
		panic("core: " + err.Error())
	}
	return p1.res
}

// phaseOne is the outcome of a build's phase-one step: the pages with
// their interned training vectors and document frequencies, the
// clusterer's result, the ranked clusters, and — when the step kept
// them — the pages' recorded tokens.
type phaseOne struct {
	pages    []*corpus.Page
	df       map[string]int
	interned vector.Interned
	cres     cluster.Result
	res      Phase1Result
	// words holds every page's recorded tokens, and roots maps each
	// page's root to its first entry in words.rec.starts; both are nil
	// when the step released its pages. They are build-local: nothing a
	// Model or Result holds reaches them.
	words *spellings
	roots map[*tagtree.Node]int
}

// terms moves the pages' recorded tokens into an index for set ranking,
// or returns nil when the step kept no records.
func (p *phaseOne) terms() *termIndex {
	if p.words == nil {
		return nil
	}
	t := p.words.index(p.roots)
	p.words, p.roots = nil, nil
	return t
}

// phase1 is the phase-one step of a build. Pass 1 streams the pages,
// folding each into its raw count vector, its ranking scalars, and the
// DF table; with release set, each page's derived views are dropped
// before the next is drawn; without it, each page's tokens, recorded by
// the ranking walk, are kept for set ranking (a record must not outlive
// its page's tree). Pass 2 DF-weights, normalizes, and interns the
// vectors: one Dict over the training vocabulary is the clustering space
// and — stored on the Model — the assignment space for fresh pages. The
// pages are then clustered and the clusters ranked from the scalars
// captured in pass 1. A non-EOF error from the source aborts the step
// and is returned.
func phase1(src corpus.Source, cfg Config, release bool) (*phaseOne, error) {
	a := cfg.Approach
	acc := vector.NewAccumulator(a.RawWeighted())
	var pages []*corpus.Page
	var stats []pageStat
	sp := &spellings{keep: !release}
	var roots map[*tagtree.Node]int
	if sp.keep {
		roots = make(map[*tagtree.Node]int)
	}
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		acc.Add(signatureOf(p, a))
		first := len(sp.rec.starts)
		stats = append(stats, sp.statOf(p))
		if release {
			p.ReleaseDerived()
		} else {
			roots[p.Tree()] = first
		}
		pages = append(pages, p)
	}
	interned := acc.FinishInterned()
	cres, err := clusterPages(newInput(pages, func() vector.Interned { return interned }), cfg)
	if err != nil {
		return nil, err
	}
	p1 := &phaseOne{
		pages:    pages,
		df:       acc.DF(),
		interned: interned,
		cres:     cres,
		res:      rankClustersFromStats(pages, stats, cres.Clustering, cres.Similarity),
	}
	if sp.keep {
		p1.words, p1.roots = sp, roots
	}
	return p1, nil
}

// pageStat holds the per-page scalars the cluster ranking consumes —
// captured during a streaming build's first pass so the page's parsed
// tree can be released before clustering.
type pageStat struct {
	distinctTerms int
	maxFanout     int
	size          int
}

// spellings reads a build's per-page ranking scalars in one walk of each
// page's tree, and records the page's tokens on the way. Distinct terms
// are counted through a table of token spellings that lasts the whole
// build: each spelling maps to the ID of its lowercase form (a lowercase
// form is a spelling of itself), so a spelling is lowercased once per
// build, not once per page, and a page marks the IDs it has seen with
// its own stamp instead of filling a fresh set. The zero value is ready
// to use; it is not safe for concurrent use.
type spellings struct {
	// ids maps a spelling to its form ID. It starts over when full.
	ids map[string]int32
	// forms holds, per form ID, its lowercase form.
	forms []string
	// stamps holds, per form ID, the last page that used it.
	stamps []uint32
	page   uint32
	terms  int // distinct terms of the page being walked
	// rec holds the walked pages' tokens: every page's when keep is set,
	// the last page's otherwise.
	rec tokenRecord
	// stack is the walk's scratch, kept for the next page.
	stack []*tagtree.Node
	// keep is set when every walked page outlives the table and its
	// records are read afterwards. Then the keys may be views of the
	// pages' text, and the records name forms by ID, so IDs are never
	// reused: a restart of ids forgets spellings, not forms. Otherwise a
	// restart starts forms and stamps over too, so the table stays
	// bounded however many pages are walked.
	keep bool
}

// tokenRecord holds walked pages' tokens, page after page, each page's
// in document order.
type tokenRecord struct {
	// forms holds the tokens' form IDs.
	forms []int32
	// starts holds, per content node in document order, the index in
	// forms of its first token, and after each page's content nodes one
	// more entry: the page's end. A page's entries are therefore
	// starts[first : first+c+1] for its c content nodes.
	starts []int
}

func (r *tokenRecord) reset() { r.forms, r.starts = r.forms[:0], r.starts[:0] }

// maxSpellings bounds the table. A page that finds it full starts it
// over; counts are per page, so they do not change.
const maxSpellings = 1 << 16

// statOf reads the ranking scalars off a page, parsing its tree if it is
// not already cached.
func (s *spellings) statOf(p *corpus.Page) pageStat {
	terms, fanout := s.walk(p.Tree())
	return pageStat{distinctTerms: terms, maxFanout: fanout, size: p.Size()}
}

// walk records the tokens of the tree rooted at root in s.rec and
// returns their number of distinct lowercase forms — root.DistinctTerms()
// — and the tree's largest fanout — root.MaxFanout(). It visits nodes in
// document order off a plain stack, so it needs no goroutine stack
// however deep the tree.
func (s *spellings) walk(root *tagtree.Node) (terms, fanout int) {
	if s.ids == nil || len(s.ids) >= maxSpellings {
		s.ids = make(map[string]int32)
		if !s.keep {
			s.forms, s.stamps = s.forms[:0], s.stamps[:0]
		}
	}
	if !s.keep {
		s.rec.reset()
	}
	if s.page++; s.page == 0 { // the stamps wrapped: forget them all
		clear(s.stamps)
		s.page = 1
	}
	s.terms = 0
	stack := append(s.stack[:0], root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fanout = max(fanout, len(n.Children))
		if n.Type == tagtree.ContentNode {
			s.rec.starts = append(s.rec.starts, len(s.rec.forms))
			tagtree.EachRawToken(n.Content, s.count)
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	s.rec.starts = append(s.rec.starts, len(s.rec.forms))
	clear(stack[:cap(stack)]) // hold no page's nodes past its walk
	s.stack = stack
	return s.terms, fanout
}

// count records and counts one raw token of the page being walked.
func (s *spellings) count(tok string) {
	id, ok := s.ids[tok]
	if !ok {
		if !s.keep {
			tok = strings.Clone(tok) // a key must not pin the page's text
		}
		lower := strings.ToLower(tok)
		if id, ok = s.ids[lower]; !ok {
			id = int32(len(s.forms))
			s.forms = append(s.forms, lower)
			s.stamps = append(s.stamps, 0)
			s.ids[lower] = id
		}
		s.ids[tok] = id
	}
	s.rec.forms = append(s.rec.forms, id)
	if s.stamps[id] != s.page {
		s.stamps[id] = s.page
		s.terms++
	}
}

// index stems every form the table has seen, once, and returns the
// index set ranking reads the recorded pages through; roots maps each
// recorded page's root to its first entry in s.rec.starts. A form's stem
// gets the stem's rank among all the distinct stems of the table, in
// ascending term order, so ascending ID order is ascending term order
// within any subset of them. s.rec moves to the index.
func (s *spellings) index(roots map[*tagtree.Node]int) *termIndex {
	ids := make(map[string]int32) // stem → first-sight ID
	var stems []string
	stemOf := make([]int32, len(s.forms))
	for f, form := range s.forms {
		stemOf[f] = -1
		st := stem.Stem(form)
		if st == "" {
			continue
		}
		id, ok := ids[st]
		if !ok {
			id = int32(len(stems))
			ids[st] = id
			stems = append(stems, st)
		}
		stemOf[f] = id
	}
	sorted := slices.Clone(stems)
	slices.Sort(sorted)
	rank := make([]int32, len(stems))
	for r, st := range sorted {
		rank[ids[st]] = int32(r)
	}
	for f, id := range stemOf {
		if id >= 0 {
			stemOf[f] = rank[id]
		}
	}
	t := &termIndex{rec: s.rec, roots: roots, stemOf: stemOf, stems: len(stems)}
	s.rec = tokenRecord{}
	return t
}

// termIndex is what set ranking reads pages' tokens through: the pages'
// records, and each form's stem as a stem ID. It is read-only once built,
// so the concurrent phase-two runs of one build share it.
type termIndex struct {
	rec   tokenRecord
	roots map[*tagtree.Node]int // a recorded page's root → its first entry in rec.starts
	// stemOf maps a form ID to its stem's ID, −1 for an empty stem. A
	// stem's ID is its rank among stems in ascending term order, the
	// order of the dictionary TFIDFInterned builds, so ID order is the
	// cosine's merge order.
	stemOf []int32
	stems  int
}

// rankClustersFromStats builds and ranks the per-cluster statistics of
// Section 3.1.3 over an existing clustering, reading the per-page
// scalars from stats (indexed like pages).
func rankClustersFromStats(pages []*corpus.Page, stats []pageStat, cl cluster.Clustering, sim float64) Phase1Result {
	res := Phase1Result{Clustering: cl, InternalSimilarity: sim}
	for id, members := range cl.Clusters {
		if len(members) == 0 {
			continue
		}
		pc := &PageCluster{ClusterID: id, Indexes: members}
		for _, i := range members {
			pc.Pages = append(pc.Pages, pages[i])
			pc.AvgDistinctTerms += float64(stats[i].distinctTerms)
			pc.AvgMaxFanout += float64(stats[i].maxFanout)
			pc.AvgPageSize += float64(stats[i].size)
		}
		n := float64(len(members))
		pc.AvgDistinctTerms /= n
		pc.AvgMaxFanout /= n
		pc.AvgPageSize /= n
		res.Ranked = append(res.Ranked, pc)
	}
	scoreClusters(res.Ranked)
	sort.SliceStable(res.Ranked, func(i, j int) bool {
		return res.Ranked[i].Score > res.Ranked[j].Score
	})
	return res
}

// scoreClusters computes each cluster's rank score: every criterion is
// normalized by the maximum over clusters so the three are comparable, and
// the score is their equally weighted sum.
func scoreClusters(clusters []*PageCluster) {
	var maxT, maxF, maxS float64
	for _, c := range clusters {
		if c.AvgDistinctTerms > maxT {
			maxT = c.AvgDistinctTerms
		}
		if c.AvgMaxFanout > maxF {
			maxF = c.AvgMaxFanout
		}
		if c.AvgPageSize > maxS {
			maxS = c.AvgPageSize
		}
	}
	for _, c := range clusters {
		var s float64
		if maxT > 0 {
			s += c.AvgDistinctTerms / maxT
		}
		if maxF > 0 {
			s += c.AvgMaxFanout / maxF
		}
		if maxS > 0 {
			s += c.AvgPageSize / maxS
		}
		c.Score = s / 3
	}
}
