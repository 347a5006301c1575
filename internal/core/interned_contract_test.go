package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"thor/internal/cluster"
	"thor/internal/corpus"
	"thor/internal/parallel"
	"thor/internal/stem"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector/vectorref"
)

// This file pins the interned-dictionary refactor to the pre-interning
// behavior: every reference function below reproduces the string-keyed
// pipeline as it stood before term IDs existed — clustering batch
// string-keyed vectors with the reference K-Means (vectorref), ranking
// subtree sets with string TFIDF cosines, and assigning fresh pages with
// string-space cosine against projected centroids (applyRef). The production pipeline must match all
// of it bit for bit, at one worker and at many.

// stringPathPhase1 is Phase1 as it ran before interning: batch
// string-keyed vectors over the page signatures, clustered by the string
// K-Means reference, ranked from each page's tree.
func stringPathPhase1(pages []*corpus.Page, cfg Config) Phase1Result {
	if name := cfg.Approach.DefaultClusterer(); cfg.Clusterer != "" || name != "kmeans" {
		panic("interned contract test: the string reference covers kmeans only")
	}
	a := cfg.Approach
	sigs := TagSignatures(pages)
	if a.ContentBased() {
		sigs = ContentSignatures(pages)
	}
	var vecs []vectorref.Sparse
	if a.RawWeighted() {
		vecs = vectorref.RawFrequency(sigs)
	} else {
		vecs = vectorref.TFIDF(sigs)
	}
	res := vectorref.KMeans(vecs, vectorref.KMeansConfig{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed})
	cl := cluster.Clustering{K: len(res.Centroids), Assign: res.Assign, Clusters: make([][]int, len(res.Centroids))}
	for i, c := range res.Assign {
		cl.Clusters[c] = append(cl.Clusters[c], i)
	}
	return rankClusters(pages, cl, res.Similarity)
}

// rankClusters builds and ranks the per-cluster statistics of Section
// 3.1.3 over an existing clustering, reading the per-page scalars from
// the (lazily cached) page trees through the tree's own statistics, not
// a build's spelling table.
func rankClusters(pages []*corpus.Page, cl cluster.Clustering, sim float64) Phase1Result {
	stats := make([]pageStat, len(pages))
	for i, p := range pages {
		t := p.Tree()
		stats[i] = pageStat{distinctTerms: t.DistinctTerms(), maxFanout: t.MaxFanout(), size: p.Size()}
	}
	return rankClustersFromStats(pages, stats, cl, sim)
}

// stringIntraSim is intraSetSimilarity before interning: string-keyed
// TFIDF (or raw-frequency) member vectors and the string Cosine kernel.
func stringIntraSim(s *SubtreeSet, cfg Config) float64 {
	n := len(s.Members)
	if n < 2 {
		return 1
	}
	docs := make([]map[string]int, n)
	empty := true
	for i, m := range s.Members {
		docs[i] = m.Node.TermCounts(stem.Stem)
		if len(docs[i]) > 0 {
			empty = false
		}
	}
	if empty {
		return 1
	}
	var vecs []vectorref.Sparse
	if cfg.RawContentVectors {
		vecs = vectorref.RawFrequency(docs)
	} else {
		vecs = vectorref.TFIDF(docs)
	}
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += vectorref.Cosine(vecs[i], vecs[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// stringPathPhase2 is Phase2 with the ranking step running on
// stringIntraSim — the full phase-two tail (selection, pagelet and
// QA-Object collection) included, so the comparison covers the final
// pagelet paths, not just the similarity values.
func stringPathPhase2(pages []*corpus.Page, cfg Config, seed int64) *Phase2Result {
	perPage := parallel.Map(len(pages), cfg.Workers, func(i int) []*Candidate {
		return SinglePageCandidates(pages[i].Tree(), i)
	})
	rng := rand.New(rand.NewSource(seed))
	simp := strdist.NewSimplifier(cfg.PathSimplifyQ)
	sets := FindCommonSubtreeSets(perPage, cfg, rng, simp)
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
	parallel.ForEach(len(sets), cfg.Workers, func(i int) {
		s := sets[i]
		s.IntraSim = stringIntraSim(s, cfg)
		s.Dynamic = s.IntraSim <= cfg.SimThreshold
	})
	sort.SliceStable(sets, func(i, j int) bool {
		return sets[i].IntraSim < sets[j].IntraSim
	})
	res := &Phase2Result{Sets: sets}
	res.SelectedSets = SelectPagelets(sets, cfg)
	if len(res.SelectedSets) == 0 {
		return res
	}
	res.Selected = res.SelectedSets[0]
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

// TestInternedPipelineMatchesStringPathWorkerCountIndependence is the
// repo-wide interning contract: phase-one clusters and ranking,
// phase-two subtree sets and pagelet paths, and Model.Apply on pages
// never seen in training are all bit-identical to the pre-interning
// string-keyed pipeline, at workers=1 and workers=N — and identical
// across worker counts.
func TestInternedPipelineMatchesStringPathWorkerCountIndependence(t *testing.T) {
	col := probeSite(t, 3, 7)
	fresh := probeSite(t, 3, 99) // same site, different probe plan: unseen pages for Apply

	var refP1 Phase1Result
	var refApplied [][]*Pagelet
	for wi, w := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Workers = w

		// Phase 1: production interned clustering vs the string-only input.
		got := Phase1(col.Pages, cfg)
		want := stringPathPhase1(col.Pages, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: interned Phase1 differs from string path", w)
		}
		if wi == 0 {
			refP1 = got
		} else if !reflect.DeepEqual(got, refP1) {
			t.Fatalf("workers=%d: Phase1 differs from workers=1", w)
		}

		// Phase 2 on every ranked cluster, with the pipeline's own seed
		// derivation: interned intra-set ranking vs the string reference,
		// down to the extracted pagelet paths and QA-Objects.
		for ci, pc := range got.Ranked {
			seed := parallel.DeriveSeed(cfg.Seed, int64(ci))
			p2 := Phase2(pc.Pages, cfg, seed)
			ref := stringPathPhase2(pc.Pages, cfg, seed)
			if !reflect.DeepEqual(p2, ref) {
				t.Fatalf("workers=%d cluster %d: interned Phase2 differs from string path", w, ci)
			}
		}

		// Model.Apply on unseen pages: interned assignment vs the string
		// cosine loop, including the extracted pagelets.
		m, err := NewExtractor(cfg).BuildModel(col.Pages)
		if err != nil {
			t.Fatal(err)
		}
		applied := make([][]*Pagelet, len(fresh.Pages))
		for i, page := range fresh.Pages {
			gotP, err := m.Apply(page)
			if err != nil {
				t.Fatalf("workers=%d: Apply(%s): %v", w, page.URL, err)
			}
			if wantP := applyRef(m, page); !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("workers=%d page %s: interned Apply differs from string path", w, page.URL)
			}
			applied[i] = gotP
		}
		if wi == 0 {
			refApplied = applied
		} else if !reflect.DeepEqual(applied, refApplied) {
			t.Fatalf("workers=%d: Apply output differs from workers=1", w)
		}
	}
}
