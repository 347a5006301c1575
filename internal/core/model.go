package core

import (
	"context"
	"fmt"
	"sync"

	"thor/internal/corpus"
	"thor/internal/vector"
)

// Model is the learned, servable artifact of a two-phase THOR analysis:
// everything needed to extract the QA-Pagelet from a *fresh* page of the
// analyzed site in one pass, with no re-clustering. It holds the phase-one
// assignment geometry (one centroid per cluster plus the training document
// frequencies that reproduce the TFIDF weighting for unseen pages) and one
// compiled Wrapper per cluster that passed phase two. Build once with
// Extractor.BuildModel, apply per page with Apply, persist with Save/Load
// — the train-once/serve-many split a deep-web search engine runs on.
//
// A Model is immutable after BuildModel/Load and safe for concurrent
// Apply calls.
type Model struct {
	// Cfg is the configuration the model was trained under.
	Cfg Config
	// NDocs is the number of training pages — the n of the TFIDF formula.
	NDocs int
	// DF maps each signature term to the number of training pages
	// containing it, so a fresh page is weighted in the training space.
	DF map[string]int
	// Dict is the training vocabulary's interning dictionary: every
	// signature term mapped to a dense int32 ID. Fresh pages are interned
	// against it at Apply time, so assignment runs on the integer
	// kernels; terms never seen in training miss the dictionary and drop
	// (they kept no weight under the DF table either).
	Dict *vector.Dict
	// Centroids holds one assignment-space centroid per phase-one cluster
	// in Dict's ID space, indexed by cluster id. Fresh pages are assigned
	// to the most similar centroid by cosine similarity.
	Centroids []vector.IDVec
	// Wrappers[c] is the wrapper compiled from cluster c's phase-two
	// result, or nil when the cluster did not pass phase one or phase two
	// selected no QA-Pagelet region — pages assigned there yield nothing,
	// which is the correct answer for no-match and error pages.
	Wrappers []*Wrapper
	// Baseline summarizes the training pages' nearest-centroid distance
	// distribution and per-cluster sizes — the reference a lifecycle
	// observer detects drift against and the weights of the mini-batch
	// Refine step. Built, refined, and loaded models always carry one; a
	// model assembled by hand without one serves with drift detection
	// disabled and cannot Refine.
	Baseline *DriftBaseline
	// Rev is the model's lifecycle revision: 0 for a freshly built or
	// loaded model, incremented by every Refine/RebuildFrom, persisted so
	// a maintained model's lineage survives a save/load cycle.
	Rev int

	// training is the full training-run result, retained so Extract stays
	// a thin composition over BuildModel. It is not persisted.
	training *Result

	// weightOnce/weighting lazily cache the per-ID weighting tables the
	// pooled apply path uses (see applyWeighting). Unexported, so models
	// loaded from disk rebuild them on first use.
	weightOnce sync.Once
	weighting  vector.Weighting
}

// BuildModel runs both THOR phases over a site's sampled pages and
// compiles the result into a servable Model. Each page's signature and
// vector is computed exactly once and shared by the clustering call, the
// centroid computation, and the document-frequency table. The error cases
// are configuration-level: an unknown Config.Clusterer name or a clusterer
// that cannot run on page input.
//
// BuildModel is the eager face of the streaming build: it feeds the
// slice through the Source adapter without releasing any page's cached
// views, so shared corpora keep their warm trees. The two paths are
// bit-identical (pinned by the staged-vs-legacy contract test and by
// TestStreamingBuildWorkerCountIndependence).
func (e *Extractor) BuildModel(pages []*corpus.Page) (*Model, error) {
	return e.buildModel(corpus.NewSliceSource(pages), false)
}

// Training returns the full two-phase result over the pages the model was
// built from (nil for a model loaded from disk, which deliberately carries
// no training pages).
func (m *Model) Training() *Result { return m.training }

// Apply extracts QA-Pagelets from one fresh page: the page's signature
// is weighted in the model's training space (the training document
// frequencies, so the page lands where it would have landed had it been
// part of the training run) straight into the training dictionary's ID
// space, assigned to the nearest centroid by cosine similarity (lowest
// cluster id on ties), and only that cluster's wrapper runs — no
// clustering, no cross-page analysis. A page assigned to a wrapperless
// cluster, or rejected by the wrapper's distance bound, yields an empty
// extraction with no error: that is the model's verdict that the page
// holds no QA-Pagelet.
//
// It is ApplyHTML over a page whose tree and signature are cached on the
// page: the weighting, assignment, and wrapper scoring are the same code.
func (m *Model) Apply(page *corpus.Page) ([]*Pagelet, error) {
	return m.ApplyContext(context.Background(), page)
}

// ApplyContext is Apply with caller-controlled cancellation: the serve
// handler threads each request's context here so an abandoned request
// stops before the extraction work runs. Extraction itself is
// deterministic CPU work with no further blocking points, so one check
// up front suffices; a ctx error is returned verbatim for the caller to
// map onto its transport (the HTTP handler answers 503).
func (m *Model) ApplyContext(ctx context.Context, page *corpus.Page) ([]*Pagelet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if page == nil {
		return nil, fmt.Errorf("core: Apply on nil page")
	}
	if len(m.Centroids) == 0 {
		return nil, fmt.Errorf("core: model has no clusters to assign to")
	}
	s := applyPool.Get().(*applyScratch)
	defer applyPool.Put(s)
	v := m.Dict.InternCounts(signatureOf(page, m.Cfg.Approach), m.applyWeighting(), &s.intern)
	best, _ := vector.AssignNearest(v, m.Centroids)
	w := m.Wrappers[best]
	if w == nil {
		return nil, nil
	}
	node, _ := w.match(page.Tree(), s)
	if node == nil {
		return nil, nil
	}
	return []*Pagelet{{Page: page, Node: node, Path: node.Path()}}, nil
}

// String summarizes the model.
func (m *Model) String() string {
	wrapped := 0
	for _, w := range m.Wrappers {
		if w != nil {
			wrapped++
		}
	}
	return fmt.Sprintf("model{%s over %d pages: %d clusters, %d wrapped}",
		m.Cfg.Approach, m.NDocs, len(m.Centroids), wrapped)
}
