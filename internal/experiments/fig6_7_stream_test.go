package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"

	"thor/internal/cluster"
	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/quality"
	"thor/internal/synth"
	"thor/internal/vector"
)

// eagerSynthInput and eagerClusterSynth are the pre-streaming reference
// implementation of the Figure 6/7 inner loop, preserved verbatim here so
// the contract test genuinely cross-checks two codepaths: the production
// sweep streams pages through a Sampler and a vector.Accumulator; this
// reference materializes the whole collection and weights it in one
// batch.
func eagerSynthInput(pages []synth.Page, a core.Approach) cluster.Input {
	return cluster.Input{
		N: len(pages),
		Interned: cluster.Memo(func() vector.Interned {
			docs := synth.TagSignatures(pages)
			if a.ContentBased() {
				docs = synth.ContentSignatures(pages)
			}
			if a.RawWeighted() {
				return vector.RawFrequencyInterned(docs)
			}
			return vector.TFIDFInterned(docs)
		}),
		Sizes: cluster.Memo(func() []int { return synth.Sizes(pages) }),
	}
}

func eagerClusterSynth(t *testing.T, pages []synth.Page, a core.Approach, o Options, salt int64) (float64, float64) {
	t.Helper()
	labels := synth.Labels(pages)
	restarts := o.KMRestarts
	if len(pages) > 1100 {
		restarts = 1
	}
	c, err := cluster.MustLookup(a.DefaultClusterer())
	if err != nil {
		t.Fatalf("lookup %s: %v", a.DefaultClusterer(), err)
	}
	in := eagerSynthInput(pages, a)
	start := time.Now()
	res, err := c.Cluster(in, cluster.Config{K: o.K, Restarts: restarts, Seed: o.Seed + salt, Workers: 1})
	secs := time.Since(start).Seconds()
	if err != nil {
		t.Fatalf("cluster %s: %v", a, err)
	}
	return quality.Entropy(res.Clustering, labels, int(corpus.NumClasses)), secs
}

// TestFig67StreamingWorkerCountIndependence is the experiments-layer
// streaming contract: for every approach, size, and site of the tiny
// sweep, the streaming inner loop must reproduce the eager reference's
// entropy bit for bit, and the whole Figure 6 must be identical at every
// worker count. The name keeps it inside CI's determinism matrix.
func TestFig67StreamingWorkerCountIndependence(t *testing.T) {
	o := tinyOptions()
	corp := BuildCorpus(o)
	models := make([]*synth.Model, len(corp.Collections))
	for i, col := range corp.Collections {
		models[i] = synth.BuildModel(col.Pages)
	}

	// Per-run bit-identity: streaming vs eager reference, every approach
	// and size. The identity holds for any knob values, so the check runs
	// with few restarts and thins the site set at the larger size to stay
	// fast.
	oi := o
	oi.KMRestarts = 2
	for _, size := range SynthSizes(oi) {
		sites := len(models)
		if size > 110 && sites > 2 {
			sites = 2
		}
		for m := 0; m < sites; m++ {
			model := models[m]
			sampleSeed := oi.Seed + int64(m*31+size)
			pages := model.Sample(size, sampleSeed)
			for _, a := range SynthApproaches {
				wantEnt, _ := eagerClusterSynth(t, pages, a, oi, int64(m))
				gotEnt, _ := clusterSynthStream(model, size, sampleSeed, a, oi, int64(m))
				if gotEnt != wantEnt { //thorlint:allow no-float-eq bit-identity is the contract under test
					t.Errorf("%s size=%d site=%d: streaming entropy %v, eager %v", a, size, m, gotEnt, wantEnt)
				}
			}
		}
	}

	// Cross-worker-count identity of the full figure (a smaller sweep:
	// the worker knob must not perturb any series point).
	var first *Figure
	for _, w := range []int{1, 3, 0} {
		ow := o
		ow.Workers = w
		ow.SynthCap = 110
		ent := Fig6(ow)
		if first == nil {
			first = ent
		} else if !reflect.DeepEqual(first.Series, ent.Series) {
			t.Errorf("workers=%d: Figure 6 series differ from workers=1", w)
		}
	}
}

// TestFig67ZeroRunsGuard: with no sites there are no synthetic models, so
// every (approach, size) cell has zero runs — the figures must come back
// with empty series (points skipped), never NaN entries.
func TestFig67ZeroRunsGuard(t *testing.T) {
	o := tinyOptions()
	o.Sites = 0
	ent, times := Fig67(o)
	for _, f := range []*Figure{ent, times} {
		// Every approach series plus the dbscan comparison series.
		if len(f.Series) != len(SynthApproaches)+1 {
			t.Fatalf("%s: %d series, want %d", f.Title, len(f.Series), len(SynthApproaches)+1)
		}
		for _, s := range f.Series {
			if len(s.X) != 0 || len(s.Y) != 0 {
				t.Errorf("%s series %s: %d points, want none with zero sites", f.Title, s.Name, len(s.X))
			}
			for _, y := range s.Y {
				if math.IsNaN(y) {
					t.Errorf("%s series %s: NaN point", f.Title, s.Name)
				}
			}
		}
	}
}

// TestFig67GuardKeepsFullSizesAligned: a zero budget at one scale must not
// desynchronize the x axes — every emitted point carries its own x value.
func TestFig67GuardKeepsFullSizesAligned(t *testing.T) {
	o := tinyOptions()
	o.SynthCap = 110
	ent, _ := Fig67(o)
	sizes := SynthSizes(o)
	for _, s := range ent.Series {
		if len(s.X) != len(sizes) {
			t.Fatalf("series %s: %d points, want %d", s.Name, len(s.X), len(sizes))
		}
		for i, x := range s.X {
			if int(x) != sizes[i] {
				t.Errorf("series %s: X[%d] = %g, want %d", s.Name, i, x, sizes[i])
			}
			if math.IsNaN(s.Y[i]) {
				t.Errorf("series %s: NaN at size %d", s.Name, sizes[i])
			}
		}
	}
}
