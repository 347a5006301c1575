package thor

import (
	"testing"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/objects"
	"thor/internal/probe"
	"thor/internal/quality"
)

// TestPipelineEndToEnd drives the complete THOR pipeline — probing, page
// clustering, QA-Pagelet identification, QA-Object partitioning, field
// alignment — across several simulated sites and checks the paper's
// quality bar at each stage.
func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const nSites = 8
	sites := deepweb.NewSites(nSites, 2024)
	plan := probe.NewPlan(100, 10, 17)
	prober := &probe.Prober{Plan: plan, Labeler: deepweb.Labeler()}
	partitioner := objects.NewPartitioner(objects.Config{})

	var counter quality.Counter
	var entropySum float64
	objectTallies := quality.Counter{}
	for _, site := range sites {
		col := prober.ProbeSite(site)
		if len(col.Pages) != 110 {
			t.Fatalf("site %d: %d pages probed", site.ID(), len(col.Pages))
		}

		cfg := core.DefaultConfig()
		cfg.Seed = int64(site.ID()) + 5
		res := core.NewExtractor(cfg).Extract(col.Pages)

		// Phase 1: clusters must track classes.
		entropySum += quality.Entropy(res.Phase1.Clustering, col.Labels(), int(corpus.NumClasses))

		// Phase 2: extraction quality.
		c, i, total := core.Score(res.Pagelets, col.Pages)
		counter.Add(c, i, total)

		// Stage 3: object counts against ground truth on correctly
		// extracted multi-match pagelets.
		for _, pl := range res.Pagelets {
			truth := pl.Page.TruthObjects()
			if len(truth) < 2 {
				continue // single-match detail pages vary in grain
			}
			hit := false
			for _, tp := range pl.Page.TruthPagelets() {
				if tp == pl.Node {
					hit = true
				}
			}
			if !hit {
				continue
			}
			objs := partitioner.Partition(pl.Node, pl.Objects)
			match := 0
			for _, o := range objs {
				for _, want := range truth {
					if o == want {
						match++
						break
					}
				}
			}
			objectTallies.Add(match, len(objs), len(truth))
		}
	}

	if avg := entropySum / nSites; avg > 0.05 {
		t.Errorf("average clustering entropy = %.4f, want ≤ 0.05 (paper: 0.04)", avg)
	}
	pr := counter.PR()
	if pr.Precision < 0.9 || pr.Recall < 0.85 {
		t.Errorf("overall P=%.3f R=%.3f (c=%d i=%d t=%d), want near paper's 0.97/0.96",
			pr.Precision, pr.Recall, counter.Correct, counter.Identified, counter.Total)
	}
	if objectTallies.Total == 0 {
		t.Fatal("no multi-match pagelets reached object scoring")
	}
	opr := objectTallies.PR()
	if opr.Precision < 0.9 || opr.Recall < 0.9 {
		t.Errorf("QA-Object partitioning P=%.3f R=%.3f (c=%d i=%d t=%d)",
			opr.Precision, opr.Recall, objectTallies.Correct,
			objectTallies.Identified, objectTallies.Total)
	}
}

// TestPipelineCorpusPersistence exercises probe → save → load → extract:
// a corpus written to disk and read back extracts identically.
func TestPipelineCorpusPersistence(t *testing.T) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 3, Seed: 99})
	prober := &probe.Prober{Plan: probe.NewPlan(50, 5, 3), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	orig := &corpus.Corpus{Collections: []*corpus.Collection{col}}

	path := t.TempDir() + "/corpus.gz"
	if err := orig.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := corpus.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.NextCollection(); err != nil {
		t.Fatal(err)
	}
	loaded, err := corpus.Collect(st)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Seed = 31
	a := core.NewExtractor(cfg).Extract(orig.Collections[0].Pages)
	b := core.NewExtractor(cfg).Extract(loaded)
	if len(a.Pagelets) != len(b.Pagelets) {
		t.Fatalf("pagelets: %d from original, %d from loaded corpus",
			len(a.Pagelets), len(b.Pagelets))
	}
	for i := range a.Pagelets {
		if a.Pagelets[i].Path != b.Pagelets[i].Path {
			t.Errorf("pagelet %d: %q vs %q", i, a.Pagelets[i].Path, b.Pagelets[i].Path)
		}
	}
}
