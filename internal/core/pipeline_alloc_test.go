package core

import (
	"context"
	"testing"
)

// maxSteadyStateAllocs is the allocation budget for one warm ApplyHTML
// call. The pipeline's only steady-state allocation is the returned path
// string (plus occasional pool/arena growth amortized to zero); the
// budget leaves one spare so a page that happens to grow a scratch
// buffer once inside the measured window doesn't flake.
const maxSteadyStateAllocs = 2

// maxSteadyStateAllocsContent is the budget for a TFIDFContent model,
// whose signature also stems the page's text: warm, each spelling's stem
// comes from the signature scratch's memo, so a page costs the answer,
// as for tags, and a spelling the memo has not met costs a copy and its
// stem. Without the memo a page cost hundreds of allocations.
const maxSteadyStateAllocsContent = 2

// TestApplyHTMLSteadyStateAllocs is the allocation-discipline gate CI
// runs as a benchmark smoke step: after warmup, serving a page through
// the pooled pipeline must cost at most maxSteadyStateAllocs
// allocations — the answer string, not trees, maps, or vectors.
func TestApplyHTMLSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI step")
	}
	for _, c := range []struct {
		a      Approach
		budget float64
	}{{TFIDFTags, maxSteadyStateAllocs}, {TFIDFContent, maxSteadyStateAllocsContent}} {
		t.Run(c.a.String(), func(t *testing.T) { checkSteadyStateAllocs(t, c.a, c.budget) })
	}
}

func checkSteadyStateAllocs(t *testing.T, a Approach, budget float64) {
	m, _, htmls := buildModelForApproach(t, a)
	var sum float64
	defer func() {
		t.Logf("mean %.2f allocs per warm ApplyHTML over %d pages", sum/float64(len(htmls)), len(htmls))
	}()
	ctx := context.Background()
	// Warm the pool and grow every scratch buffer to its high-water mark.
	for range 3 {
		for _, html := range htmls {
			if _, _, err := m.ApplyHTML(ctx, html); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, html := range htmls {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := m.ApplyHTML(ctx, html); err != nil {
				t.Fatal(err)
			}
		})
		sum += allocs
		if allocs > budget {
			t.Errorf("page %d: %.1f allocs per warm ApplyHTML, budget %v", i, allocs, budget)
		}
		// The byte entry point the fleet handler serves through must stay
		// inside the same budget: the unsafe view adds no copy and no
		// allocation over the string form.
		body := []byte(html)
		allocs = testing.AllocsPerRun(20, func() {
			if _, _, err := m.ApplyHTMLBytes(ctx, body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("page %d: %.1f allocs per warm ApplyHTMLBytes, budget %v", i, allocs, budget)
		}
	}
}
