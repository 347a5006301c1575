package experiments

import (
	"strings"
	"testing"
)

func TestServeBenchmark(t *testing.T) {
	res := ServeBenchmark(tinyOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want build and apply", len(res.Rows))
	}
	build, apply := res.Rows[0], res.Rows[1]
	if build.Label != "build/site" || apply.Label != "apply/page" {
		t.Fatalf("row labels %q, %q", build.Label, apply.Label)
	}
	for _, r := range res.Rows {
		for i, v := range r.Values {
			if v <= 0 {
				t.Errorf("%s column %d = %v, want positive", r.Label, i, v)
			}
		}
	}
	// The whole point of the staged engine: serving a page must be far
	// cheaper than building a site's model. Even on the tiny corpus the
	// real gap is ~1000×; 10× leaves wide slack for noisy CI machines.
	if buildMS, applyMS := build.Values[1], apply.Values[1]; buildMS < 10*applyMS {
		t.Errorf("build %vms/site vs apply %vms/page: per-page serving is not clearly cheaper", buildMS, applyMS)
	}
	// ApplyHTML serves the same verdicts as Apply (contract-tested
	// bit-identical; the benchmark cross-checks page by page).
	if res.Mismatches != 0 {
		t.Errorf("ApplyHTML disagreed with Apply on %d pages", res.Mismatches)
	}
	if res.Pages <= 0 || res.ApplySeconds <= 0 {
		t.Errorf("throughput fields not populated: pages=%d apply=%v", res.Pages, res.ApplySeconds)
	}
	var quality string
	for _, n := range res.Notes {
		if strings.Contains(n, "precision") {
			quality = n
		}
	}
	if quality == "" {
		t.Error("no serving-quality note on the table")
	}
}
