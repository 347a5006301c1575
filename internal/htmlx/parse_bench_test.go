package htmlx_test

import (
	"testing"

	"thor/internal/deepweb"
	"thor/internal/htmlx"
	"thor/internal/probe"
	"thor/internal/tagtree"
)

// parsed keeps the benchmark's trees reachable, so the compiler cannot
// drop the parse.
var parsed *tagtree.Node

// BenchmarkParse parses 110 answer pages, 22 probed from each of five
// simulated sites, per iteration, as training parses its sample.
func BenchmarkParse(b *testing.B) {
	var html []string
	for _, s := range deepweb.NewSites(5, 42) {
		pr := &probe.Prober{Plan: probe.NewPlan(20, 2, 7), Labeler: deepweb.Labeler()}
		for _, p := range pr.ProbeSite(s).Pages {
			html = append(html, p.HTML)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range html {
			parsed = htmlx.Parse(src)
		}
	}
}
