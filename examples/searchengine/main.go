// Searchengine: the paper's motivating vision end to end (Section 1) — a
// deep-web search engine over many sources. THOR probes a fleet of
// simulated deep-web sites, extracts the QA-Pagelets, partitions them into
// QA-Objects, and indexes every object. The resulting engine supports the
// two retrieval modes the paper calls for:
//
//   - searching by fine-grained content: "which objects across all sources
//     mention X?", with BM25 ranking over object text;
//   - searching by sites: "which sources answer queries about X at all?".
package main

import (
	"fmt"
	"strings"

	"thor/internal/core"
	"thor/internal/deepweb"
	"thor/internal/objects"
	"thor/internal/probe"
	"thor/internal/qaindex"
)

func main() {
	const nSites = 6
	sites := deepweb.NewSites(nSites, 77)
	prober := &probe.Prober{Plan: probe.NewPlan(90, 9, 13), Labeler: deepweb.Labeler()}
	partitioner := objects.NewPartitioner(objects.Config{})
	var docs []qaindex.Doc

	fmt.Printf("building a deep-web search engine over %d sources…\n", nSites)
	for _, site := range sites {
		col := prober.ProbeSite(site)
		cfg := core.DefaultConfig()
		cfg.Seed = int64(site.ID())
		res := core.NewExtractor(cfg).Extract(col.Pages)
		added := qaindex.DocsFromPagelets(site.ID(), site.Name(), res.Pagelets, partitioner)
		docs = append(docs, added...)
		fmt.Printf("  %-22s %3d pages → %3d pagelets → %4d QA-Objects indexed\n",
			site.Name(), len(col.Pages), len(res.Pagelets), len(added))
	}
	// The sharded engine: documents hash-partitioned across segments,
	// top-k served with block-max early termination.
	index := qaindex.BuildSharded(docs, 4, 0)
	fmt.Printf("\n%s\n", index)

	// Mode 1: fine-grained content search across every source.
	for _, q := range []string{"gold silver", "winter garden"} {
		fmt.Printf("\nsearch %q:\n", q)
		for _, h := range index.Search(q, 4) {
			text := h.Doc.Text
			if len(text) > 68 {
				text = text[:68] + "…"
			}
			fmt.Printf("  %5.2f  [%s] %s\n", h.Score, h.Doc.SiteName, strings.TrimSpace(text))
		}
	}

	// Mode 2: search by sites — which sources answer a topic?
	topic := "price"
	fmt.Printf("\nsources answering %q:\n", topic)
	for _, s := range index.SitesSupporting(topic) {
		fmt.Printf("  %-22s best %5.2f, %d matching objects\n", s.SiteName, s.Score, s.Matches)
	}
}
