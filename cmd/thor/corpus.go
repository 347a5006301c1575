package main

import (
	"fmt"
	"io"
	"strings"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/objects"
	"thor/internal/quality"
)

// renderSiteReport renders one collection's extraction result — the same
// report whether the pages were probed or streamed off a corpus file.
func renderSiteReport(name string, pages []*corpus.Page, res *core.Result, verbose bool) siteReport {
	var b strings.Builder
	dist := [corpus.NumClasses]int{}
	for _, p := range pages {
		dist[p.Class]++
	}
	fmt.Fprintf(&b, "\n%s — %d pages (%d multi, %d single, %d no-match, %d error)\n",
		name, len(pages), dist[corpus.MultiMatch], dist[corpus.SingleMatch],
		dist[corpus.NoMatch], dist[corpus.ErrorPage])

	for rank, pc := range res.Phase1.Ranked {
		passed := " "
		if rank < len(res.PassedClusters) {
			passed = "*"
		}
		fmt.Fprintf(&b, "  %s cluster %d: %3d pages, score %.3f (terms %.0f, fanout %.1f, size %.0fB)\n",
			passed, rank+1, len(pc.Pages), pc.Score,
			pc.AvgDistinctTerms, pc.AvgMaxFanout, pc.AvgPageSize)
	}
	c, i, t := core.Score(res.Pagelets, pages)
	pr := quality.PrecisionRecall(c, i, t)
	fmt.Fprintf(&b, "  extracted %d QA-Pagelets: precision %.3f, recall %.3f\n",
		len(res.Pagelets), pr.Precision, pr.Recall)

	if verbose {
		part := objects.NewPartitioner(objects.Config{})
		for _, pl := range res.Pagelets[:min(3, len(res.Pagelets))] {
			objs := part.Partition(pl.Node, pl.Objects)
			fmt.Fprintf(&b, "\n  page %q → pagelet %s (%d QA-Objects)\n", pl.Page.Query, pl.Path, len(objs))
			for _, o := range objs[:min(3, len(objs))] {
				text := o.Text()
				if len(text) > 100 {
					text = text[:100] + "…"
				}
				fmt.Fprintf(&b, "    object: %s\n", strings.TrimSpace(text))
			}
		}
	}
	return siteReport{out: b.String(), c: c, i: i, t: t}
}

// runCorpusFile extracts QA-Pagelets from every collection of a persisted
// corpus file and writes the per-site reports (plus an overall tally when
// the file holds several sites) to w. Pages come off the file one at a
// time (corpus.OpenStream), and each collection runs through the
// bounded-memory streaming build; collections without pages are skipped.
func runCorpusFile(w io.Writer, path string, mkCfg func(siteID int) core.Config, verbose bool) (err error) {
	ps, err := corpus.OpenStream(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ps.Close(); err == nil {
			err = cerr
		}
	}()
	var reports []siteReport
	for {
		siteID, name, err := ps.NextCollection()
		if err == io.EOF {
			return writeReports(w, reports)
		}
		if err != nil {
			return err
		}
		src := &keptPages{src: ps}
		m, err := core.NewExtractor(mkCfg(siteID)).BuildModelFromSource(src)
		if err != nil {
			return err
		}
		reports = append(reports, renderSiteReport(name, src.pages, m.Training(), verbose))
	}
}

// writeReports writes the per-site reports, then the overall tally when
// there are several.
func writeReports(w io.Writer, reports []siteReport) error {
	var counter quality.Counter
	for _, r := range reports {
		if _, err := fmt.Fprint(w, r.out); err != nil {
			return err
		}
		counter.Add(r.c, r.i, r.t)
	}
	if len(reports) > 1 {
		pr := counter.PR()
		if _, err := fmt.Fprintf(w, "\noverall: precision %.3f, recall %.3f over %d sites\n",
			pr.Precision, pr.Recall, len(reports)); err != nil {
			return err
		}
	}
	return nil
}

// keptPages is a Source that keeps every page it yields: the report
// scores the build's pagelets against the collection's pages. The build
// releases the pages' derived trees and signatures, not the pages.
type keptPages struct {
	src   corpus.Source
	pages []*corpus.Page
}

func (k *keptPages) Next() (*corpus.Page, error) {
	p, err := k.src.Next()
	if err == nil {
		k.pages = append(k.pages, p)
	}
	return p, err
}
