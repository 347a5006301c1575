package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/probe"
)

// probeTestCorpus probes a few simulated sites.
func probeTestCorpus(nsites int) *corpus.Corpus {
	sites := deepweb.NewSites(nsites, 42)
	prober := &probe.Prober{Plan: probe.NewPlan(20, 4, 43), Labeler: deepweb.Labeler()}
	return prober.ProbeAll(deepweb.AsProbeSites(sites))
}

// writeCorpus persists c into a fresh temporary file.
func writeCorpus(t *testing.T, c *corpus.Corpus) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.thor.json.gz")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTestCorpus probes a few simulated sites and persists them.
func writeTestCorpus(t *testing.T, nsites int) string {
	t.Helper()
	return writeCorpus(t, probeTestCorpus(nsites))
}

func testConfig(workers int) func(int) core.Config {
	return func(siteID int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = 42 + int64(siteID)
		cfg.Workers = workers
		return cfg
	}
}

// TestCorpusFileEagerStreamIdenticalOutput: -corpus streams each
// collection through BuildModelFromSource, and its report must be byte
// for byte the one the eager reference renders — Extract over the
// in-memory probed collections — at every worker count.
func TestCorpusFileEagerStreamIdenticalOutput(t *testing.T) {
	c := probeTestCorpus(2)
	path := writeCorpus(t, c)
	var reports []siteReport
	for _, col := range c.Collections {
		res := core.NewExtractor(testConfig(1)(col.SiteID)).Extract(col.Pages)
		reports = append(reports, renderSiteReport(col.Name, col.Pages, res, true))
	}
	var eager bytes.Buffer
	if err := writeReports(&eager, reports); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"precision", "overall:", "cluster 1:", "QA-Objects"} {
		if !strings.Contains(eager.String(), want) {
			t.Errorf("eager report missing %q:\n%s", want, eager.String())
		}
	}
	for _, workers := range []int{1, 2, 0} {
		var stream bytes.Buffer
		if err := runCorpusFile(&stream, path, testConfig(workers), true); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if eager.String() != stream.String() {
			t.Errorf("workers=%d: streamed and eager reports differ:\n--- eager ---\n%s\n--- stream ---\n%s",
				workers, eager.String(), stream.String())
		}
	}
}

// TestCorpusFileSkipsEmptyCollections: an empty collection between two
// full ones changes nothing in the report.
func TestCorpusFileSkipsEmptyCollections(t *testing.T) {
	c := probeTestCorpus(2)
	var want, got bytes.Buffer
	if err := runCorpusFile(&want, writeCorpus(t, c), testConfig(1), false); err != nil {
		t.Fatal(err)
	}
	c.Collections = []*corpus.Collection{c.Collections[0], {SiteID: 7, Name: "empty"}, c.Collections[1]}
	if err := runCorpusFile(&got, writeCorpus(t, c), testConfig(1), false); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("an empty collection changed the report:\n--- without ---\n%s\n--- with ---\n%s", want.String(), got.String())
	}
}

// TestCorpusFileErrors: a missing file and a truncated one are errors.
func TestCorpusFileErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runCorpusFile(&buf, "/nonexistent/c.gz", testConfig(1), false); err == nil {
		t.Error("missing file did not error")
	}
	path := writeTestCorpus(t, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCorpusFile(&buf, path, testConfig(1), false); err == nil {
		t.Error("truncated file did not error")
	}
}

// TestCorpusFileSingleSiteNoOverall: one collection renders no pooled
// tally line.
func TestCorpusFileSingleSiteNoOverall(t *testing.T) {
	path := writeTestCorpus(t, 1)
	var buf bytes.Buffer
	if err := runCorpusFile(&buf, path, testConfig(1), false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "overall:") {
		t.Errorf("single-site output carries an overall line:\n%s", buf.String())
	}
}
