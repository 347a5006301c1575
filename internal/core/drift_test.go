package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
)

// TestBuildModelComputesBaseline checks that every built model carries a
// consistent drift baseline: the histogram holds exactly the training
// pages, the per-cluster sizes account for all of them, and the tables
// are shaped to the model's own geometry.
func TestBuildModelComputesBaseline(t *testing.T) {
	train := probeSite(t, 2, 1)
	m, err := NewExtractor(DefaultConfig()).BuildModel(train.Pages)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Baseline
	if b == nil {
		t.Fatal("built model carries no drift baseline")
	}
	if len(b.Hist) != DriftBuckets {
		t.Fatalf("baseline has %d histogram buckets, want %d", len(b.Hist), DriftBuckets)
	}
	if len(b.Sizes) != len(m.Centroids) {
		t.Fatalf("baseline sizes %d clusters, model has %d centroids", len(b.Sizes), len(m.Centroids))
	}
	if got := b.total(); got != int64(m.NDocs) {
		t.Errorf("baseline histogram holds %d pages, trained on %d", got, m.NDocs)
	}
	var sized int64
	for _, c := range b.Sizes {
		sized += c
	}
	if sized != int64(m.NDocs) {
		t.Errorf("baseline sizes sum to %d pages, trained on %d", sized, m.NDocs)
	}
	if m.Rev != 0 {
		t.Errorf("fresh model at revision %d, want 0", m.Rev)
	}
}

// TestDriftBucketClamps pins the histogram's edge behavior: in-range
// distances land proportionally, out-of-range distances (negative
// similarity pushes d above 1; floating error can push it barely below 0)
// clamp into the edge buckets.
func TestDriftBucketClamps(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{
		{0, 0}, {0.049, 0}, {0.05, 1}, {0.5, 10}, {0.999, 19},
		{1, 19}, {1.7, 19}, {-0.001, 0},
	}
	for _, tc := range cases {
		if got := DriftBucket(tc.d); got != tc.want {
			t.Errorf("DriftBucket(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestRefineIsDeterministicAndVersioned checks the mini-batch step's
// contract: refining never mutates the receiver, bumps the revision,
// grows the baseline by exactly the batch, and is a pure function of
// (model, batch) — two refinements from the same inputs are bit-identical.
func TestRefineIsDeterministicAndVersioned(t *testing.T) {
	train := probeSite(t, 2, 1)
	m, err := NewExtractor(DefaultConfig()).BuildModel(train.Pages)
	if err != nil {
		t.Fatal(err)
	}
	batch := probeSite(t, 2, 777).Pages[:6]

	oldHist := append([]int64(nil), m.Baseline.Hist...)
	oldSizes := append([]int64(nil), m.Baseline.Sizes...)
	oldRev := m.Rev

	r1, err := m.Refine(batch)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Refine(batch)
	if err != nil {
		t.Fatal(err)
	}

	// The receiver is untouched.
	if !reflect.DeepEqual(m.Baseline.Hist, oldHist) || !reflect.DeepEqual(m.Baseline.Sizes, oldSizes) || m.Rev != oldRev {
		t.Fatal("Refine mutated the receiver's baseline or revision")
	}

	// Versioning and shared immutable state.
	if r1.Rev != m.Rev+1 {
		t.Errorf("refined revision %d, want %d", r1.Rev, m.Rev+1)
	}
	if r1.Dict != m.Dict || r1.NDocs != m.NDocs {
		t.Error("Refine must share the receiver's dictionary and NDocs")
	}
	if !reflect.DeepEqual(r1.DF, m.DF) {
		t.Error("Refine changed the DF table")
	}
	if len(r1.Wrappers) != len(m.Wrappers) {
		t.Error("Refine changed the wrapper table length")
	}

	// The baseline absorbed exactly the batch.
	if got, want := r1.Baseline.total(), m.Baseline.total()+int64(len(batch)); got != want {
		t.Errorf("refined baseline holds %d pages, want %d", got, want)
	}

	// Bit-identical across invocations.
	if !reflect.DeepEqual(r1.Centroids, r2.Centroids) {
		t.Error("two refinements from identical inputs produced different centroids")
	}
	if !reflect.DeepEqual(r1.Baseline, r2.Baseline) {
		t.Error("two refinements from identical inputs produced different baselines")
	}

	// And the refined model still serves: same page, some verdict, no error.
	for _, p := range batch {
		if _, err := r1.Apply(p); err != nil {
			t.Fatalf("refined model failed to apply: %v", err)
		}
	}
}

// TestRefineWeightsBatchLikeApply pins the batch vectors Refine works
// on to the reference apply-path vectorization: the histogram the
// refined baseline gained must be exactly the batch's nearest-centroid
// distances, with each page weighted by vectorizeRef against the refined
// centroids — for both weighting branches.
func TestRefineWeightsBatchLikeApply(t *testing.T) {
	for _, a := range []Approach{TFIDFTags, RawTags} {
		cfg := DefaultConfig()
		cfg.Approach = a
		m, err := NewExtractor(cfg).BuildModel(probeSite(t, 2, 1).Pages)
		if err != nil {
			t.Fatal(err)
		}
		batch := probeSite(t, 2, 777).Pages[:8]
		next, err := m.Refine(batch)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int64(nil), m.Baseline.Hist...)
		for _, p := range batch {
			_, sim := nearestRef(m.Dict, vectorizeRef(m, p), next.Centroids)
			want[DriftBucket(1-sim)]++
		}
		if !reflect.DeepEqual(next.Baseline.Hist, want) {
			t.Errorf("%v: refined histogram %v, want %v", a, next.Baseline.Hist, want)
		}
	}
}

// TestRefineRequiresBaseline: a model without a baseline (one assembled
// by hand) cannot refine — the mini-batch weights need the per-cluster training
// counts.
func TestRefineRequiresBaseline(t *testing.T) {
	train := probeSite(t, 1, 1)
	m, err := NewExtractor(DefaultConfig()).BuildModel(train.Pages)
	if err != nil {
		t.Fatal(err)
	}
	m.Baseline = nil
	if _, err := m.Refine(train.Pages[:2]); err == nil {
		t.Fatal("Refine succeeded without a baseline")
	}
	if _, err := m.Refine(nil); err == nil {
		t.Fatal("Refine succeeded on an empty batch")
	}
}

// TestRebuildFromVersionsAndRetrains checks the severe remedy: a full
// rebuild from fresh pages carries the old configuration, advances the
// revision, and equals a from-scratch build over the same pages except
// for the revision counter.
func TestRebuildFromVersionsAndRetrains(t *testing.T) {
	old, err := NewExtractor(DefaultConfig()).BuildModel(probeSite(t, 1, 1).Pages)
	if err != nil {
		t.Fatal(err)
	}
	fresh := probeSite(t, 2, 9).Pages
	next, err := old.RebuildFrom(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if next.Rev != old.Rev+1 {
		t.Errorf("rebuilt revision %d, want %d", next.Rev, old.Rev+1)
	}
	if next.Baseline == nil {
		t.Fatal("rebuilt model carries no baseline")
	}
	cfg := old.Cfg
	cfg.Workers = 1
	scratch, err := NewExtractor(cfg).BuildModel(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next.Centroids, scratch.Centroids) {
		t.Error("RebuildFrom differs from a from-scratch build over the same pages")
	}
	if !reflect.DeepEqual(next.Baseline, scratch.Baseline) {
		t.Error("RebuildFrom baseline differs from a from-scratch build")
	}
	if _, err := old.RebuildFrom(nil); err == nil {
		t.Fatal("RebuildFrom succeeded on an empty batch")
	}
}

// TestModelV3RoundtripsBaseline: the lifecycle section survives a
// save/load cycle exactly.
func TestModelV3RoundtripsBaseline(t *testing.T) {
	m, err := NewExtractor(DefaultConfig()).BuildModel(probeSite(t, 2, 1).Pages)
	if err != nil {
		t.Fatal(err)
	}
	m.Rev = 3 // a maintained model's lineage must persist too

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Baseline, m.Baseline) {
		t.Errorf("baseline changed across roundtrip: %+v != %+v", loaded.Baseline, m.Baseline)
	}
	if loaded.Rev != m.Rev {
		t.Errorf("revision %d after roundtrip, want %d", loaded.Rev, m.Rev)
	}
}

// TestLoadModelRejectsVersion2 writes a version-2 snapshot — no lifecycle
// section — and checks it is rejected with an error naming the version:
// version-2 models must be rebuilt and re-saved.
func TestLoadModelRejectsVersion2(t *testing.T) {
	m, err := NewExtractor(DefaultConfig()).BuildModel(probeSite(t, 1, 1).Pages)
	if err != nil {
		t.Fatal(err)
	}
	snap := modelSnapshot{
		Version:   2,
		Cfg:       m.Cfg,
		NDocs:     m.NDocs,
		DF:        m.DF,
		DictTerms: m.Dict.Terms(),
	}
	for _, c := range m.Centroids {
		snap.Centroids = append(snap.Centroids, idVecSnapshot{IDs: c.IDs, Weights: c.Weights})
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(gz).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModel(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("LoadModel accepted a version-2 snapshot")
	}
	if !strings.Contains(err.Error(), "version 2") {
		t.Errorf("rejection %q should name the version", err)
	}
}

// TestLoadModelRejectsCorruptBaseline feeds version-3 snapshots whose
// lifecycle section violates the format invariants.
func TestLoadModelRejectsCorruptBaseline(t *testing.T) {
	base := func() modelSnapshot {
		return modelSnapshot{
			Version:   ModelVersion,
			DictTerms: []string{"a", "b"},
			Centroids: []idVecSnapshot{{IDs: []int32{0}, Weights: []float64{1}}},
		}
	}
	okHist := func() []int64 {
		h := make([]int64, DriftBuckets)
		h[0] = 4
		return h
	}
	cases := []struct {
		name string
		mut  func(*modelSnapshot)
	}{
		{"wrong bucket count", func(s *modelSnapshot) {
			s.Baseline = &DriftBaseline{Hist: []int64{1, 2}, Sizes: []int64{3}}
		}},
		{"sizes/centroids mismatch", func(s *modelSnapshot) {
			s.Baseline = &DriftBaseline{Hist: okHist(), Sizes: []int64{2, 2}}
		}},
		{"negative histogram count", func(s *modelSnapshot) {
			h := okHist()
			h[3] = -1
			s.Baseline = &DriftBaseline{Hist: h, Sizes: []int64{3}}
		}},
		{"negative cluster size", func(s *modelSnapshot) {
			s.Baseline = &DriftBaseline{Hist: okHist(), Sizes: []int64{-4}}
		}},
		{"mass mismatch", func(s *modelSnapshot) {
			s.Baseline = &DriftBaseline{Hist: okHist(), Sizes: []int64{5}}
		}},
		{"missing baseline", func(s *modelSnapshot) {}},
		{"negative revision", func(s *modelSnapshot) {
			s.Baseline = &DriftBaseline{Hist: okHist(), Sizes: []int64{4}}
			s.Rev = -1
		}},
	}
	for _, tc := range cases {
		snap := base()
		tc.mut(&snap)
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		if err := gob.NewEncoder(gz).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: LoadModel accepted the corrupt lifecycle section", tc.name)
		}
	}

	// The control: a consistent lifecycle section loads.
	snap := base()
	snap.Baseline = &DriftBaseline{Hist: okHist(), Sizes: []int64{4}}
	snap.Rev = 2
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(gz).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadModel rejected a consistent lifecycle section: %v", err)
	}
	if loaded.Rev != 2 || loaded.Baseline == nil {
		t.Errorf("lifecycle section lost on load: rev %d, baseline %v", loaded.Rev, loaded.Baseline)
	}
}

// TestApplyHTMLBytesStatsMatchesApply pins the stats variant against the
// plain one: same verdicts byte for byte, and the reported cluster is the
// one Apply assigns.
func TestApplyHTMLBytesStatsMatchesApply(t *testing.T) {
	m, err := NewExtractor(DefaultConfig()).BuildModel(probeSite(t, 2, 1).Pages)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probeSite(t, 2, 777).Pages {
		wantPath, wantFound, err := m.ApplyHTML(t.Context(), p.HTML)
		if err != nil {
			t.Fatal(err)
		}
		gotPath, gotFound, stats, err := m.ApplyHTMLBytesStats(t.Context(), []byte(p.HTML))
		if err != nil {
			t.Fatal(err)
		}
		if gotPath != wantPath || gotFound != wantFound {
			t.Fatalf("stats variant verdict (%q,%v), want (%q,%v)", gotPath, gotFound, wantPath, wantFound)
		}
		if stats.Cluster < 0 || stats.Cluster >= len(m.Centroids) {
			t.Fatalf("stats cluster %d outside [0,%d)", stats.Cluster, len(m.Centroids))
		}
		if stats.Distance < 0 || stats.Distance > 2 {
			t.Fatalf("stats distance %v outside [0,2]", stats.Distance)
		}
	}
}
