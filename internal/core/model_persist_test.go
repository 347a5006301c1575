package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"thor/internal/vector/vectorref"
)

func TestModelSaveLoadRoundtrip(t *testing.T) {
	train := probeSite(t, 2, 1)
	m, err := NewExtractor(DefaultConfig()).BuildModel(train.Pages)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The persisted state must roundtrip deep-equal. (Byte-for-byte
	// comparison of two encodings would be wrong: gob walks the DF map in
	// randomized order.)
	if loaded.Cfg != m.Cfg {
		t.Errorf("Cfg changed across roundtrip: %+v != %+v", loaded.Cfg, m.Cfg)
	}
	if loaded.NDocs != m.NDocs {
		t.Errorf("NDocs = %d, want %d", loaded.NDocs, m.NDocs)
	}
	if !reflect.DeepEqual(loaded.DF, m.DF) {
		t.Error("document-frequency table changed across roundtrip")
	}
	if !reflect.DeepEqual(loaded.Dict.Terms(), m.Dict.Terms()) {
		t.Error("dictionary changed across roundtrip")
	}
	// DeepEqual on IDVec reaches the unexported cached norm too: the load
	// path must rebuild it bit-identically from the weights.
	if !reflect.DeepEqual(loaded.Centroids, m.Centroids) {
		t.Error("centroids changed across roundtrip")
	}
	if len(loaded.Wrappers) != len(m.Wrappers) {
		t.Fatalf("%d wrapper slots, want %d", len(loaded.Wrappers), len(m.Wrappers))
	}
	for i, want := range m.Wrappers {
		got := loaded.Wrappers[i]
		if (want == nil) != (got == nil) {
			t.Fatalf("cluster %d: wrapper presence changed across roundtrip", i)
		}
		if want == nil {
			continue
		}
		same := reflect.DeepEqual(got.Paths, want.Paths) &&
			got.Fanout == want.Fanout && got.Depth == want.Depth && //thorlint:allow no-float-eq roundtrip must be exact, not approximate
			got.Nodes == want.Nodes && got.Weights == want.Weights && //thorlint:allow no-float-eq roundtrip must be exact, not approximate
			got.MaxDistance == want.MaxDistance && got.q == want.q //thorlint:allow no-float-eq roundtrip must be exact, not approximate
		if !same {
			t.Errorf("cluster %d: wrapper changed across roundtrip", i)
		}
	}
	if loaded.Training() != nil {
		t.Error("a loaded model must not claim training pages")
	}

	// And the loaded model must serve identically to the in-memory one.
	fresh := probeSite(t, 2, 777)
	for _, page := range fresh.Pages {
		want, err := m.Apply(page)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Apply(page)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("loaded model extracts differently on %q", page.Query)
		}
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	train := probeSite(t, 1, 1)
	m, err := NewExtractor(DefaultConfig()).BuildModel(train.Pages)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site1.thor.model.gz")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NDocs != m.NDocs || len(loaded.Centroids) != len(m.Centroids) {
		t.Errorf("loaded %s, want %s", loaded, m)
	}
}

// TestSaveFileIsAtomic loads the model file in a loop while SaveFile
// keeps replacing it with two alternating models: every load must
// succeed and return one of the two, never a torn snapshot.
func TestSaveFileIsAtomic(t *testing.T) {
	var models [2]*Model
	for i := range models {
		m, err := NewExtractor(DefaultConfig()).BuildModel(probeSite(t, i+1, 1).Pages)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	if reflect.DeepEqual(models[0].Centroids, models[1].Centroids) {
		t.Fatal("the two models must differ for the check to mean anything")
	}
	path := filepath.Join(t.TempDir(), "site.thor.model.gz")
	if err := models[0].SaveFile(path); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			if err := models[i%2].SaveFile(path); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		m, err := LoadModelFile(path)
		if err != nil {
			t.Fatalf("load %d during rewrites: %v", i, err)
		}
		if !reflect.DeepEqual(m.Centroids, models[0].Centroids) && !reflect.DeepEqual(m.Centroids, models[1].Centroids) {
			t.Fatalf("load %d returned neither saved model", i)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("SaveFile left %d files behind, want only the model", len(entries))
	}
}

// TestLoadModelFileWithInfoFingerprint pins the registry's hot-swap
// signal: the fingerprint matches a stat of the loaded file and stops
// matching once the file is replaced (or its mtime touched).
func TestLoadModelFileWithInfoFingerprint(t *testing.T) {
	train := probeSite(t, 1, 1)
	m, err := NewExtractor(DefaultConfig()).BuildModel(train.Pages)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site1.thor.model.gz")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, info, err := LoadModelFileWithInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NDocs != m.NDocs {
		t.Errorf("loaded %s, want %s", loaded, m)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Same(fi) {
		t.Errorf("fingerprint %+v does not match a fresh stat of the unchanged file", info)
	}
	if info.Same(nil) {
		t.Error("fingerprint matches a nil stat")
	}
	// A drop-in replacement must flip the fingerprint even when the new
	// snapshot happens to have the same size: force a distinct mtime.
	if err := os.Chtimes(path, fi.ModTime().Add(2*time.Second), fi.ModTime().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	fi2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Same(fi2) {
		t.Error("fingerprint still matches after the file's mtime changed")
	}
}

func TestLoadModelRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(gz).Encode(&modelSnapshot{Version: ModelVersion + 41}); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("LoadModel accepted a snapshot from the future")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("error %q does not mention the version", err)
	}
}

// TestLoadModelRejectsLegacyVersion1 writes a snapshot shaped like the
// pre-dictionary version-1 format — string-keyed centroids, no DictTerms
// section — and checks it is rejected with an error that names both the
// version mismatch and the remedy. Gob matches fields by name, so the
// unknown Terms field decodes harmlessly and the version guard fires
// before any table is interpreted.
func TestLoadModelRejectsLegacyVersion1(t *testing.T) {
	type legacySnapshot struct {
		Version   int
		Cfg       Config
		NDocs     int
		DF        map[string]int
		Centroids []vectorref.Sparse
		Wrappers  []wrapperSnapshot
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	legacy := legacySnapshot{
		Version: 1,
		NDocs:   2,
		DF:      map[string]int{"table": 2},
		Centroids: []vectorref.Sparse{
			vectorref.FromMap(map[string]float64{"table": 1}),
		},
	}
	if err := gob.NewEncoder(gz).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("LoadModel accepted a version-1 snapshot")
	}
	if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "dictionary") {
		t.Errorf("rejection %q should name the version and the dictionary remedy", err)
	}
}

// TestLoadModelRejectsCorruptDictTables feeds snapshots whose
// dictionary or centroid tables violate the format invariants; each must
// be rejected rather than loaded into a broken assignment space.
func TestLoadModelRejectsCorruptDictTables(t *testing.T) {
	cases := []struct {
		name string
		snap modelSnapshot
	}{
		{"unsorted dictionary", modelSnapshot{
			Version:   ModelVersion,
			DictTerms: []string{"b", "a"},
		}},
		{"duplicate dictionary term", modelSnapshot{
			Version:   ModelVersion,
			DictTerms: []string{"a", "a"},
		}},
		{"centroid ID out of range", modelSnapshot{
			Version:   ModelVersion,
			DictTerms: []string{"a"},
			Centroids: []idVecSnapshot{{IDs: []int32{1}, Weights: []float64{0.5}}},
		}},
		{"negative centroid ID", modelSnapshot{
			Version:   ModelVersion,
			DictTerms: []string{"a"},
			Centroids: []idVecSnapshot{{IDs: []int32{-1}, Weights: []float64{0.5}}},
		}},
		{"centroid IDs not ascending", modelSnapshot{
			Version:   ModelVersion,
			DictTerms: []string{"a", "b"},
			Centroids: []idVecSnapshot{{IDs: []int32{1, 0}, Weights: []float64{0.5, 0.5}}},
		}},
		{"centroid length mismatch", modelSnapshot{
			Version:   ModelVersion,
			DictTerms: []string{"a"},
			Centroids: []idVecSnapshot{{IDs: []int32{0}, Weights: []float64{0.5, 0.5}}},
		}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		if err := gob.NewEncoder(gz).Encode(&tc.snap); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: LoadModel accepted the corrupt snapshot", tc.name)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not a gzip stream")); err == nil {
		t.Error("LoadModel accepted non-gzip input")
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte("gzipped but not gob")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("LoadModel accepted non-gob payload")
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing.gz")); err == nil {
		t.Error("LoadModelFile succeeded on a missing file")
	}
}

func TestLoadModelRejectsInconsistentTables(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	snap := modelSnapshot{Version: ModelVersion, Wrappers: []wrapperSnapshot{{ClusterID: 3, Q: 2}},
		Baseline: &DriftBaseline{Hist: make([]int64, DriftBuckets)}}
	if err := gob.NewEncoder(gz).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("LoadModel accepted a wrapper for cluster 3 of a 0-cluster model")
	}
}
