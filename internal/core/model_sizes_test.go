package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"strings"
	"sync"
	"testing"
)

// savedSnapshot builds and saves one model and returns its snapshot,
// decoded, so a test can change a field and encode it again. The model
// is built once per test binary.
var savedSnapshot = func() func(testing.TB) (modelSnapshot, []byte) {
	var (
		once sync.Once
		raw  []byte
		err  error
	)
	return func(t testing.TB) (modelSnapshot, []byte) {
		t.Helper()
		once.Do(func() {
			var m *Model
			if m, err = NewExtractor(DefaultConfig()).BuildModel(probeSite(t, 2, 1).Pages); err != nil {
				return
			}
			var buf bytes.Buffer
			err = m.Save(&buf)
			raw = buf.Bytes()
		})
		if err != nil {
			t.Fatal(err)
		}
		return decodeSnapshot(t, raw), raw
	}
}()

func decodeSnapshot(t testing.TB, raw []byte) modelSnapshot {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(gz).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func encodeSnapshot(t testing.TB, snap *modelSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(gz).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sizeFields are the snapshot's size fields, each with its bound and a
// setter: the wrapper identifier length Q, phase two's PathSimplifyQ,
// K-Means' Restarts and phase one's K.
var sizeFields = []struct {
	name string
	max  int
	set  func(*modelSnapshot, int)
}{
	{"Q", MaxSimplifyQ, func(s *modelSnapshot, v int) {
		for i := range s.Wrappers {
			s.Wrappers[i].Q = v
		}
	}},
	{"PathSimplifyQ", MaxSimplifyQ, func(s *modelSnapshot, v int) { s.Cfg.PathSimplifyQ = v }},
	{"Restarts", MaxRestarts, func(s *modelSnapshot, v int) { s.Cfg.Restarts = v }},
	{"K", MaxClusters, func(s *modelSnapshot, v int) { s.Cfg.K = v }},
}

// TestLoadModelBoundsSizeFields pins each size field's bound: a saved
// model with the field at its bound loads and keeps the value, one past
// it, or at 2^40 (which would pad each identifier to a terabyte, or
// size a restart table as large), is refused with an error that names
// the field.
func TestLoadModelBoundsSizeFields(t *testing.T) {
	for _, f := range sizeFields {
		t.Run(f.name, func(t *testing.T) {
			snap, _ := savedSnapshot(t)
			if f.name == "Q" && len(snap.Wrappers) == 0 {
				t.Fatal("the saved model has no wrapper; Q is not covered")
			}
			f.set(&snap, f.max)
			m, err := LoadModel(bytes.NewReader(encodeSnapshot(t, &snap)))
			if err != nil {
				t.Fatalf("%s = %d (the bound) refused: %v", f.name, f.max, err)
			}
			if f.name == "Q" && m.Wrappers[snap.Wrappers[0].ClusterID].q != f.max {
				t.Errorf("wrapper q = %d after load, want %d", m.Wrappers[snap.Wrappers[0].ClusterID].q, f.max)
			}
			for _, v := range []int{f.max + 1, 1 << 40} {
				f.set(&snap, v)
				_, err := LoadModel(bytes.NewReader(encodeSnapshot(t, &snap)))
				if err == nil {
					t.Fatalf("%s = %d loaded", f.name, v)
				}
				if !strings.Contains(err.Error(), f.name) {
					t.Errorf("%s = %d: error %q does not name the field", f.name, v, err)
				}
			}
		})
	}
	snap, _ := savedSnapshot(t)
	snap.Cfg.Restarts = -1
	if _, err := LoadModel(bytes.NewReader(encodeSnapshot(t, &snap))); err == nil {
		t.Error("Restarts = -1 loaded")
	}
}

// FuzzLoadModel feeds LoadModel arbitrary and mutated model files. It
// checks only that a load returns, model or error, without a panic; the
// seeds are a saved model and that model with each size field far past
// its bound, so the mutator starts from files that decode.
func FuzzLoadModel(f *testing.F) {
	_, raw := savedSnapshot(f)
	f.Add(raw)
	for _, sf := range sizeFields {
		s := decodeSnapshot(f, raw)
		sf.set(&s, 1<<40)
		f.Add(encodeSnapshot(f, &s))
	}
	f.Add([]byte("not a gzip stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("LoadModel returned neither a model nor an error")
		}
	})
}
