package core

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"time"

	"thor/internal/atomicfile"
	"thor/internal/vector"
)

// The on-disk model format: a gzipped gob snapshot of the assignment
// geometry and the per-cluster wrapper profiles. The training result is
// deliberately not persisted — a served model needs no training pages —
// and each wrapper's tag-name simplifier is rebuilt on load from its q,
// since identifier assignments are derivable. The version field guards
// against loading a snapshot written by an incompatible layout.

type wrapperSnapshot struct {
	// ClusterID is the wrapper's index in the model's tables. Only wrapped
	// clusters are snapshotted (gob cannot hold the nil slots, and a dense
	// entry list is the smaller encoding anyway).
	ClusterID   int
	Paths       []string
	Fanout      float64
	Depth       float64
	Nodes       float64
	Weights     ShapeWeights
	MaxDistance float64
	Q           int
}

// idVecSnapshot is one centroid in ID space. The cached norm is not
// persisted: it is derivable (and rebuilt bit-identically) from the
// weights on load.
type idVecSnapshot struct {
	IDs     []int32
	Weights []float64
}

type modelSnapshot struct {
	Version int
	Cfg     Config
	NDocs   int
	DF      map[string]int
	// DictTerms is the training vocabulary in ID (= ascending term)
	// order. Term i has ID int32(i).
	DictTerms []string
	Centroids []idVecSnapshot
	Wrappers  []wrapperSnapshot
	// Baseline and Rev are the lifecycle section: the training-time
	// drift baseline and the model's revision counter.
	Baseline *DriftBaseline
	Rev      int
}

// ModelVersion is the on-disk model format version, the only one
// LoadModel accepts. Version 2 added the interned dictionary section and
// switched the centroids to ID space; version 3 added the lifecycle
// section (drift baseline + revision). Older snapshots are rejected with
// a clear error rather than silently misread: rebuild and re-save them.
const ModelVersion = 3

// Save serializes the model to w as versioned gzipped gob.
func (m *Model) Save(w io.Writer) error {
	snap := modelSnapshot{
		Version:   ModelVersion,
		Cfg:       m.Cfg,
		NDocs:     m.NDocs,
		DF:        m.DF,
		DictTerms: m.Dict.Terms(),
		Baseline:  m.Baseline,
		Rev:       m.Rev,
	}
	for _, c := range m.Centroids {
		snap.Centroids = append(snap.Centroids, idVecSnapshot{IDs: c.IDs, Weights: c.Weights})
	}
	for i, wr := range m.Wrappers {
		if wr == nil {
			continue
		}
		snap.Wrappers = append(snap.Wrappers, wrapperSnapshot{
			ClusterID: i,
			Paths:     wr.Paths, Fanout: wr.Fanout, Depth: wr.Depth, Nodes: wr.Nodes,
			Weights: wr.Weights, MaxDistance: wr.MaxDistance, Q: wr.q,
		})
	}
	gz := gzip.NewWriter(w)
	encErr := gob.NewEncoder(gz).Encode(&snap)
	closeErr := gz.Close() // Close flushes; its error means truncated output
	if encErr != nil {
		return fmt.Errorf("core: encode model: %w", encErr)
	}
	if closeErr != nil {
		return fmt.Errorf("core: compress model: %w", closeErr)
	}
	return nil
}

// Bounds on the size fields a model file carries. Each field sizes
// work or memory when the model is loaded, hot-swapped or rebuilt, so a
// file whose value lies past its bound is refused as corrupt rather than
// trusted: a few bytes of snapshot could otherwise ask for terabytes.
const (
	// MaxSimplifyQ bounds the identifier length q of a wrapper's
	// simplifier (wrapper Q) and of phase two's (Cfg.PathSimplifyQ):
	// every identifier is padded to q bytes when it is minted. The paper
	// uses q = 1; 26^16 identifiers outnumber any page's tag names, so a
	// longer q only lengthens every path an edit distance reads.
	MaxSimplifyQ = 16
	// MaxRestarts bounds Cfg.Restarts, the K-Means restarts a rebuild
	// runs, each keeping a clustering and its centroids until the best is
	// chosen. The paper settles on 10.
	MaxRestarts = 1024
	// MaxClusters bounds Cfg.K, the clusters of phase one, each holding
	// a dense centroid row over the dictionary in every restart. The
	// paper finds 2 to 5 enough.
	MaxClusters = 1024
)

// checkSizes refuses a snapshot whose size fields lie past their bounds.
// Zero configuration fields are allowed: NewExtractor reads them as
// defaults, as it does for a Config built in code.
func checkSizes(snap *modelSnapshot) error {
	for _, f := range []struct {
		name  string
		v, hi int
	}{
		{"Cfg.K", snap.Cfg.K, MaxClusters},
		{"Cfg.Restarts", snap.Cfg.Restarts, MaxRestarts},
		{"Cfg.PathSimplifyQ", snap.Cfg.PathSimplifyQ, MaxSimplifyQ},
	} {
		if f.v < 0 || f.v > f.hi {
			return fmt.Errorf("core: corrupt model: %s = %d outside [0, %d]", f.name, f.v, f.hi)
		}
	}
	for _, ws := range snap.Wrappers {
		if ws.Q > MaxSimplifyQ {
			return fmt.Errorf("core: corrupt model: wrapper for cluster %d has Q = %d, above %d", ws.ClusterID, ws.Q, MaxSimplifyQ)
		}
	}
	return nil
}

// LoadModel deserializes a model written by Save, rebuilding each
// wrapper's simplifier and every centroid's cached norm. It rejects
// snapshots of any other format version and validates the dictionary,
// centroid, and drift-baseline tables (sorted vocabulary, in-range ascending
// IDs) so a corrupt snapshot cannot smuggle a broken assignment space
// into a served model, and bounds the size fields a load or a rebuild
// allocates by (checkSizes).
func LoadModel(r io.Reader) (*Model, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: decompress model: %w", err)
	}
	//thorlint:allow no-unchecked-error read-side gzip close holds no state worth surfacing
	defer gz.Close()
	var snap modelSnapshot
	if err := gob.NewDecoder(gz).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if snap.Version != ModelVersion {
		return nil, fmt.Errorf("core: unsupported model format version %d (want %d; older snapshots predate the term dictionary or the drift baseline — rebuild and re-save)", snap.Version, ModelVersion)
	}
	if err := checkSizes(&snap); err != nil {
		return nil, err
	}
	for i := 1; i < len(snap.DictTerms); i++ {
		if snap.DictTerms[i-1] >= snap.DictTerms[i] {
			return nil, fmt.Errorf("core: corrupt model: dictionary terms not in ascending order at %d", i)
		}
	}
	centroids := make([]vector.IDVec, 0, len(snap.Centroids))
	for ci, c := range snap.Centroids {
		if len(c.IDs) != len(c.Weights) {
			return nil, fmt.Errorf("core: corrupt model: centroid %d has %d IDs but %d weights",
				ci, len(c.IDs), len(c.Weights))
		}
		for i, id := range c.IDs {
			if id < 0 || int(id) >= len(snap.DictTerms) {
				return nil, fmt.Errorf("core: corrupt model: centroid %d ID %d outside dictionary of %d terms",
					ci, id, len(snap.DictTerms))
			}
			if i > 0 && c.IDs[i-1] >= id {
				return nil, fmt.Errorf("core: corrupt model: centroid %d IDs not in ascending order at %d", ci, i)
			}
		}
		centroids = append(centroids, vector.NewIDVec(c.IDs, c.Weights))
	}
	// The lifecycle section is load-bearing for drift detection and
	// Refine's weighting, so a missing or malformed baseline is rejected
	// like any other corruption rather than silently degrading the
	// maintenance policy.
	b := snap.Baseline
	if b == nil {
		return nil, fmt.Errorf("core: corrupt model: no drift baseline")
	}
	if len(b.Hist) != DriftBuckets {
		return nil, fmt.Errorf("core: corrupt model: drift baseline has %d histogram buckets (want %d)",
			len(b.Hist), DriftBuckets)
	}
	if len(b.Sizes) != len(centroids) {
		return nil, fmt.Errorf("core: corrupt model: drift baseline sizes %d clusters but model has %d centroids",
			len(b.Sizes), len(centroids))
	}
	for i, c := range b.Hist {
		if c < 0 {
			return nil, fmt.Errorf("core: corrupt model: negative drift histogram count at bucket %d", i)
		}
	}
	var sized int64
	for i, c := range b.Sizes {
		if c < 0 {
			return nil, fmt.Errorf("core: corrupt model: negative drift cluster size at cluster %d", i)
		}
		sized += c
	}
	if sized != b.total() {
		return nil, fmt.Errorf("core: corrupt model: drift baseline sizes sum to %d but histogram holds %d pages",
			sized, b.total())
	}
	if snap.Rev < 0 {
		return nil, fmt.Errorf("core: corrupt model: negative revision %d", snap.Rev)
	}
	m := &Model{
		Cfg:       snap.Cfg,
		NDocs:     snap.NDocs,
		DF:        snap.DF,
		Dict:      vector.NewDict(snap.DictTerms),
		Centroids: centroids,
		Wrappers:  make([]*Wrapper, len(snap.Centroids)),
		Baseline:  snap.Baseline,
		Rev:       snap.Rev,
	}
	for _, ws := range snap.Wrappers {
		if ws.ClusterID < 0 || ws.ClusterID >= len(m.Wrappers) {
			return nil, fmt.Errorf("core: corrupt model: wrapper for cluster %d of %d",
				ws.ClusterID, len(m.Wrappers))
		}
		q := ws.Q
		if q < 1 {
			q = 1
		}
		w := &Wrapper{
			Paths: ws.Paths, Fanout: ws.Fanout, Depth: ws.Depth, Nodes: ws.Nodes,
			Weights: ws.Weights, MaxDistance: ws.MaxDistance, q: q,
		}
		w.resolveProfile()
		m.Wrappers[ws.ClusterID] = w
	}
	return m, nil
}

// SaveFile writes the model to path (conventionally *.thor.model.gz)
// atomically: the snapshot goes to a temporary file in the same
// directory, is synced, and is renamed over path. A concurrent reader —
// a fleet's hot-swap check or a cold load — sees the old file or the new
// one, never a half-written snapshot.
func (m *Model) SaveFile(path string) error {
	return atomicfile.Write(path, m.Save)
}

// LoadModelFile loads a model from path.
func LoadModelFile(path string) (*Model, error) {
	m, _, err := LoadModelFileWithInfo(path)
	return m, err
}

// ModelFileInfo fingerprints the on-disk snapshot a Model was loaded
// from: the file's size and modification time as observed through the
// very descriptor the model bytes were read from. A registry that holds
// many loaded models re-checks this fingerprint against a fresh stat to
// decide whether the file underneath has been replaced and the entry
// should be hot-swapped.
type ModelFileInfo struct {
	Size    int64
	ModTime time.Time
}

// Same reports whether a later stat still describes the loaded snapshot.
func (i ModelFileInfo) Same(fi os.FileInfo) bool {
	return fi != nil && i.Size == fi.Size() && i.ModTime.Equal(fi.ModTime())
}

// LoadModelFileWithInfo loads a model from path and returns the loaded
// file's fingerprint alongside it. The fingerprint is taken from the open
// descriptor rather than a separate stat, so it describes exactly the
// bytes that were decoded even if the path is re-pointed at a newer file
// mid-load.
func LoadModelFileWithInfo(path string) (*Model, ModelFileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ModelFileInfo{}, fmt.Errorf("core: %w", err)
	}
	//thorlint:allow no-unchecked-error closing a read-only file cannot lose data
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, ModelFileInfo{}, fmt.Errorf("core: %w", err)
	}
	m, err := LoadModel(f)
	if err != nil {
		return nil, ModelFileInfo{}, fmt.Errorf("core: loading %s: %w", path, err)
	}
	return m, ModelFileInfo{Size: fi.Size(), ModTime: fi.ModTime()}, nil
}
