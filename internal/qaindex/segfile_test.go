package qaindex

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSegmentDirRoundTrip: WriteDir → OpenDir reproduces the index —
// same shape, bit-identical search results.
func TestSegmentDirRoundTrip(t *testing.T) {
	docs := synthCorpus(150, 21)
	sh := BuildSharded(docs, 4, 2)
	dir := filepath.Join(t.TempDir(), "idx")
	if err := sh.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sh.Len() || got.Shards() != sh.Shards() {
		t.Fatalf("loaded %d docs/%d shards, want %d/%d", got.Len(), got.Shards(), sh.Len(), sh.Shards())
	}
	if shardedDigest(t, got) != shardedDigest(t, sh) {
		t.Fatal("loaded segment contents differ from written")
	}
	for _, q := range contractQueries {
		requireSameHits(t, "q="+q, sh.Search(q, 10), got.Search(q, 10))
	}
}

// TestSegmentStreaming: ForEachSegment walks segments in shard order and
// stops on the callback's error.
func TestSegmentStreaming(t *testing.T) {
	sh := BuildSharded(synthCorpus(60, 23), 3, 1)
	dir := filepath.Join(t.TempDir(), "idx")
	if err := sh.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	total, calls := 0, 0
	err := ForEachSegment(dir, func(i int, seg *Segment) error {
		if i != calls {
			t.Fatalf("segment %d out of order (call %d)", i, calls)
		}
		calls++
		total += seg.Len()
		return nil
	})
	if err != nil || calls != 3 || total != 60 {
		t.Fatalf("walk: err=%v calls=%d docs=%d", err, calls, total)
	}
	sentinel := os.ErrClosed
	if err := ForEachSegment(dir, func(int, *Segment) error { return sentinel }); err != sentinel {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// TestSegmentCorruptionRejected: bad manifests and truncated segment
// files fail loudly instead of serving partial data.
func TestSegmentCorruptionRejected(t *testing.T) {
	sh := BuildSharded(synthCorpus(40, 29), 2, 1)
	write := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "idx")
		if err := sh.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("missing manifest", func(t *testing.T) {
		dir := write(t)
		os.Remove(filepath.Join(dir, ManifestName))
		if _, err := Open(dir); err == nil {
			t.Fatal("no error for missing manifest")
		}
	})
	t.Run("bad manifest version", func(t *testing.T) {
		dir := write(t)
		os.WriteFile(filepath.Join(dir, ManifestName),
			[]byte(`{"version":99,"segments":2,"docs":40,"total_len":1}`), 0o644)
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("doc count mismatch", func(t *testing.T) {
		dir := write(t)
		os.WriteFile(filepath.Join(dir, ManifestName),
			[]byte(`{"version":1,"segments":2,"docs":9999,"total_len":1}`), 0o644)
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("want mismatch error, got %v", err)
		}
	})
	t.Run("truncated segment", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, segFileName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(path, data[:len(data)/2], 0o644)
		if _, err := Open(dir); err == nil {
			t.Fatal("no error for truncated segment")
		}
	})
	t.Run("garbage segment", func(t *testing.T) {
		dir := write(t)
		os.WriteFile(filepath.Join(dir, segFileName(1)), []byte("not gzip"), 0o644)
		if _, err := Open(dir); err == nil {
			t.Fatal("no error for garbage segment")
		}
	})
}

// TestOpenLoadsOnlySegmentDirs: Open loads a segment directory with its
// stored shard shape and search behavior, and rejects any other path — a
// single file (the retired whole-index snapshot format) or nothing at
// all.
func TestOpenLoadsOnlySegmentDirs(t *testing.T) {
	docs := synthCorpus(80, 31)
	ix := legacyFromDocs(docs)
	tmp := t.TempDir()

	dirPath := filepath.Join(tmp, "segdir")
	if err := BuildSharded(docs, 3, 2).WriteDir(dirPath); err != nil {
		t.Fatal(err)
	}
	fromDir, err := Open(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromDir.Len() != 80 || fromDir.Shards() != 3 {
		t.Fatalf("dir open: %d docs / %d shards", fromDir.Len(), fromDir.Shards())
	}
	for _, q := range contractQueries {
		requireSameHits(t, "q="+q, ix.Search(q, 10), fromDir.Search(q, 10))
	}

	filePath := filepath.Join(tmp, "index.qaindex.gz")
	if err := os.WriteFile(filePath, []byte("not a segment directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filePath); err == nil {
		t.Fatal("no error for a single-file path")
	}
	if _, err := Open(filepath.Join(tmp, "nope")); err == nil {
		t.Fatal("no error for missing path")
	}
}
