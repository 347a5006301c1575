package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesOrKeeps pins both outcomes: a write that succeeds
// replaces the file whole and leaves no temporary file behind; one that
// fails leaves the old file as it was, and no temporary file either.
func TestWriteReplacesOrKeeps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.gz")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	checkDir(t, dir, path, "old")

	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	checkDir(t, dir, path, "new")
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v (%v), want 0644", fi.Mode(), err)
	}

	if err := Write(filepath.Join(dir, "missing", "f.gz"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// checkDir checks that path holds want and is the directory's only file.
func checkDir(t *testing.T, dir, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil || string(got) != want {
		t.Fatalf("file holds %q (%v), want %q", got, err, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want the file alone", len(entries), err)
	}
}
