// Package atomicfile replaces a file's contents all at once: a reader
// that opens the path sees the old file or the new one, never a
// half-written one.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write writes path through write: the bytes go to a temporary file in
// the same directory, which is synced, made world-readable and renamed
// over path. On any error the temporary file is removed, path is left as
// it was, and the error is returned: write's own unchanged, a file
// system error as the os package reports it.
func Write(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	werr := write(f)
	if werr == nil {
		if werr = f.Chmod(0o644); werr == nil {
			werr = f.Sync()
		}
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		//thorlint:allow no-unchecked-error best-effort cleanup; the write error is what the caller needs
		os.Remove(tmp)
	}
	return werr
}
