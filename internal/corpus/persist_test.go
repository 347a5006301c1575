package corpus

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// gzipped compresses data the way Write does.
func gzipped(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readStreamed drains a stream into a corpus of the collections it
// reports, which are the ones holding pages.
func readStreamed(st *PageStream) (*Corpus, error) {
	c := &Corpus{}
	for {
		siteID, name, err := st.NextCollection()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		pages, err := Collect(st)
		c.Collections = append(c.Collections, &Collection{SiteID: siteID, Name: name, Pages: pages})
		if err != nil {
			return c, err
		}
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	orig := &Corpus{Collections: []*Collection{buildCollection(), {
		SiteID: 2, Name: "second",
		Pages: []*Page{{SiteID: 2, URL: "http://x/search?q=a", Query: "a",
			Class: SingleMatch, HTML: samplePage}},
	}}}

	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	st, err := ReadStream(&buf)
	if err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	got, err := readStreamed(st)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(got.Collections) != 2 {
		t.Fatalf("collections = %d", len(got.Collections))
	}
	if got.TotalPages() != orig.TotalPages() {
		t.Errorf("pages = %d, want %d", got.TotalPages(), orig.TotalPages())
	}
	for ci, col := range got.Collections {
		o := orig.Collections[ci]
		if col.SiteID != o.SiteID || col.Name != o.Name {
			t.Errorf("collection %d identity lost", ci)
		}
		for pi, p := range col.Pages {
			if !samePage(p, o.Pages[pi]) {
				t.Errorf("page %d/%d fields lost", ci, pi)
			}
		}
	}
	// Loaded pages parse and expose ground truth like the originals.
	p := got.Collections[0].Pages[0]
	if len(p.TruthPagelets()) != 1 {
		t.Errorf("loaded page lost truth markers")
	}
}

func TestCorpusFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.thor.json.gz")
	orig := &Corpus{Collections: []*Collection{buildCollection()}}
	if err := orig.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	got, err := readStreamed(st)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if got.TotalPages() != orig.TotalPages() {
		t.Errorf("pages = %d", got.TotalPages())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadStream(strings.NewReader("not gzip at all")); err == nil {
		t.Error("ReadStream accepted non-gzip input")
	}
	if _, err := ReadStream(bytes.NewReader(gzipped(t, []byte("not json")))); err == nil {
		t.Error("ReadStream accepted a non-JSON document")
	}
	if _, err := OpenStream(filepath.Join(t.TempDir(), "missing.gz")); err == nil {
		t.Error("OpenStream accepted a missing file")
	}
}

func TestReadRejectsBadClass(t *testing.T) {
	bad := `{"version":1,"collections":[{"site_id":1,"name":"x","pages":[{"class":99,"html":"<p>x</p>"}]}]}`
	st, err := ReadStream(bytes.NewReader(gzipped(t, []byte(bad))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readStreamed(st); err == nil {
		t.Error("stream accepted out-of-range class")
	}
}

// TestWriteRefusesWhatTheStreamCannotRead pins Write's size check at its
// boundary, on pages of '<' characters, which the JSON writes as six
// bytes each. A page whose value, with the comma before it, is exactly
// MaxValueBytes round-trips, first in its collection or after another
// page; one byte more (one more character of its URL) is refused, and
// nothing is written.
func TestWriteRefusesWhatTheStreamCannotRead(t *testing.T) {
	empty, err := json.Marshal(pageJSON{})
	if err != nil {
		t.Fatal(err)
	}
	// The value of a page with n '<' and a URL of u bytes is
	// len(empty) + 6n + u bytes.
	n := (MaxValueBytes - 1 - len(empty)) / 6
	url := strings.Repeat("u", MaxValueBytes-1-len(empty)-6*n)
	html := strings.Repeat("<", n)
	atCap := &Page{URL: url, HTML: html}
	if v, err := json.Marshal(pageJSON{URL: url, HTML: html}); err != nil || len(v)+1 != MaxValueBytes {
		t.Fatalf("page value is %d bytes (%v), want %d with its comma", len(v), err, MaxValueBytes-1)
	}
	for _, pages := range [][]*Page{{atCap}, {{URL: "small", HTML: "<p>x</p>"}, atCap}} {
		var buf bytes.Buffer
		if err := (&Corpus{Collections: []*Collection{{Name: "s", Pages: pages}}}).Write(&buf); err != nil {
			t.Fatalf("%d pages: the page at the cap was refused: %v", len(pages), err)
		}
		st, err := ReadStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := readStreamed(st)
		if err != nil {
			t.Fatalf("%d pages: reading back: %v", len(pages), err)
		}
		got := back.Collections[0].Pages
		if last := got[len(got)-1]; len(got) != len(pages) || last.HTML != html || last.URL != url {
			t.Fatalf("%d pages: read back %d, the last not the page at the cap", len(pages), len(got))
		}
	}

	over := &Page{URL: url + "u", HTML: html}
	var buf bytes.Buffer
	err = (&Corpus{Collections: []*Collection{{Name: "s", Pages: []*Page{{HTML: "<p>x</p>"}, over}}}}).Write(&buf)
	if err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("a page one byte over the cap: err = %v, want the size error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused corpus wrote %d bytes", buf.Len())
	}
}
