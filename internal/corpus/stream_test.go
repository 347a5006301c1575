package corpus

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// randomCorpus fabricates a corpus with randomized shape and page fields,
// including characters that exercise JSON escaping.
func randomCorpus(rng *rand.Rand) *Corpus {
	alphabet := []string{"a", "β", `"`, "\\", "<td>", "\n", "züg", "&amp;", " "}
	randString := func() string {
		var b strings.Builder
		for i := rng.Intn(12); i > 0; i-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	c := &Corpus{}
	for s := 0; s < rng.Intn(4); s++ {
		col := &Collection{SiteID: rng.Intn(100), Name: randString()}
		for p := 0; p < rng.Intn(6); p++ {
			col.Pages = append(col.Pages, &Page{
				SiteID: col.SiteID,
				URL:    "http://x/" + randString(),
				Query:  randString(),
				HTML:   "<html><body>" + randString() + "</body></html>",
				Class:  Class(rng.Intn(int(NumClasses))),
			})
		}
		c.Collections = append(c.Collections, col)
	}
	return c
}

// samePage compares the persisted fields of two pages.
func samePage(a, b *Page) bool {
	return a.SiteID == b.SiteID && a.URL == b.URL && a.Query == b.Query &&
		a.HTML == b.HTML && a.Class == b.Class
}

// TestStreamMatchesReadProperty is the decoder's round-trip property:
// for randomized corpora, Write → ReadStream hands out exactly the
// collections of the written corpus that hold pages — same site ids and
// names, same pages in the same order, same fields and class labels. A
// collection whose pages are only partly drawn leaves the next one
// intact.
func TestStreamMatchesReadProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		c := randomCorpus(rng)
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatalf("trial %d: Write: %v", trial, err)
		}
		st, err := ReadStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: ReadStream: %v", trial, err)
		}
		for ci, col := range c.Collections {
			if len(col.Pages) == 0 {
				continue // never reported
			}
			siteID, name, err := st.NextCollection()
			if err != nil {
				t.Fatalf("trial %d collection %d: NextCollection: %v", trial, ci, err)
			}
			if siteID != col.SiteID || name != col.Name {
				t.Fatalf("trial %d collection %d = (%d,%q), want (%d,%q)",
					trial, ci, siteID, name, col.SiteID, col.Name)
			}
			draw := len(col.Pages)
			if rng.Intn(3) == 0 {
				draw = rng.Intn(draw) // leave the rest for NextCollection to skip
			}
			for pi := 0; pi < draw; pi++ {
				p, err := st.Next()
				if err != nil {
					t.Fatalf("trial %d collection %d page %d: Next: %v", trial, ci, pi, err)
				}
				if !samePage(p, col.Pages[pi]) {
					t.Fatalf("trial %d collection %d page %d = %+v, want %+v", trial, ci, pi, p, col.Pages[pi])
				}
			}
			if draw == len(col.Pages) {
				if _, err := st.Next(); err != io.EOF {
					t.Fatalf("trial %d collection %d: Next past the last page = %v, want io.EOF", trial, ci, err)
				}
			}
		}
		// Exhausted streams stay exhausted.
		for range 2 {
			if _, _, err := st.NextCollection(); err != io.EOF {
				t.Fatalf("trial %d: NextCollection past the end = %v", trial, err)
			}
			if _, err := st.Next(); err != io.EOF {
				t.Fatalf("trial %d: Next past the end = %v", trial, err)
			}
		}
	}
}

// TestStreamRejectsInvalidClassLikeRead pins the rejection path: a
// persisted page with an out-of-range class fails with the message the
// eager decoder gave, after the stream yielded exactly the pages before
// it, and the error is sticky.
func TestStreamRejectsInvalidClassLikeRead(t *testing.T) {
	c := &Corpus{Collections: []*Collection{{
		SiteID: 1, Name: "s",
		Pages: []*Page{
			{SiteID: 1, URL: "u0", Class: MultiMatch, HTML: "<p>ok</p>"},
			{SiteID: 1, URL: "u1", Class: Class(9), HTML: "<p>bad</p>"},
			{SiteID: 1, URL: "u2", Class: NoMatch, HTML: "<p>after</p>"},
		},
	}}}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.NextCollection(); err != nil {
		t.Fatal(err)
	}
	p, err := st.Next()
	if err != nil || p.URL != "u0" {
		t.Fatalf("first page = %v, %v", p, err)
	}
	_, streamErr := st.Next()
	if want := `corpus: page "u1" has invalid class 9`; streamErr == nil || streamErr.Error() != want {
		t.Fatalf("stream error = %v, want %s", streamErr, want)
	}
	if _, err := st.Next(); err != streamErr {
		t.Errorf("Next after rejection = %v, want the sticky error", err)
	}
	if _, _, err := st.NextCollection(); err != streamErr {
		t.Errorf("NextCollection after rejection = %v, want the sticky error", err)
	}
}

func TestStreamRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(`{"version":99,"collections":[]}`)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStream(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "unsupported format version 99") {
		t.Fatalf("ReadStream version error = %v", err)
	}
}

func TestStreamEmptyCorpus(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Corpus{}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.NextCollection(); err != io.EOF {
		t.Fatalf("empty corpus NextCollection = %v, want io.EOF", err)
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("empty corpus Next = %v, want io.EOF", err)
	}
}

// TestStreamTruncatedAtEveryOffset: a corpus file cut short anywhere —
// inside the JSON or in the gzip trailer after it — ends in an error,
// never in a clean io.EOF after a short read.
func TestStreamTruncatedAtEveryOffset(t *testing.T) {
	c := &Corpus{Collections: []*Collection{
		buildCollection(),
		{SiteID: 2, Name: "empty"},
		{SiteID: 3, Name: "third", Pages: []*Page{{SiteID: 3, URL: "u", HTML: "<p>x</p>"}}},
	}}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	st, err := ReadStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readStreamed(st); err != nil || got.TotalPages() != c.TotalPages() {
		t.Fatalf("whole file: %d pages, %v", got.TotalPages(), err)
	}
	for n := 0; n < len(data); n++ {
		st, err := ReadStream(bytes.NewReader(data[:n]))
		if err != nil {
			continue
		}
		if _, err := readStreamed(st); err == nil {
			t.Fatalf("truncated at %d of %d bytes: the stream ended cleanly", n, len(data))
		}
	}
}

// TestStreamRejectsTrailingData: the document must be the whole input.
func TestStreamRejectsTrailingData(t *testing.T) {
	st, err := ReadStream(bytes.NewReader(gzipped(t, []byte(`{"version":1,"collections":[]} []`))))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.NextCollection(); err == nil || err == io.EOF {
		t.Fatalf("NextCollection = %v, want an error for the trailing value", err)
	}
}

func TestOpenStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.thor.json.gz")
	c := &Corpus{Collections: []*Collection{{SiteID: 3, Name: "site3", Pages: []*Page{
		{SiteID: 3, URL: "u", Query: "q", HTML: "<p>hi</p>", Class: SingleMatch},
	}}}}
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if id, name, err := st.NextCollection(); err != nil || id != 3 || name != "site3" {
		t.Fatalf("NextCollection = %d, %q, %v", id, name, err)
	}
	pages, err := Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || pages[0].URL != "u" {
		t.Fatalf("pages = %v", pages)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := OpenStream(filepath.Join(dir, "absent.gz")); err == nil {
		t.Fatal("OpenStream on a missing file succeeded")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSourceAndCollect(t *testing.T) {
	pages := []*Page{{URL: "a"}, {URL: "b"}, {URL: "c"}}
	src := NewSliceSource(pages)
	if src.Remaining() != 3 {
		t.Fatalf("Remaining = %d", src.Remaining())
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pages) {
		t.Fatalf("Collect = %v", got)
	}
	if src.Remaining() != 0 {
		t.Fatalf("Remaining after drain = %d", src.Remaining())
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("Next after drain = %v", err)
	}
	if got, err := Collect(NewSliceSource(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty Collect = %v, %v", got, err)
	}
}

// errSource fails after one page.
type errSource struct{ n int }

func (s *errSource) Next() (*Page, error) {
	if s.n == 0 {
		s.n++
		return &Page{URL: "ok"}, nil
	}
	return nil, fmt.Errorf("boom")
}

func TestCollectPropagatesErrors(t *testing.T) {
	got, err := Collect(&errSource{})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 1 || got[0].URL != "ok" {
		t.Fatalf("partial pages = %v", got)
	}
}

func TestReleaseDerivedRebuildsEqualViews(t *testing.T) {
	p := &Page{HTML: "<html><body><table><tr><td>alpha beta</td></tr></table></body></html>"}
	tree := p.Tree()
	tags := p.TagSignature()
	terms := p.ContentSignature()

	p.ReleaseDerived()
	if reTree := p.Tree(); reTree == tree {
		t.Error("ReleaseDerived kept the cached tree")
	}
	if !reflect.DeepEqual(p.TagSignature(), tags) {
		t.Error("rebuilt tag signature differs")
	}
	if !reflect.DeepEqual(p.ContentSignature(), terms) {
		t.Error("rebuilt content signature differs")
	}
}

// FuzzReadStream feeds the corpus decoder arbitrary input: raw bytes as
// the file itself, or, with compress set, as the JSON document inside a
// well-formed gzip stream, so mutations reach the decoder's token walk.
// Draining the stream must end in io.EOF or an error, never a panic.
// Seeds live under testdata/fuzz/FuzzReadStream; run with
//
//	go test -run '^$' -fuzz FuzzReadStream -fuzztime 20s ./internal/corpus
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, compress bool) {
		if compress {
			data = gzipped(t, data)
		}
		st, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		got, err := readStreamed(st)
		if err != nil {
			return
		}
		for _, col := range got.Collections {
			if len(col.Pages) == 0 {
				t.Fatalf("collection (%d,%q) reported without pages", col.SiteID, col.Name)
			}
		}
	})
}

// hostileCorpus gzips a corpus document whose one page holds htmlBytes
// bytes of HTML, written in chunks so the test itself never holds the
// page. It compresses to about a thousandth of its size.
func hostileCorpus(t *testing.T, htmlBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	fmt.Fprintf(gz, `{"version":%d,"collections":[{"site_id":1,"name":"s","pages":[{"site_id":1,"url":"u","class":0,"html":"`, persistVersion)
	chunk := []byte(strings.Repeat("a", 1<<16))
	for n := 0; n < htmlBytes; n += len(chunk) {
		if _, err := gz.Write(chunk[:min(len(chunk), htmlBytes-n)]); err != nil {
			t.Fatal(err)
		}
	}
	io.WriteString(gz, `"}]}]}`)
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamCapsValueSize feeds the stream gzipped files of 20 KB and
// 80 KB whose one page is 20 MiB and 80 MiB: each must fail with a clean
// error, having allocated what MaxValueBytes allows whatever the page's
// size. Decoding the pages whole allocated 84 and 336 MiB. A page just
// under the cap still reads.
func TestStreamCapsValueSize(t *testing.T) {
	for _, size := range []int{20 << 20, 80 << 20} {
		data := hostileCorpus(t, size)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := ReadStream(bytes.NewReader(data))
		if err == nil {
			_, _, err = s.NextCollection()
		}
		if err == nil {
			_, err = s.Next()
		}
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "larger than") {
			t.Fatalf("%d MiB page: err = %v, want the value-size error", size>>20, err)
		}
		if _, again := s.Next(); again == nil || again.Error() != err.Error() {
			t.Errorf("after the size error Next returned %v, want the same error", again)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d MiB page in %d gzipped bytes: %.1f MiB allocated before failing", size>>20, len(data), float64(alloc)/(1<<20))
		if limit := uint64(5 * MaxValueBytes); alloc > limit {
			t.Errorf("%d MiB page: allocated %d bytes before failing, want at most %d", size>>20, alloc, limit)
		}
	}

	s, err := ReadStream(bytes.NewReader(hostileCorpus(t, MaxValueBytes-1024)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.NextCollection(); err != nil {
		t.Fatal(err)
	}
	p, err := s.Next()
	if err != nil || len(p.HTML) != MaxValueBytes-1024 {
		t.Fatalf("page under the cap: err = %v", err)
	}
}
