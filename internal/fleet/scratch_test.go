package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"thor/internal/lifecycle"
)

// The allocation budgets for one warm /extract request. The body buffer
// and the apply pipeline's scratch come warm from their pools; what is
// left is the response: the Content-Type header value, the encoder and
// the boxed response value json.NewEncoder(w).Encode takes, and on a
// found page the answer path and the one-entry pagelet slice.
// testing.AllocsPerRun truncates to whole allocations, so a buffer that
// grows once inside the measured window does not flake.
const (
	maxExtractHandlerAllocsFound     = 5
	maxExtractHandlerAllocsNoPagelet = 3
)

// reusedWriter is a minimal ResponseWriter whose header map and body
// buffer live across requests, so that the measurement counts the
// handler's allocations and not the recorder's.
type reusedWriter struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (w *reusedWriter) Header() http.Header { return w.header }

func (w *reusedWriter) WriteHeader(code int) { w.code = code }

func (w *reusedWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

// TestExtractHandlerAllocs is the handler's allocation gate: after
// warmup, one /extract request costs at most its budget, on a page the
// model extracts from and on one it finds no pagelet in. Reading the
// body with io.ReadAll cost a growing copy per request: 13 and 8
// allocations.
func TestExtractHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI step")
	}
	fixtures(t)
	dir := t.TempDir()
	writeModel(t, dir, "books", rawA, time.Unix(1_600_000_000, 0))
	f := New(Config{Dir: dir, SwapEvery: -1})
	defer f.Close()
	h := f.Handler()

	pages := map[bool]string{}
	for _, html := range freshHTML {
		if _, found, err := modelA.ApplyHTML(context.Background(), html); err != nil {
			t.Fatal(err)
		} else if _, ok := pages[found]; !ok {
			pages[found] = html
		}
	}
	for _, c := range []struct {
		name   string
		found  bool
		budget float64
	}{{"found", true, maxExtractHandlerAllocsFound}, {"no pagelet", false, maxExtractHandlerAllocsNoPagelet}} {
		html, ok := pages[c.found]
		if !ok {
			t.Fatalf("no fixture page with found=%v", c.found)
		}
		t.Run(c.name, func(t *testing.T) {
			body := []byte(html)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/extract/books", rd)
			w := &reusedWriter{header: http.Header{}}
			want := wantBody(t, modelA, html)
			serve := func() {
				rd.Reset(body)
				w.body.Reset()
				w.code = 0
				h.ServeHTTP(w, req)
			}
			for range 5 {
				serve()
			}
			if w.code != http.StatusOK || w.body.String() != want {
				t.Fatalf("warm request: %d %q, want 200 %q", w.code, w.body.String(), want)
			}
			allocs := testing.AllocsPerRun(50, serve)
			t.Logf("%.2f allocs per warm /extract request", allocs)
			if allocs > c.budget {
				t.Errorf("%.1f allocs per warm /extract request, budget %v", allocs, c.budget)
			}
			if w.code != http.StatusOK || w.body.String() != want {
				t.Fatalf("measured request: %d %q, want 200 %q", w.code, w.body.String(), want)
			}
		})
	}
}

// TestDriftReservoirSurvivesBufferReuse posts drifted pages through a
// drift-enabled fleet, longest first, so each request reads its body
// into the buffer the one before it used. The observer's reservoir must
// hold exactly the posted bodies: a reservoir that kept the pooled
// buffer instead of a copy would show later pages' bytes.
func TestDriftReservoirSurvivesBufferReuse(t *testing.T) {
	fixtures(t)
	// A window longer than the traffic never closes, so nothing drains
	// the reservoir before it is read.
	f := New(Config{Drift: &lifecycle.Config{Window: 1000}})
	defer f.Close()
	f.SetDefault(modelA)
	h := f.Handler()

	pages := shiftedHTML(6)
	slices.Reverse(pages)
	for i, html := range pages {
		if rec := post(h, "/extract", html, nil); rec.Code != http.StatusOK {
			t.Fatalf("page %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// One more request reuses the buffer the last drifted page was read
	// into; the fixture site's own fresh pages are not admitted.
	if rec := post(h, "/extract", freshHTML[0], nil); rec.Code != http.StatusOK {
		t.Fatalf("last request: %d %s", rec.Code, rec.Body)
	}
	// The reservoir comes back sorted bytewise.
	want := slices.Clone(pages)
	slices.Sort(want)
	got := f.entries[DefaultSite].obs.Load().TakeReservoir()
	if len(got) != len(want) {
		t.Fatalf("reservoir holds %d pages, want the %d drifted ones", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("reservoir page %d: %d bytes differ from the %d posted", i, len(got[i]), len(want[i]))
		}
	}
}

// TestPutExtractScratchRetentionBound: a scratch whose body buffer grew
// past maxRetainedBody is left to the garbage collector, so it never
// comes back out of the pool; one within the bound is put back with the
// request's body reader dropped.
func TestPutExtractScratchRetentionBound(t *testing.T) {
	big := extractScratches.New().(*extractScratch)
	big.body.Grow(maxRetainedBody + 1)
	putExtractScratch(big)
	// Gets that never Put back drain whatever the pool holds; a scratch
	// that was never put cannot be among them.
	for range 64 {
		if extractScratches.Get().(*extractScratch) == big {
			t.Fatal("a scratch past the retention bound came back from the pool")
		}
	}

	s := extractScratches.New().(*extractScratch)
	s.lim.R = strings.NewReader("page")
	putExtractScratch(s)
	if s.lim.R != nil {
		t.Errorf("retained scratch still refers to its request body: %v", s.lim.R)
	}
}

// BenchmarkExtractHandler serves the fixture's fresh pages through a
// warm handler, one request per page, with a reused request and writer.
func BenchmarkExtractHandler(b *testing.B) {
	fixtures(b)
	dir := b.TempDir()
	writeModel(b, dir, "books", rawA, time.Unix(1_600_000_000, 0))
	f := New(Config{Dir: dir, SwapEvery: -1})
	defer f.Close()
	h := f.Handler()
	bodies := make([][]byte, len(freshHTML))
	for i, html := range freshHTML {
		bodies[i] = []byte(html)
	}
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/extract/books", rd)
	w := &reusedWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(bodies[i%len(bodies)])
		w.body.Reset()
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("request %d: %d %s", i, w.code, w.body.String())
		}
	}
}
