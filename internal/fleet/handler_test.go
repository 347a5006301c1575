package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thor/internal/core"
)

// post runs one request through the fleet handler.
func post(h http.Handler, path, body string, header map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// wantBody renders the JSON the handler must answer for m serving html.
func wantBody(t *testing.T, m *core.Model, html string) string {
	t.Helper()
	path, found, err := m.ApplyHTML(context.Background(), html)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		return "{\"pagelets\":[]}\n"
	}
	return fmt.Sprintf("{\"pagelets\":[{\"path\":%q}]}\n", path)
}

func TestHandlerRoutesBySiteHeaderAndDefault(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	now := time.Unix(1_600_000_000, 0)
	writeModel(t, dir, "books", rawA, now)
	writeModel(t, dir, "music", rawB, now)
	f := New(Config{Dir: dir})
	defer f.Close()
	f.SetDefault(modelA)
	h := f.Handler()

	html := freshHTML[0]
	cases := []struct {
		name, path string
		header     map[string]string
		model      *core.Model
	}{
		{"path", "/extract/books", nil, modelA},
		{"path-b", "/extract/music", nil, modelB},
		{"header", "/extract", map[string]string{SiteHeader: "music"}, modelB},
		{"default", "/extract", nil, modelA},
		{"default-slash", "/extract/", nil, modelA},
	}
	for _, c := range cases {
		rec := post(h, c.path, html, c.header)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
		if got, want := rec.Body.String(), wantBody(t, c.model, html); got != want {
			t.Errorf("%s: body %q, want %q", c.name, got, want)
		}
	}

	if rec := post(h, "/extract/books/nested", html, nil); rec.Code != http.StatusNotFound {
		t.Errorf("nested path: %d, want 404", rec.Code)
	}
}

func TestHandlerErrorPaths(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	writeModel(t, dir, "books", rawA, time.Unix(1_600_000_000, 0))
	if err := os.WriteFile(filepath.Join(dir, "bad.thor.model.gz"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Dir: dir})
	h := f.Handler()

	req := httptest.NewRequest(http.MethodGet, "/extract/books", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}

	if rec := post(h, "/extract/books", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("empty body: %d, want 400", rec.Code)
	}
	if rec := post(h, "/extract/books", strings.Repeat("x", MaxExtractBody+1), nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", rec.Code)
	}
	if rec := post(h, "/extract/missing", "<html></html>", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown site: %d, want 404", rec.Code)
	}
	// No default model is pinned, so the bare route is an unknown site.
	if rec := post(h, "/extract", "<html></html>", nil); rec.Code != http.StatusNotFound {
		t.Errorf("no default: %d, want 404", rec.Code)
	}
	if rec := post(h, "/extract/bad", "<html></html>", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("corrupt model: %d, want 503", rec.Code)
	}

	f.Close()
	if rec := post(h, "/extract/books", "<html></html>", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("closed fleet: %d, want 503", rec.Code)
	}
}

// TestHandlerOverload429 pins the admission layer's refusal: with every
// slot and queue position occupied, the next request is shed with 429
// and a Retry-After hint instead of waiting.
func TestHandlerOverload429(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	writeModel(t, dir, "books", rawA, time.Unix(1_600_000_000, 0))
	f := New(Config{Dir: dir, MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 3 * time.Second})
	defer f.Close()
	h := f.Handler()

	// Occupy the slot and the queue position from the outside; the
	// handler's own requests now exceed the bound deterministically.
	ctx := context.Background()
	if err := f.gate.enter(ctx); err != nil {
		t.Fatal(err)
	}
	if f.gate.pending.Add(1) > f.gate.max {
		t.Fatal("queue position did not fit; test setup is wrong")
	}
	rec := post(h, "/extract/books", freshHTML[0], nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded: %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	// Release the synthetic load; requests are admitted again.
	f.gate.pending.Add(-1)
	f.gate.leave()
	if rec := post(h, "/extract/books", freshHTML[0], nil); rec.Code != http.StatusOK {
		t.Errorf("after the load drained: %d, want 200", rec.Code)
	}
}

// TestHandlerHotSwapRace is the torn-model check, run under -race in
// CI: a writer keeps replacing the model file (alternating snapshots,
// strictly increasing mtimes) while readers hammer the handler through
// per-request swap checks. Every response must be a complete verdict
// from one snapshot or the other — never an error, never a mix.
func TestHandlerHotSwapRace(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	base := time.Unix(1_600_000_000, 0)
	path := writeModel(t, dir, "books", rawA, base)

	// A clock that jumps a full swap interval on every read makes every
	// request a swap-check candidate.
	var ticks atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(ticks.Add(1)) * time.Second) }
	f := New(Config{Dir: dir, SwapEvery: time.Second, Clock: clock})
	defer f.Close()
	h := f.Handler()

	html := freshHTML[0]
	okA := wantBody(t, modelA, html)
	okB := wantBody(t, modelB, html)

	// Load the entry before the writer starts: the swap checks under test
	// only run on a loaded entry, and a cold load racing the in-place
	// writer could read a torn file.
	if rec := post(h, "/extract/books", html, nil); rec.Code != http.StatusOK || rec.Body.String() != okA {
		t.Fatalf("cold load: %d %q, want 200 %q", rec.Code, rec.Body, okA)
	}

	stop := make(chan struct{})
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		raws := [][]byte{rawB, rawA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			raw := raws[i%2]
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			mt := base.Add(time.Duration(i+1) * time.Minute)
			if err := os.Chtimes(path, mt, mt); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	const readers, perReader = 8, 40
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				rec := post(h, "/extract/books", html, nil)
				if rec.Code != http.StatusOK {
					t.Errorf("mid-swap request: %d %s", rec.Code, rec.Body)
					return
				}
				if body := rec.Body.String(); body != okA && body != okB {
					t.Errorf("torn verdict: %q is neither snapshot's answer", body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerDone.Wait()
}

// TestFleetWorkerCountIndependence pins that serving the same requests
// serially and at high concurrency yields identical responses — the
// registry's caching, swapping, and admission layers add no
// nondeterminism to the verdicts. Runs in the CI determinism matrix.
func TestFleetWorkerCountIndependence(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	now := time.Unix(1_600_000_000, 0)
	writeModel(t, dir, "books", rawA, now)
	writeModel(t, dir, "music", rawB, now)

	serve := func(workers int) []string {
		f := New(Config{Dir: dir, SwapEvery: -1})
		defer f.Close()
		h := f.Handler()
		sites := []string{"books", "music"}
		out := make([]string, len(freshHTML)*len(sites))
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					rec := post(h, "/extract/"+sites[i%len(sites)], freshHTML[i/len(sites)], nil)
					if rec.Code != http.StatusOK {
						t.Errorf("workers=%d request %d: %d", workers, i, rec.Code)
						return
					}
					out[i] = rec.Body.String()
				}
			}()
		}
		for i := range out {
			idx <- i
		}
		close(idx)
		wg.Wait()
		return out
	}

	want := serve(1)
	for _, workers := range []int{2, 8} {
		got := serve(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d request %d: %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}
