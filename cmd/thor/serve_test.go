package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/fleet"
	"thor/internal/probe"
)

// pageFromHTML wraps raw HTML the way the /extract endpoint does.
func pageFromHTML(html string) *corpus.Page { return &corpus.Page{HTML: html} }

// trainModel builds a small model the way -save-model would.
func trainModel(t *testing.T) *core.Model {
	t.Helper()
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(80, 8, 1), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	m, err := core.NewExtractor(core.DefaultConfig()).BuildModel(col.Pages)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// singleModelFleet wraps one model as a one-entry fleet, the -serve
// -model wiring without a -models directory.
func singleModelFleet(t *testing.T, m *core.Model) *fleet.Fleet {
	t.Helper()
	fl := fleet.New(fleet.Config{})
	t.Cleanup(fl.Close)
	fl.SetDefault(m)
	return fl
}

func TestExtractEndpoint(t *testing.T) {
	m := trainModel(t)

	// Round the model through disk first: the endpoint's contract is
	// serving from a *saved* model, with no training state available.
	path := filepath.Join(t.TempDir(), "m.gz")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(1, 7), singleModelFleet(t, loaded), nil))
	defer srv.Close()

	// Fresh pages from queries the training run never issued.
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(40, 4, 909), Labeler: deepweb.Labeler()}
	fresh := prober.ProbeSite(site)

	served := 0
	for _, page := range fresh.Pages {
		res, err := http.Post(srv.URL+"/extract", "text/html", strings.NewReader(page.HTML))
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("POST /extract: %s", res.Status)
		}
		if ct := res.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		var body struct {
			Pagelets []struct {
				Path string `json:"path"`
			} `json:"pagelets"`
		}
		err = json.NewDecoder(res.Body).Decode(&body)
		if cerr := res.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}

		// The endpoint must agree with a direct Apply on the same HTML.
		want, err := loaded.Apply(pageFromHTML(page.HTML))
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Pagelets) != len(want) {
			t.Fatalf("served %d pagelets, Apply returns %d", len(body.Pagelets), len(want))
		}
		for i, pl := range body.Pagelets {
			if pl.Path != want[i].Path {
				t.Fatalf("served path %q, Apply returns %q", pl.Path, want[i].Path)
			}
			served++
		}
	}
	if served == 0 {
		t.Fatal("no pagelet served from any fresh page; the test is vacuous")
	}
}

func TestExtractEndpointRejections(t *testing.T) {
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(1, 7), singleModelFleet(t, trainModel(t)), nil))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/extract")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /extract: %s, want 405", res.Status)
	}
	if allow := res.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}

	res, err = http.Post(srv.URL+"/extract", "text/html", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("empty POST: %s, want 400", res.Status)
	}

	res, err = http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader(strings.Repeat("x", fleet.MaxExtractBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST: %s, want 413", res.Status)
	}
}

// legacyExtractHandler is a verbatim copy of the single-model handler
// this command shipped before the fleet refactor. It exists only as the
// contract oracle for TestFleetHandlerMatchesLegacyByteForByte: the
// fleet's /extract route must stay bit-identical to it.
func legacyExtractHandler(m *core.Model) http.Handler {
	type extractedPagelet struct {
		Path string `json:"path"`
	}
	type extractResponse struct {
		Pagelets []extractedPagelet `json:"pagelets"`
	}
	const maxExtractBody = 4 << 20
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST a page's HTML to /extract", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxExtractBody+1))
		if err != nil {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxExtractBody {
			http.Error(w, fmt.Sprintf("page exceeds %d bytes", maxExtractBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		if len(body) == 0 {
			http.Error(w, "empty request body; POST the page's HTML", http.StatusBadRequest)
			return
		}
		path, found, err := m.ApplyHTML(r.Context(), string(body))
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := extractResponse{Pagelets: []extractedPagelet{}}
		if found {
			resp.Pagelets = append(resp.Pagelets, extractedPagelet{Path: path})
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			log.Printf("encoding /extract response: %v", err)
		}
	})
}

// TestFleetHandlerMatchesLegacyByteForByte is the refactor's contract
// test: a one-entry fleet answering POST /extract must be byte-identical
// — status, Content-Type, and full body — to the pre-refactor
// single-model handler, for every clustering approach and for the error
// paths (405, empty body, 413).
func TestFleetHandlerMatchesLegacyByteForByte(t *testing.T) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(40, 4, 1), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	fresh := &probe.Prober{Plan: probe.NewPlan(12, 2, 909), Labeler: deepweb.Labeler()}
	freshPages := fresh.ProbeSite(site).Pages
	oversized := strings.Repeat("x", fleet.MaxExtractBody+1)

	for a := core.Approach(0); a < core.NumApproaches; a++ {
		cfg := core.DefaultConfig()
		cfg.Approach = a
		cfg.Workers = 1
		m, err := core.NewExtractor(cfg).BuildModel(col.Pages)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		legacy := legacyExtractHandler(m)
		modern := serveHandler(deepweb.NewFarm(1, 7), singleModelFleet(t, m), nil)

		check := func(name, method, body string) {
			t.Helper()
			run := func(h http.Handler) *httptest.ResponseRecorder {
				req := httptest.NewRequest(method, "/extract", strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}
			want, got := run(legacy), run(modern)
			if got.Code != want.Code {
				t.Errorf("%s/%s: status %d, legacy %d", a, name, got.Code, want.Code)
			}
			if gc, wc := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); gc != wc {
				t.Errorf("%s/%s: Content-Type %q, legacy %q", a, name, gc, wc)
			}
			if got.Body.String() != want.Body.String() {
				t.Errorf("%s/%s: body %q, legacy %q", a, name, got.Body.String(), want.Body.String())
			}
		}

		for i, page := range freshPages {
			check(fmt.Sprintf("page%d", i), http.MethodPost, page.HTML)
		}
		check("get", http.MethodGet, "")
		check("empty", http.MethodPost, "")
		check("oversized", http.MethodPost, oversized)
	}
}

// TestServeHandlerKeepsFarmRoutes pins that mounting the fleet routes
// does not shadow the simulated deep-web farm.
func TestServeHandlerKeepsFarmRoutes(t *testing.T) {
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(2, 7), singleModelFleet(t, trainModel(t)), nil))
	defer srv.Close()

	for _, path := range []string{"/", "/site/0/"} {
		res, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("farm route %s: %s, want 200", path, res.Status)
		}
	}
}

func TestServeHandlerWithoutFleetHasNoExtract(t *testing.T) {
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(1, 7), nil, nil))
	defer srv.Close()

	res, err := http.Post(srv.URL+"/extract", "text/html", strings.NewReader("<html></html>"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode == http.StatusOK {
		t.Error("POST /extract succeeded with no fleet configured")
	}
}

// TestRunServerShutdownDrainsInFlight pins the graceful-shutdown order:
// on a stop signal, in-flight fleet extractions finish with 200 — the
// registry closes only after the drain — and runServer returns nil.
func TestRunServerShutdownDrainsInFlight(t *testing.T) {
	m := trainModel(t)
	fl := fleet.New(fleet.Config{})
	fl.SetDefault(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serveHandler(deepweb.NewFarm(1, 7), fl, nil))
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- runServer(srv, ln, fl, stop, shutdownDrain) }()

	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(12, 2, 909), Labeler: deepweb.Labeler()}
	html := prober.ProbeSite(site).Pages[0].HTML
	url := "http://" + ln.Addr().String() + "/extract"

	// Hammer the endpoint until the listener goes away. Transport errors
	// mean the server stopped accepting — expected after the signal — but
	// any request that was *answered* must have been answered completely.
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := http.Post(url, "text/html", strings.NewReader(html))
				if err != nil {
					return
				}
				_, err = io.Copy(io.Discard, res.Body)
				if cerr := res.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return
				}
				if res.StatusCode != http.StatusOK {
					t.Errorf("in-flight request answered %s, want 200", res.Status)
					return
				}
				served.Add(1)
			}
		}()
	}
	// Only signal once extraction traffic is actually flowing.
	for served.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("runServer after SIGTERM: %v", err)
	}
	wg.Wait()

	// The drain completed and only then was the registry closed.
	if _, err := fl.Get(context.Background(), fleet.DefaultSite); !errors.Is(err, fleet.ErrClosed) {
		t.Errorf("fleet after shutdown: %v, want ErrClosed", err)
	}
}

// TestRunServerShutdownSilentConnection: a client that connects and
// sends nothing must not turn a stop signal into an error, and the fleet
// must still be closed. Shutdown counts such a connection as busy until
// it is five seconds old, so the drain runs into its deadline; the
// remaining connections are then closed.
func TestRunServerShutdownSilentConnection(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serveHandler(deepweb.NewFarm(1, 7), fl, nil))
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("the -serve server sets no ReadHeaderTimeout")
	}
	accepted := make(chan struct{})
	var once sync.Once
	srv.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			once.Do(func() { close(accepted) })
		}
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- runServer(srv, ln, fl, stop, 100*time.Millisecond) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted // the server tracks the silent connection
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServer with a silent connection open: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServer did not return within 10 s of the stop signal")
	}
	if _, err := fl.Get(context.Background(), fleet.DefaultSite); !errors.Is(err, fleet.ErrClosed) {
		t.Errorf("fleet after shutdown: %v, want ErrClosed", err)
	}
}
