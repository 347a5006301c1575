package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thor/internal/core"
	"thor/internal/lifecycle"
)

// shiftedHTML fabricates n pages from a template the fixture models
// never trained on — a list-based layout instead of the deep-web
// generator's — so their assignment distances land well outside the
// training baseline's histogram bucket (≈0.12 versus <0.02; the
// fixture site's own fresh pages, and even other deep-web site IDs,
// stay inside it).
func shiftedHTML(n int) []string {
	html := make([]string, n)
	for i := range html {
		var b strings.Builder
		b.WriteString(`<html><head><title>v2</title></head><body><div id="nav">`)
		for j := 0; j < 8; j++ {
			b.WriteString(`<span class="m"><a href="#">item</a></span>`)
		}
		b.WriteString("</div>")
		for j := 0; j < 10+i; j++ {
			fmt.Fprintf(&b, "<ul><li><b>q%d</b><i>a%d</i></li><li><em>detail</em></li></ul>", j, i)
		}
		b.WriteString("</body></html>")
		html[i] = b.String()
	}
	return html
}

// TestDriftDisabledIsByteIdentical pins the contract that enabling
// drift detection changes nothing about responses: the same traffic
// through a drift-free fleet and a drift-enabled fleet (on stable
// pages that never close a drifted window) answers byte-for-byte the
// same bodies.
func TestDriftDisabledIsByteIdentical(t *testing.T) {
	fixtures(t)

	plain := New(Config{})
	defer plain.Close()
	plain.SetDefault(modelA)

	drifty := New(Config{Drift: &lifecycle.Config{}})
	defer drifty.Close()
	drifty.SetDefault(modelA)

	ph, dh := plain.Handler(), drifty.Handler()
	for i, html := range freshHTML {
		a := post(ph, "/extract", html, nil)
		b := post(dh, "/extract", html, nil)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("page %d: status %d vs %d", i, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("page %d: drift-enabled body %q != drift-free body %q",
				i, b.Body.String(), a.Body.String())
		}
	}
	st := drifty.Stats()
	ss := st.Sites[DefaultSite]
	if ss.Refines != 0 || ss.Rebuilds != 0 {
		t.Errorf("stable traffic triggered rebuilds: %+v", ss)
	}
	if ss.Rev != 0 {
		t.Errorf("stable traffic advanced the model to rev %d", ss.Rev)
	}
}

// TestDriftInertWithoutBaseline serves a model assembled without a
// training baseline through a drift-enabled fleet: the observer must be nil,
// requests must serve normally, and the stats snapshot must show an
// all-zero drift block.
func TestDriftInertWithoutBaseline(t *testing.T) {
	fixtures(t)
	m, err := core.LoadModel(bytes.NewReader(rawA))
	if err != nil {
		t.Fatal(err)
	}
	m.Baseline = nil

	f := New(Config{Drift: &lifecycle.Config{Window: 2}})
	defer f.Close()
	f.Register("legacy", m)
	h := f.Handler()

	for _, html := range shiftedHTML(6) {
		if rec := post(h, "/extract/legacy", html, nil); rec.Code != http.StatusOK {
			t.Fatalf("baseline-less model refused a request: %d %s", rec.Code, rec.Body)
		}
	}
	ss := f.Stats().Sites["legacy"]
	if ss.Drift != (lifecycle.Stats{}) {
		t.Errorf("baseline-less entry reports drift activity: %+v", ss.Drift)
	}
	if ss.Refines != 0 || ss.Rebuilds != 0 || ss.Rev != 0 {
		t.Errorf("baseline-less entry was rebuilt: %+v", ss)
	}
}

// TestDriftRefineHotSwapsUnderTraffic is the lifecycle integration
// test: pages from a shifted template close a drifted window, the
// request that closes it refines the model on its own goroutine, and
// the next revision is serving — with every request answered 200 and
// nothing dropped while the swap happened.
func TestDriftRefineHotSwapsUnderTraffic(t *testing.T) {
	fixtures(t)
	const window = 8
	log := &countingLog{}
	// Severe above 1.0 is unreachable (the score is a total-variation
	// distance ≤ 1), forcing the mild path: a mini-batch Refine.
	f := New(Config{
		Drift: &lifecycle.Config{Window: window, Mild: 0.2, Severe: 1.5},
		Logf:  log.Logf,
	})
	defer f.Close()
	f.Register("shop", modelA)
	h := f.Handler()

	shifted := shiftedHTML(window)
	for i, html := range shifted {
		rec := post(h, "/extract/shop", html, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d dropped during drift handling: %d %s", i, rec.Code, rec.Body)
		}
	}

	// The Window-th request closed the window and ran the refine before
	// returning — no sleeping, no polling: the serving path is
	// goroutine-free, so the work is already done here.
	ss := f.Stats().Sites["shop"]
	if ss.Refines != 1 {
		t.Fatalf("refines = %d, want exactly 1 (one closed window)", ss.Refines)
	}
	if ss.Rebuilds != 0 {
		t.Errorf("rebuilds = %d, want 0 (severe threshold is unreachable)", ss.Rebuilds)
	}
	if ss.Rev != 1 {
		t.Errorf("served rev = %d, want 1 after one refinement", ss.Rev)
	}
	if ss.Requests != int64(len(shifted)) {
		t.Errorf("requests = %d, want %d", ss.Requests, len(shifted))
	}
	if got := ss.Drift.Windows; got != 0 {
		// Rebase resets the window count: the observer judges the new
		// revision's geometry from scratch.
		t.Errorf("drift windows after rebase = %d, want 0", got)
	}
	if n := log.count("drift on shop"); n != 1 {
		t.Errorf("drift log lines = %d, want 1", n)
	}

	// The refined model keeps serving: the original stable pages still
	// answer, and the registry still reports a loaded entry.
	for i, html := range freshHTML {
		if rec := post(h, "/extract/shop", html, nil); rec.Code != http.StatusOK {
			t.Fatalf("stable page %d refused after refine: %d %s", i, rec.Code, rec.Body)
		}
	}
	if modelA.Rev != 0 {
		t.Errorf("refine mutated the registered model (rev %d); it must build a new one", modelA.Rev)
	}
}

// TestDriftRefineIsDeterministic runs the same shifted traffic twice
// through fresh fleets and demands bit-identical outcomes: same
// refine count, same revision, and byte-identical responses after the
// swap — the lifecycle introduces no goroutines and no randomness.
func TestDriftRefineIsDeterministic(t *testing.T) {
	fixtures(t)
	const window = 8
	shifted := shiftedHTML(window)

	run := func() []string {
		f := New(Config{Drift: &lifecycle.Config{Window: window, Mild: 0.2, Severe: 1.5}})
		defer f.Close()
		f.Register("shop", modelA)
		h := f.Handler()
		var bodies []string
		for _, html := range append(append([]string{}, shifted...), freshHTML...) {
			rec := post(h, "/extract/shop", html, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			bodies = append(bodies, rec.Body.String())
		}
		ss := f.Stats().Sites["shop"]
		if ss.Refines != 1 || ss.Rev != 1 {
			t.Fatalf("refines=%d rev=%d, want 1/1", ss.Refines, ss.Rev)
		}
		return bodies
	}

	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("response %d differs across identical runs: %q vs %q", i, first[i], second[i])
		}
	}
}

// TestStatsHandler covers the /stats surface: the JSON snapshot's
// counters, and the read-only refusal.
func TestStatsHandler(t *testing.T) {
	fixtures(t)
	f := New(Config{Drift: &lifecycle.Config{Window: 4}})
	defer f.Close()
	f.Register("shop", modelA)
	eh, sh := f.Handler(), f.StatsHandler()

	for _, html := range freshHTML[:3] {
		if rec := post(eh, "/extract/shop", html, nil); rec.Code != http.StatusOK {
			t.Fatalf("extract: %d %s", rec.Code, rec.Body)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	sh.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var got Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding /stats body: %v\n%s", err, rec.Body)
	}
	ss, ok := got.Sites["shop"]
	if !ok {
		t.Fatalf("snapshot missing site: %s", rec.Body)
	}
	if !ss.Pinned || !ss.Loaded {
		t.Errorf("pinned/loaded = %v/%v, want true/true", ss.Pinned, ss.Loaded)
	}
	if ss.Requests != 3 {
		t.Errorf("requests = %d, want 3", ss.Requests)
	}
	if ss.Drift.Pending != 3 {
		t.Errorf("drift pending = %d, want 3 (window of 4 not yet closed)", ss.Drift.Pending)
	}

	// Two identical snapshots must serialize identically — the body is
	// deterministic for a given counter state.
	rec2 := httptest.NewRecorder()
	sh.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Body.String() != rec2.Body.String() {
		t.Errorf("stats body not deterministic:\n%s\n%s", rec.Body, rec2.Body)
	}

	post := httptest.NewRecorder()
	sh.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/stats", nil))
	if post.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats: %d, want 405", post.Code)
	}
	if allow := post.Header().Get("Allow"); allow != http.MethodGet {
		t.Errorf("Allow header %q, want GET", allow)
	}
}
