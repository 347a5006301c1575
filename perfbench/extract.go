package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"thor/internal/core"
	"thor/internal/deepweb"
	"thor/internal/fleet"
	"thor/internal/parallel"
)

// The extract workload serves fresh pages through POST /extract/{site}:
// 12 site models trained, saved and cold-loaded by a fleet in set-up,
// then a stream of pages from a second probe round (with its natural
// no-match, nonsense and error pages), interleaved round-robin across the
// sites as experiments.FleetBenchmark replays them. It is pure per-page apply
// behind the admission gate, with no training while timing: the "no
// change" control for training-side work.
const (
	extractSites = 12
	// extractRate is the open-loop phase's fixed offered load, about a
	// quarter of what one client drives through the handler, so the
	// percentiles describe an unsaturated server.
	extractRate = 3000
	// extractSlices is how many closed-loop and open-loop slices the
	// timed phase alternates.
	extractSlices = 8
	streamLen     = 1 << 16
)

// servedPage is one fresh page of the request pool with the response the
// fleet must return for it.
type servedPage struct {
	site string // route key, also the model file's base name
	url  string // "/extract/" + site
	html string
	body []byte
	// path/found is the verdict ApplyHTMLBytes gives the page; want is
	// the handler's response body, recorded and checked in warm-up.
	path  string
	found bool
	want  []byte
}

// extractEnv is the served system and its request pool.
type extractEnv struct {
	fl     *fleet.Fleet
	h      http.Handler
	pages  []*servedPage
	stream []int // request i serves pages[stream[i%streamLen]]
	// saveMs and loadMs time each model's SaveFile and its first
	// Fleet.Get (the cold load), for the traced suite.
	saveMs, loadMs []float64
}

// setupExtract probes and trains the sites, saves each model into dir,
// probes the fresh pages and cold-loads every model into a new fleet.
func setupExtract(r *run, dir string) *extractEnv {
	sites := deepweb.NewSites(extractSites, siteSeed)
	// The serving plans draw other dictionary probes than the training
	// plans: the served pages answer queries the training sample never
	// issued.
	train := probeSites(sites, parallel.DeriveSeed(r.seed, 3), r.clients)
	env := &extractEnv{saveMs: make([]float64, len(sites))}
	errs := parallel.Map(len(sites), r.clients, func(i int) error {
		m, err := core.NewExtractor(siteConfig(r.seed, train[i].id)).BuildModel(train[i].fresh())
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = m.SaveFile(filepath.Join(dir, siteKey(train[i].id)+".thor.model.gz"))
		env.saveMs[i] = msSince(t0)
		return err
	})
	for _, err := range errs {
		if err != nil {
			r.fail("training or saving a site model: %v", err)
		}
	}
	for _, s := range probeSites(sites, parallel.DeriveSeed(r.seed, 4), r.clients) {
		key := siteKey(s.id)
		for _, p := range s.specs {
			env.pages = append(env.pages, &servedPage{site: key, url: "/extract/" + key, html: p.ht, body: []byte(p.ht)})
		}
	}
	env.fl = fleet.New(fleet.Config{Dir: dir})
	env.h = env.fl.Handler()
	ctx := context.Background()
	for _, s := range train {
		t0 := time.Now()
		if _, err := env.fl.Get(ctx, siteKey(s.id)); err != nil {
			r.fail("cold-loading %s: %v", siteKey(s.id), err)
		}
		env.loadMs = append(env.loadMs, msSince(t0))
	}
	env.stream = extractStream(env.pages, r.seed)
	return env
}

// extractStream lays out the request stream: the sites take turns, and
// each site serves its pages in a seeded shuffled order, starting over
// when they run out. Every site draws the same share of traffic.
func extractStream(pages []*servedPage, seed int64) []int {
	bySite := map[string][]int{}
	var order []string
	for i, p := range pages {
		if _, ok := bySite[p.site]; !ok {
			order = append(order, p.site)
		}
		bySite[p.site] = append(bySite[p.site], i)
	}
	rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, 5)))
	for _, site := range order {
		idx := bySite[site]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	}
	stream := make([]int, streamLen)
	for i := range stream {
		idx := bySite[order[i%len(order)]]
		stream[i] = idx[(i/len(order))%len(idx)]
	}
	return stream
}

func siteKey(id int) string { return fmt.Sprintf("site%d", id) }

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// warm serves every pool page once, through the models directly and
// through the handler, recording the expected response and checking it
// is a well-formed verdict that agrees with ApplyHTMLBytes. It leaves the
// apply pools warm and returns the digest of the verdicts the stream's
// requests must get, keyed by request index.
func (env *extractEnv) warm(r *run) string {
	ctx := context.Background()
	parallel.ForEach(len(env.pages), r.clients, func(i int) {
		p := env.pages[i]
		m, err := env.fl.Get(ctx, p.site)
		if err != nil {
			r.fail("resolving %s: %v", p.site, err)
			return
		}
		if p.path, p.found, err = m.ApplyHTMLBytes(ctx, p.body); err != nil {
			r.fail("ApplyHTMLBytes: %v", err)
			return
		}
		rec := env.serve(ctx, p, nil)
		var resp struct {
			Pagelets []struct {
				Path string `json:"path"`
			} `json:"pagelets"`
		}
		switch {
		case rec.Code != http.StatusOK:
			r.fail("warm-up /extract answered %d", rec.Code)
		case json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Pagelets == nil || len(resp.Pagelets) > 1:
			r.fail("malformed /extract verdict %q", rec.Body.String())
		case p.found != (len(resp.Pagelets) == 1) || (p.found && (resp.Pagelets[0].Path != p.path || p.path == "")):
			r.fail("/extract verdict %q disagrees with ApplyHTMLBytes (%q, %v)", rec.Body.String(), p.path, p.found)
		}
		p.want = append([]byte(nil), rec.Body.Bytes()...)
	})
	d := newDigest()
	for i, idx := range env.stream {
		p := env.pages[idx]
		d.add(strconv.Itoa(i), p.site, p.path, strconv.FormatBool(p.found))
	}
	return d.sum()
}

// inputDigest fingerprints the request pool and the stream.
func (env *extractEnv) inputDigest() string {
	d := newDigest()
	for _, p := range env.pages {
		d.add(p.site, p.html)
	}
	d.add(fmt.Sprint(env.stream))
	return d.sum()
}

// serve sends one page through the handler in-process. With a span
// site, the handler call alone is recorded as a span.
func (env *extractEnv) serve(ctx context.Context, p *servedPage, at *spanAt) *httptest.ResponseRecorder {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url, bytes.NewReader(p.body))
	if err != nil {
		panic(err) // the URL is built from a site ID; it always parses
	}
	rec := httptest.NewRecorder()
	h := at.begin()
	env.h.ServeHTTP(rec, req)
	at.end(h)
	return rec
}

// outcome tallies one phase's requests.
type outcome struct {
	attempted, failed, wrong atomic.Int64
}

// check serves pages[idx] and classifies the answer: a non-200 fails the
// request, a 200 with another body than the recorded one is wrong.
func (env *extractEnv) check(ctx context.Context, idx int, o *outcome, at *spanAt) bool {
	p := env.pages[idx]
	rec := env.serve(ctx, p, at)
	o.attempted.Add(1)
	if rec.Code != http.StatusOK {
		o.failed.Add(1)
		return false
	}
	if !bytes.Equal(rec.Body.Bytes(), p.want) {
		o.wrong.Add(1)
	}
	return true
}

// closedLoop runs the stream from offset on r.clients clients, each
// sending its next request when the previous one is answered, for d. It
// returns how many requests were sent and how many succeeded.
func (env *extractEnv) closedLoop(r *run, offset int, d time.Duration, o *outcome) (sent, ok int64) {
	ctx := context.Background()
	var cursor, good atomic.Int64
	deadline := time.Now().Add(d)
	parallel.ForEach(r.clients, r.clients, func(int) {
		for time.Now().Before(deadline) {
			i := (offset + int(cursor.Add(1)-1)) % streamLen
			if env.check(ctx, env.stream[i], o, nil) {
				good.Add(1)
			}
		}
	})
	return cursor.Load(), good.Load()
}

// openLoop offers extractRate requests per second for d from one
// sender. Each request is due at a fixed time whatever happened before;
// svc is its service time, from send to response, and lag is how late it
// was sent, so svc+lag is its latency from the due time, which also
// charges a stall to the requests queued behind it. One sender keeps up
// (a request takes about a fifth of the gap between due times) and
// leaves the other processors to the server's own work, such as the
// collector. Go's timer sleeps can overshoot by a millisecond, so the
// sender spins the last stretch. With a span log each request records
// its queue wait, from due time to handler entry.
func (env *extractEnv) openLoop(offset int, d time.Duration, o *outcome, b *spanBuf) (svc, lag []float64) {
	ctx := context.Background()
	n := int(extractRate * d.Seconds())
	svc, lag = make([]float64, n), make([]float64, n)
	start := time.Now().Add(time.Millisecond)
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(float64(j) * float64(time.Second) / extractRate))
		if wait := time.Until(due); wait > 2*time.Millisecond {
			time.Sleep(wait - 2*time.Millisecond)
		}
		for time.Now().Before(due) {
		}
		sent := time.Now()
		ok := env.check(ctx, env.stream[(offset+j)%streamLen], o, nil)
		if b != nil {
			b.add("extract.queue_wait", 0, b.tr.req(), due, sent)
		}
		svc[j], lag[j] = msSince(sent), float64(sent.Sub(due).Nanoseconds())/1e6
		if !ok {
			svc[j] = math.Inf(1)
		}
	}
	return svc, lag
}

// runExtract: half of the time in a closed loop (saturation throughput),
// half in an open loop at extractRate (latency).
func runExtract(r *run) {
	rep := 0
	env, setupS := timedSetup(func() *extractEnv {
		rep++
		return setupExtract(r, r.mkdir(fmt.Sprintf("models-%d", rep)))
	})
	r.info("input digest %s (%d pages over %d sites, %d-request stream)", env.inputDigest(), len(env.pages), extractSites, streamLen)
	r.info("verdict digest %s", env.warm(r))

	// The two loops alternate in extractSlices slices each, so both
	// sample the whole timed phase and the host's drift over it.
	var (
		o             outcome
		svc, lag      []float64
		closedS       float64
		sent, ok, due int64
	)
	slice := time.Duration(r.seconds * float64(time.Second) / (2 * extractSlices))
	for k := 0; k < extractSlices; k++ {
		t0 := time.Now()
		n, good := env.closedLoop(r, int(sent%streamLen), slice, &o)
		closedS += time.Since(t0).Seconds()
		sent, ok = sent+n, ok+good
		l, g := env.openLoop(int((streamLen/2+due)%streamLen), slice, &o, nil)
		svc, lag, due = append(svc, l...), append(lag, g...), due+int64(len(l))
	}
	rps := float64(ok) / closedS
	heap := liveHeapMB()

	r.res.Attempted, r.res.Failed = o.attempted.Load(), o.failed.Load()
	if w := o.wrong.Load(); w > 0 {
		r.fail("%d responses differed from the recorded verdict", w)
	}
	// The reported latencies are service times at the fixed offered
	// load. Latency from the due time charges every host stall to the
	// requests queued behind it: across runs of the same code its p90
	// read from 0.14 to 7 ms and its p50 from 0.05 to 0.10 ms, as stalls
	// of up to seconds came and went. It is printed, with the lag.
	lat := make([]float64, len(svc))
	for j := range svc {
		lat[j] = svc[j] + lag[j]
	}
	p50, p90 := percentile(svc, 50), percentile(svc, 90)
	r.put("setup_s", setupS, "s")
	r.put("live_heap_mb", heap, "MB")
	r.put("ops_per_s", rps, "1/s")
	r.put("p50_ms", p50, "ms")
	r.put("tail_ms", p90, "ms")
	r.info("extract_rps %.1f 1/s (closed loop, %d clients, %.1f s)", rps, r.clients, closedS)
	r.info("open loop, %d req/s, %d requests: service time p50 %.4f ms, p90 %.4f ms, p99 %.4f ms",
		extractRate, len(svc), p50, p90, percentile(svc, 99))
	r.info("latency from due time: extract_p50_ms %.4f ms, p90 %.4f ms, extract_p99_ms %.4f ms, p99.9 %.4f ms",
		percentile(lat, 50), percentile(lat, 90), percentile(lat, 99), percentile(lat, 99.9))
	r.info("generator lag p50 %.4f ms, p99 %.4f ms, max %.4f ms", percentile(lag, 50), percentile(lag, 99), percentile(lag, 100))
	runtime.KeepAlive(env)
	env.fl.Close()
}
