package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/htmlx"
	"thor/internal/parallel"
	"thor/internal/qaindex"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// The traced suite times the calls into each layer's public functions
// from the benchmark's own code: spans wrap the calls, the program is
// unchanged. It covers every layer of all three paths in one run, at
// fixed work counts, so per-layer sums compare across runs. Each path is
// also run untraced on the same work, and the traced pass's extra wall
// time (span bookkeeping and the re-run stage calls) is reported as that
// path's tracing overhead.
const (
	// tracedSites is how many onboard sites the suite trains, traced and
	// untraced (a quarter of the corpus).
	tracedSites = 12
	// tracedExtract is the closed-loop request count of each extract
	// pass; tracedOpen is the traced open-loop phase's length.
	tracedExtract = 20_000
	tracedOpen    = 4 * time.Second
	// tracedSearch is the request count of each search pass.
	tracedSearch = 800
)

// span is one timed call: a name, its interval in nanoseconds since the
// suite started, the span that caused it and the request it served.
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end int64
}

// tracer collects spans in memory, one buffer per goroutine.
type tracer struct {
	t0   time.Time
	ids  atomic.Int64
	reqs atomic.Int64
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's span log.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// buf returns a new span log for one goroutine.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// req allocates a request ID.
func (t *tracer) req() int64 { return t.reqs.Add(1) }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its handle.
func (b *spanBuf) begin(name string, parent, req int64) int {
	b.spans = append(b.spans, span{name: name, id: b.tr.ids.Add(1), parent: parent, req: req, start: b.tr.since(time.Now())})
	return len(b.spans) - 1
}

// end closes the span and returns its ID, for use as a parent.
func (b *spanBuf) end(h int) int64 {
	b.spans[h].end = b.tr.since(time.Now())
	return b.spans[h].id
}

// id is the ID of an open span.
func (b *spanBuf) id(h int) int64 { return b.spans[h].id }

// add records a span whose interval was measured elsewhere.
func (b *spanBuf) add(name string, parent, req int64, start, end time.Time) {
	b.spans = append(b.spans, span{name: name, id: b.tr.ids.Add(1), parent: parent, req: req, start: b.tr.since(start), end: b.tr.since(end)})
}

// spanAt names a span to record around one call; a nil *spanAt records
// nothing.
type spanAt struct {
	b           *spanBuf
	name        string
	parent, req int64
}

func (a *spanAt) begin() int {
	if a == nil {
		return 0
	}
	return a.b.begin(a.name, a.parent, a.req)
}

func (a *spanAt) end(h int) {
	if a != nil {
		a.b.end(h)
	}
}

// spanStats is the analysed trace.
type spanStats struct {
	self map[string][]float64 // ns of self time per span, by name
	dur  map[string][]float64 // ns of duration per span, by name
	// byReq sums each request's span durations by name.
	byReq map[int64]map[string]float64
}

// mark returns a position in the tracer's buffers; analyse(mark) covers
// only the spans of buffers created after it, one path's spans.
func (t *tracer) mark() int { return len(t.bufs) }

// analyse computes self times: a span's duration minus the time its
// children cover. Children run sequentially on their parent's goroutine,
// so their durations do not overlap.
func (t *tracer) analyse(from int) spanStats {
	bufs := t.bufs[from:]
	children := map[int64]int64{}
	for _, b := range bufs {
		for _, s := range b.spans {
			if s.parent != 0 {
				children[s.parent] += s.end - s.start
			}
		}
	}
	st := spanStats{self: map[string][]float64{}, dur: map[string][]float64{}, byReq: map[int64]map[string]float64{}}
	for _, b := range bufs {
		for _, s := range b.spans {
			d := float64(s.end - s.start)
			st.dur[s.name] = append(st.dur[s.name], d)
			st.self[s.name] = append(st.self[s.name], d-float64(children[s.id]))
			if s.req != 0 {
				m := st.byReq[s.req]
				if m == nil {
					m = map[string]float64{}
					st.byReq[s.req] = m
				}
				m[s.name] += d
			}
		}
	}
	return st
}

// sumS is the summed self time of the named spans, in seconds.
func (st spanStats) sumS(name string) float64 {
	total := 0.0
	for _, x := range st.self[name] {
		total += x
	}
	return total / 1e9
}

// medUS is the median self time of the named spans, in microseconds.
func (st spanStats) medUS(name string) float64 { return median(st.self[name]) / 1e3 }

// remainderUS is the median, over requests with an outer span, of the
// outer span's duration minus the named inner calls made on the same
// input: the handler's own share, in microseconds.
func (st spanStats) remainderUS(outer string, inner ...string) float64 {
	var xs []float64
	//thorlint:allow no-map-range-order the median that consumes xs is order-free
	for _, m := range st.byReq {
		d, ok := m[outer]
		if !ok {
			continue
		}
		for _, n := range inner {
			d -= m[n]
		}
		xs = append(xs, d)
	}
	return median(xs) / 1e3
}

// write dumps every span as tab-separated text.
func (t *tracer) write(path string) error {
	buf := []byte("id\tparent\treq\tname\tstart_ns\tend_ns\n")
	for _, b := range t.bufs {
		for _, s := range b.spans {
			buf = fmt.Appendf(buf, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	return os.WriteFile(path, buf, 0o644)
}

// runTraced runs the traced suite and reports the per-layer metrics.
func runTraced(r *run) {
	tr := newTracer()
	traceOnboard(r, tr)
	traceExtract(r, tr)
	traceSearch(r, tr)
	path := filepath.Join(buildDir, "spans-"+r.workload+".tsv")
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		os.Exit(1)
	}
	n := 0
	for _, b := range tr.bufs {
		n += len(b.spans)
	}
	r.info("traced suite wrote %d spans to %s", n, path)
}

// memDelta returns the allocation and GC-cycle counts between two
// MemStats snapshots.
func memDelta(a, b *runtime.MemStats) (mallocs, allocBytes uint64, gcs uint32) {
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC
}

// siteTrace is one site's traced build: its wrappers by cluster ID and
// the phase-two counts.
type siteTrace struct {
	wrappers                           []*core.Wrapper
	candidates, found, kept, passed    int
	correct, identified, truth, builds int
}

// traceSite rebuilds one site's model from the public stage functions in
// BuildModel's order, each call inside a span: parse, signature, phase
// one, then for each passed cluster the four phase-two steps and the
// wrapper.
func traceSite(b *spanBuf, pages []*corpus.Page, cfg core.Config) siteTrace {
	req := b.tr.req()
	root := b.begin("onboard.site", 0, req)
	rid := b.id(root)
	for _, p := range pages {
		h := b.begin("htmlx.parse", rid, req)
		p.Tree()
		b.end(h)
	}
	for _, p := range pages {
		h := b.begin("corpus.signature", rid, req)
		p.TagSignature()
		b.end(h)
	}
	h := b.begin("core.phase1", rid, req)
	p1 := core.Phase1(pages, cfg)
	b.end(h)

	ex := core.NewExtractor(cfg)
	out := siteTrace{wrappers: make([]*core.Wrapper, p1.Clustering.K)}
	passed := min(cfg.TopClusters, len(p1.Ranked))
	out.passed = passed
	var pagelets []*core.Pagelet
	for ci := 0; ci < passed; ci++ {
		pc := p1.Ranked[ci]
		p2 := b.begin("core.phase2", rid, req)
		pid := b.id(p2)
		perPage := make([][]*core.Candidate, len(pc.Pages))
		for i, p := range pc.Pages {
			h := b.begin("core.phase2.candidates", pid, req)
			perPage[i] = core.SinglePageCandidates(p.Tree(), i)
			b.end(h)
			out.candidates += len(perPage[i])
		}
		h := b.begin("core.phase2.common_sets", pid, req)
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, int64(ci))))
		sets := core.FindCommonSubtreeSets(perPage, cfg, rng, strdist.NewSimplifier(cfg.PathSimplifyQ))
		b.end(h)
		out.found += len(sets)
		// Phase2's support filter: a set must match in at least
		// MinSetFraction of the cluster's pages.
		minMembers := max(int(math.Ceil(cfg.MinSetFraction*float64(len(pc.Pages)))), 1)
		var kept []*core.SubtreeSet
		for _, s := range sets {
			if len(s.Members) >= minMembers {
				kept = append(kept, s)
			}
		}
		out.kept += len(kept)
		h = b.begin("core.phase2.rank", pid, req)
		core.RankSubtreeSets(kept, cfg)
		b.end(h)
		h = b.begin("core.phase2.select", pid, req)
		sel := core.SelectPagelets(kept, cfg)
		b.end(h)
		b.end(p2)

		res := &core.Phase2Result{Sets: kept, SelectedSets: sel}
		if len(sel) > 0 {
			res.Selected = sel[0]
			for _, s := range sel {
				for _, m := range s.Members {
					pagelets = append(pagelets, &core.Pagelet{Page: pc.Pages[m.PageIdx], Node: m.Node, Path: m.Node.Path()})
				}
			}
		}
		h = b.begin("core.wrapper", rid, req)
		w, err := ex.BuildWrapper(res)
		b.end(h)
		if err == nil {
			out.wrappers[pc.ClusterID] = w
			out.builds++
		}
	}
	b.end(root)
	out.correct, out.identified, out.truth = core.Score(pagelets, pages)
	return out
}

// sameWrappers reports whether two wrapper tables select the same
// regions: the same clusters, paths and shape profiles.
func sameWrappers(a, b []*core.Wrapper) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch {
		case (a[i] == nil) != (b[i] == nil):
			return false
		case a[i] == nil:
		//thorlint:allow no-float-eq both builds run the same arithmetic; the shape profiles must agree bit for bit
		case !slices.Equal(a[i].Paths, b[i].Paths) || a[i].Fanout != b[i].Fanout || a[i].Depth != b[i].Depth || a[i].Nodes != b[i].Nodes:
			return false
		}
	}
	return true
}

// traceOnboard trains tracedSites sites untraced with BuildModel, then
// again from the stage functions with spans, and checks both select the
// same regions.
func traceOnboard(r *run, tr *tracer) {
	sites, planSeed := onboardInputs(r.seed)
	samples := probeSites(sites[:tracedSites], planSeed, r.clients)
	pages := 0
	for _, s := range samples {
		pages += len(s.specs)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	untracedS := make([]float64, len(samples))
	models := parallel.Map(len(samples), r.clients, func(i int) *core.Model {
		t0 := time.Now()
		m, err := core.NewExtractor(siteConfig(r.seed, samples[i].id)).BuildModel(samples[i].fresh())
		untracedS[i] = time.Since(t0).Seconds()
		if err != nil {
			r.fail("BuildModel on site %d: %v", samples[i].id, err)
		}
		return m
	})
	for _, m := range models {
		if m == nil {
			r.res.Failed++
		}
	}
	runtime.ReadMemStats(&m1)
	_, allocBytes, gcs := memDelta(&m0, &m1)

	from := tr.mark()
	start := time.Now()
	traces := parallel.Map(len(samples), r.clients, func(i int) siteTrace {
		return traceSite(tr.buf(), samples[i].fresh(), siteConfig(r.seed, samples[i].id))
	})
	wall := time.Since(start).Seconds()

	var tot siteTrace
	for i, t := range traces {
		if models[i] != nil && !sameWrappers(t.wrappers, models[i].Wrappers) {
			r.fail("site %d: the traced phase-two decomposition selected other regions than BuildModel", samples[i].id)
		}
		tot.candidates += t.candidates
		tot.found += t.found
		tot.kept += t.kept
		tot.passed += t.passed
		tot.builds += t.builds
		tot.correct += t.correct
		tot.identified += t.identified
		tot.truth += t.truth
	}
	r.res.Attempted += int64(2 * len(samples))

	st := tr.analyse(from)
	busy := 0.0
	for _, d := range st.dur["onboard.site"] {
		busy += d / 1e9
	}
	untraced := 0.0
	for _, s := range untracedS {
		untraced += s
	}
	for _, name := range []string{"htmlx.parse", "corpus.signature", "core.phase1", "core.phase2.candidates",
		"core.phase2.common_sets", "core.phase2.rank", "core.phase2.select", "core.wrapper"} {
		r.put(name+"_s", st.sumS(name), "s")
	}
	r.put("parallel.idle_s", float64(r.clients)*wall-busy, "s")
	r.put("core.phase2.candidates", float64(tot.candidates), "count")
	r.put("core.phase2.sets_found", float64(tot.found), "count")
	r.put("core.phase2.sets_kept", float64(tot.kept), "count")
	r.put("core.phase2.kept_share", float64(tot.kept)/float64(tot.found), "ratio")
	r.put("core.clusters_passed", float64(tot.passed), "count")
	r.put("core.wrappers_built", float64(tot.builds), "count")
	r.put("core.precision", float64(tot.correct)/float64(tot.identified), "ratio")
	r.put("core.recall", float64(tot.correct)/float64(tot.truth), "ratio")
	r.put("go.alloc_mb_per_page", float64(allocBytes)/(1<<20)/float64(pages), "MB")
	r.put("go.gc_cycles", float64(gcs), "count")
	r.put("trace.onboard_overhead", busy/untraced-1, "ratio")
	r.info("traced onboard: %d sites in %.2f s wall, %.2f s busy vs %.2f s untraced", len(samples), wall, busy, untraced)
}

// traceExtract serves tracedExtract requests untraced, then the same
// requests traced with each apply stage re-run on the body, then a
// traced open-loop phase for the queue wait.
func traceExtract(r *run, tr *tracer) {
	t0 := time.Now()
	env := setupExtract(r, r.mkdir("models-traced"))
	setupS := time.Since(t0).Seconds()
	env.warm(r)
	ctx := context.Background()
	var o outcome

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var cursor atomic.Int64
	t0 = time.Now()
	parallel.ForEach(r.clients, r.clients, func(int) {
		for i := int(cursor.Add(1) - 1); i < tracedExtract; i = int(cursor.Add(1) - 1) {
			env.check(ctx, env.stream[i], &o, nil)
		}
	})
	untracedS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	mallocs, _, _ := memDelta(&m0, &m1)

	weights := map[*core.Model]vector.Weighting{}
	for _, p := range env.pages {
		m, err := env.fl.Get(ctx, p.site)
		if err != nil {
			r.fail("resolving %s: %v", p.site, err)
			return
		}
		if _, ok := weights[m]; !ok && !m.Cfg.Approach.RawWeighted() {
			weights[m] = vector.DFWeighting(m.Dict, m.DF, m.NDocs)
		}
	}
	var found, mismatched atomic.Int64
	from := tr.mark()
	cursor.Store(0)
	t0 = time.Now()
	parallel.ForEach(r.clients, r.clients, func(int) {
		b := tr.buf()
		parser := htmlx.NewParser()
		sig := corpus.NewSignatureScratch()
		var is vector.InternScratch
		for i := int(cursor.Add(1) - 1); i < tracedExtract; i = int(cursor.Add(1) - 1) {
			p := env.pages[env.stream[i]]
			req := tr.req()
			root := b.begin("extract.request", 0, req)
			rid := b.id(root)
			env.check(ctx, env.stream[i], &o, &spanAt{b, "fleet.handler", rid, req})
			h := b.begin("fleet.get", rid, req)
			m, err := env.fl.Get(ctx, p.site)
			b.end(h)
			if err != nil {
				r.fail("resolving %s: %v", p.site, err)
				return
			}
			h = b.begin("core.apply", rid, req)
			path, ok, err := m.ApplyHTMLBytes(ctx, p.body)
			b.end(h)
			if err != nil {
				r.fail("ApplyHTMLBytes: %v", err)
				return
			}
			stages := b.begin("core.apply_stages", rid, req)
			sid := b.id(stages)
			h = b.begin("htmlx.parse", sid, req)
			tree := parser.Parse(p.html)
			b.end(h)
			h = b.begin("corpus.signature", sid, req)
			counts := signature(sig, tree, m.Cfg.Approach)
			b.end(h)
			h = b.begin("vector.intern", sid, req)
			v := m.Dict.InternCounts(counts, weights[m], &is)
			b.end(h)
			h = b.begin("vector.assign", sid, req)
			best, _ := vector.AssignNearest(v, m.Centroids)
			b.end(h)
			// Wrapper.Extract is the string-path scorer, not the pooled one
			// ApplyHTMLBytes serves through; its span is reported only as
			// a comment line.
			var node *tagtree.Node
			if w := m.Wrappers[best]; w != nil {
				h = b.begin("core.wrapper_extract", sid, req)
				node, _ = w.Extract(tree)
				b.end(h)
			}
			b.end(stages)
			b.end(root)
			if (node != nil) != ok || (node != nil && node.Path() != path) || path != p.path {
				mismatched.Add(1)
			}
			parser.Release()
			if ok {
				found.Add(1)
			}
		}
	})
	tracedS := time.Since(t0).Seconds()
	if n := mismatched.Load(); n > 0 {
		r.fail("%d pages: the traced apply stages disagree with ApplyHTMLBytes", n)
	}

	svc, _ := env.openLoop(streamLen/2, tracedOpen, &o, tr.buf())
	if w := o.wrong.Load(); w > 0 {
		r.fail("%d responses differed from the recorded verdict", w)
	}
	r.res.Attempted += o.attempted.Load()
	r.res.Failed += o.failed.Load()

	st := tr.analyse(from)
	r.put("fleet.handler_us", st.remainderUS("fleet.handler", "fleet.get", "core.apply"), "us")
	for _, name := range []string{"fleet.get", "core.apply", "extract.queue_wait", "htmlx.parse",
		"corpus.signature", "vector.intern", "vector.assign"} {
		r.put(name+"_us", st.medUS(name), "us")
	}
	// The served wrapper stage (the pooled path scorer inside
	// ApplyHTMLBytes) has no public entry point of its own: its share is
	// what remains of each ApplyHTMLBytes call after the four stages
	// before it.
	r.put("core.wrapper_us", st.remainderUS("core.apply", "htmlx.parse", "corpus.signature", "vector.intern", "vector.assign"), "us")
	r.put("fleet.shed", float64(env.fl.Stats().Shed), "count")
	r.put("core.found_share", float64(found.Load())/tracedExtract, "ratio")
	r.put("go.allocs_per_req", float64(mallocs)/tracedExtract, "count")
	r.put("core.save_ms", median(env.saveMs), "ms")
	r.put("fleet.cold_load_ms", median(env.loadMs), "ms")
	r.put("trace.extract_overhead", tracedS/untracedS-1, "ratio")
	r.info("traced extract: set-up %.2f s; %d requests in %.2f s untraced, %.2f s traced; open loop %d requests, service p50 %.4f ms",
		setupS, tracedExtract, untracedS, tracedS, len(svc), percentile(svc, 50))
	r.info("Wrapper.Extract (string-path scorer, not the served one) median %.3f us over %d pages that matched a wrapper",
		st.medUS("core.wrapper_extract"), len(st.self["core.wrapper_extract"]))
	env.fl.Close()
}

// signature counts a parsed page's terms the way the model's approach
// does.
func signature(s *corpus.SignatureScratch, tree *tagtree.Node, a core.Approach) map[string]int {
	if a.IsVector() && a.ContentBased() {
		return s.TermCounts(tree)
	}
	return s.TagCounts(tree)
}

// traceSearch serves tracedSearch stream requests untraced, then the same
// requests traced with the index calls re-run on each query.
func traceSearch(r *run, tr *tracer) {
	env := setupSearch(r)
	env.warm(r)
	ctx := context.Background()
	var o outcome

	var cursor atomic.Int64
	t0 := time.Now()
	parallel.ForEach(r.clients, r.clients, func(int) {
		for i := int(cursor.Add(1) - 1); i < tracedSearch; i = int(cursor.Add(1) - 1) {
			env.check(ctx, i, &o, r, nil)
		}
	})
	untracedS := time.Since(t0).Seconds()

	var hits, searches atomic.Int64
	from := tr.mark()
	cursor.Store(0)
	t0 = time.Now()
	parallel.ForEach(r.clients, r.clients, func(int) {
		b := tr.buf()
		var dst []qaindex.Hit
		for i := int(cursor.Add(1) - 1); i < tracedSearch; i = int(cursor.Add(1) - 1) {
			q := &env.stream[i]
			req := tr.req()
			root := b.begin("search.request", 0, req)
			rid := b.id(root)
			env.check(ctx, i, &o, r, &spanAt{b, "fleet.search_handler", rid, req})
			if q.kind == kindSites {
				h := b.begin("qaindex.sites", rid, req)
				env.ix.SitesSupporting(q.q)
				b.end(h)
			} else {
				h := b.begin("qaindex.topk", rid, req)
				dst = env.ix.SearchInto(dst[:0], q.q, searchK, q.site)
				b.end(h)
				for _, hit := range dst {
					h = b.begin("qaindex.snippet", rid, req)
					qaindex.Snippet(hit.Doc, q.q, 160, "«", "»")
					b.end(h)
				}
				hits.Add(int64(len(dst)))
				searches.Add(1)
			}
			b.end(root)
		}
	})
	tracedS := time.Since(t0).Seconds()
	if w := o.wrong.Load(); w > 0 {
		r.fail("%d responses were wrong", w)
	}
	r.res.Attempted += o.attempted.Load()
	r.res.Failed += o.failed.Load()

	st := tr.analyse(from)
	r.put("qaindex.topk_us", st.medUS("qaindex.topk"), "us")
	r.put("qaindex.sites_us", st.medUS("qaindex.sites"), "us")
	r.put("qaindex.snippet_us", st.medUS("qaindex.snippet"), "us")
	r.put("fleet.search_handler_us", st.remainderUS("fleet.search_handler", "qaindex.topk", "qaindex.snippet", "qaindex.sites"), "us")
	r.put("qaindex.hits_per_query", float64(hits.Load())/float64(searches.Load()), "count")
	r.put("qaindex.docs", float64(env.ix.Len()), "count")
	r.put("qaindex.terms", float64(env.ix.Terms()), "count")
	r.put("qaindex.build_s", env.buildS, "s")
	r.put("trace.search_overhead", tracedS/untracedS-1, "ratio")
	r.info("traced search: %d requests in %.2f s untraced, %.2f s traced, over %d docs", tracedSearch, untracedS, tracedS, env.ix.Len())
}
