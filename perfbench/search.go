package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"thor/internal/fleet"
	"thor/internal/parallel"
	"thor/internal/probe"
	"thor/internal/qaindex"
)

// The search path, which the traced suite covers: 1M synthetic
// QA-objects over 12 sites in 8 shards, queried through GET /search and
// GET /sites. The index is far larger than the CPU caches; head terms
// have long posting lists that the WAND top-k skips over, /sites folds
// every posting with no pruning, and site-filtered queries prune
// differently: one posting layer used three ways. It is not a timed
// workload of its own: its runs took twice as long as the others', and
// its timings moved with the host beyond their bounds (STEADINESS.md).
const (
	searchDocs   = 1_000_000
	searchSites  = 12
	searchShards = 8
	searchK      = 10
	// searchZipf is the term skew of both documents and queries, as
	// experiments.SearchBenchmark draws them.
	searchZipf = 1.2
	// searchWarm is how many stream requests are served (and their
	// responses recorded) before the traced passes; their results form
	// the digest.
	searchWarm = 200
)

// query kinds of the mixed stream: 70% /search, 20% /search?site=, 10%
// /sites.
const (
	kindSearch = iota
	kindFiltered
	kindSites
)

// searchReq is one request of the stream.
type searchReq struct {
	kind int
	q    string
	site int
	url  string
}

// searchEnv is the served index and its request stream.
type searchEnv struct {
	ix     *qaindex.Sharded
	fl     *fleet.Fleet
	search http.Handler
	sites  http.Handler
	stream []searchReq
	want   [][]byte // recorded responses of the first searchWarm requests
	buildS float64  // BuildSharded's share of set-up
}

// synthDocs generates n QA-object documents with Zipf word choice, in
// fixed chunks with derived seeds so the corpus is the same at any worker
// count.
func synthDocs(n int, seed int64, workers int) []qaindex.Doc {
	words := probe.Dictionary()
	const chunk = 10_000
	chunks := parallel.Map((n+chunk-1)/chunk, workers, func(ci int) []qaindex.Doc {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, int64(ci))))
		zipf := rand.NewZipf(rng, searchZipf, 1, uint64(len(words)-1))
		lo, hi := ci*chunk, min((ci+1)*chunk, n)
		out := make([]qaindex.Doc, 0, hi-lo)
		var b strings.Builder
		for i := lo; i < hi; i++ {
			b.Reset()
			for w, wn := 0, 4+rng.Intn(12); w < wn; w++ {
				if w > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[zipf.Uint64()])
			}
			site := rng.Intn(searchSites)
			out = append(out, qaindex.Doc{
				SiteID:     site,
				SiteName:   siteKey(site),
				ProbeQuery: words[zipf.Uint64()],
				PageURL:    "http://s" + strconv.Itoa(site) + "/obj/" + strconv.Itoa(i),
				Text:       b.String(),
			})
		}
		return out
	})
	docs := make([]qaindex.Doc, 0, n)
	for _, c := range chunks {
		docs = append(docs, c...)
	}
	return docs
}

// searchStream draws the mixed request stream: 1–3 Zipf terms per query.
func searchStream(seed int64) []searchReq {
	words := probe.Dictionary()
	rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, 7)))
	zipf := rand.NewZipf(rng, searchZipf, 1, uint64(len(words)-1))
	stream := make([]searchReq, streamLen)
	for i := range stream {
		terms := 1 + rng.Intn(3)
		qs := make([]string, terms)
		for t := range qs {
			qs[t] = words[zipf.Uint64()]
		}
		q := strings.Join(qs, " ")
		req := searchReq{q: q, site: -1}
		switch x := rng.Float64(); {
		case x < 0.7:
			req.kind, req.url = kindSearch, "/search?k="+strconv.Itoa(searchK)+"&q="+url.QueryEscape(q)
		case x < 0.9:
			req.kind, req.site = kindFiltered, rng.Intn(searchSites)
			req.url = "/search?k=" + strconv.Itoa(searchK) + "&site=" + strconv.Itoa(req.site) + "&q=" + url.QueryEscape(q)
		default:
			req.kind, req.url = kindSites, "/sites?q="+url.QueryEscape(q)
		}
		stream[i] = req
	}
	return stream
}

// setupSearch generates the corpus and builds the sharded index.
func setupSearch(r *run) *searchEnv {
	docs := synthDocs(searchDocs, parallel.DeriveSeed(r.seed, 6), r.clients)
	t0 := time.Now()
	ix := qaindex.BuildSharded(docs, searchShards, r.clients)
	env := &searchEnv{ix: ix, buildS: time.Since(t0).Seconds(), fl: fleet.New(fleet.Config{})}
	env.search, env.sites = env.fl.SearchHandler(ix), env.fl.SitesHandler(ix)
	env.stream = searchStream(r.seed)
	return env
}

// serve sends one request through its handler in-process. With a span
// site, the handler call alone is recorded as a span.
func (env *searchEnv) serve(ctx context.Context, q *searchReq, at *spanAt) *httptest.ResponseRecorder {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, q.url, nil)
	if err != nil {
		panic(err) // the URL is built with QueryEscape; it always parses
	}
	rec := httptest.NewRecorder()
	h := env.search
	if q.kind == kindSites {
		h = env.sites
	}
	s := at.begin()
	h.ServeHTTP(rec, req)
	at.end(s)
	return rec
}

// validate checks one 200 response's shape: at most k hits with
// non-increasing scores, every hit from the filtered site; /sites rows
// ranked by non-increasing score.
func validate(q *searchReq, body []byte) error {
	if q.kind == kindSites {
		var resp struct {
			Query string `json:"query"`
			Sites []struct {
				Score   float64 `json:"score"`
				Matches int     `json:"matches"`
			} `json:"sites"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Query != q.q || resp.Sites == nil {
			return fmt.Errorf("malformed /sites response for %q", q.q)
		}
		for i, s := range resp.Sites {
			if s.Matches < 1 || (i > 0 && s.Score > resp.Sites[i-1].Score) {
				return fmt.Errorf("/sites rows for %q out of order or empty", q.q)
			}
		}
		return nil
	}
	var resp struct {
		Query string `json:"query"`
		K     int    `json:"k"`
		Hits  []struct {
			SiteID int     `json:"site_id"`
			Score  float64 `json:"score"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Query != q.q || resp.K != searchK || resp.Hits == nil {
		return fmt.Errorf("malformed /search response for %q", q.q)
	}
	if len(resp.Hits) > searchK {
		return fmt.Errorf("/search %q returned %d hits for k=%d", q.q, len(resp.Hits), searchK)
	}
	for i, h := range resp.Hits {
		if i > 0 && h.Score > resp.Hits[i-1].Score {
			return fmt.Errorf("/search %q scores increase at rank %d", q.q, i)
		}
		if q.site >= 0 && h.SiteID != q.site {
			return fmt.Errorf("/search %q site=%d returned a hit of site %d", q.q, q.site, h.SiteID)
		}
	}
	return nil
}

// warm serves the first searchWarm requests, validating and recording
// each response, and returns the digest over them.
func (env *searchEnv) warm(r *run) string {
	env.want = make([][]byte, searchWarm)
	ctx := context.Background()
	parallel.ForEach(searchWarm, r.clients, func(i int) {
		rec := env.serve(ctx, &env.stream[i], nil)
		if rec.Code != http.StatusOK {
			r.fail("warm-up %s answered %d", env.stream[i].url, rec.Code)
			return
		}
		if err := validate(&env.stream[i], rec.Body.Bytes()); err != nil {
			r.fail("%v", err)
		}
		env.want[i] = append([]byte(nil), rec.Body.Bytes()...)
	})
	d := newDigest()
	for _, w := range env.want {
		d.add(string(w))
	}
	return d.sum()
}

// check serves stream request i and classifies the answer: a non-200
// fails the request, a 200 that is malformed or differs from its recorded
// response is wrong.
func (env *searchEnv) check(ctx context.Context, i int, o *outcome, r *run, at *spanAt) {
	q := &env.stream[i]
	rec := env.serve(ctx, q, at)
	o.attempted.Add(1)
	if rec.Code != http.StatusOK {
		o.failed.Add(1)
		return
	}
	if i < searchWarm {
		if !bytes.Equal(rec.Body.Bytes(), env.want[i]) {
			o.wrong.Add(1)
		}
	} else if err := validate(q, rec.Body.Bytes()); err != nil {
		o.wrong.Add(1)
		r.fail("%v", err)
	}
}
