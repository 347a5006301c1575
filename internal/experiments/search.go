package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"thor/internal/parallel"
	"thor/internal/probe"
	"thor/internal/qaindex"
)

// searchDefaultDocs is the benchmark's corpus size when o.SynthCap does
// not cap it — the ≥1M-object scale the paper's 5.5M-page scalability
// runs motivate.
const searchDefaultDocs = 1_000_000

// searchQueryCount is the distinct-query pool size; the timed stream
// replays it o.Reps times.
const searchQueryCount = 200

// searchTopK is the result depth every timed query requests.
const searchTopK = 10

// searchShards is the segment count of the sharded engine under test.
const searchShards = 8

// SearchResult is the machine-readable outcome of SearchBenchmark: a
// query stream over a synthetic QA-object corpus served by the sharded
// block-max engine, with every distinct query cross-checked bit-identical
// against the exhaustive BM25 reference. The embedded table is the
// human-readable rendering.
type SearchResult struct {
	*TableResult

	// Docs is the indexed QA-object count; Shards the segment count.
	Docs   int
	Shards int
	// Queries is the distinct-query pool; Requests the timed stream
	// length (Queries × Reps).
	Queries  int
	Requests int
	// ShardedBuildSeconds is the index construction wall (segments built
	// with o.Workers builders).
	ShardedBuildSeconds float64
	// Serving measurements at o.Workers concurrent clients.
	ShardedQPS                         float64
	ShardedP50Millis, ShardedP99Millis float64
	// Mismatches counts queries whose sharded top-k differed from the
	// exhaustive scan in any hit URL or score bit — the contract says 0.
	Mismatches int
	// Digest fingerprints the sharded engine's results over the distinct
	// query pool (URLs + score bits); identical for every worker count.
	Digest string
}

// synthSearchDocs generates n synthetic QA-object documents over the
// probe dictionary with Zipf-distributed word choice — head terms carry
// long posting lists, the regime early termination exists for. Docs are
// generated in fixed chunks with per-chunk derived seeds, so the corpus
// is bit-identical for every worker count.
func synthSearchDocs(n, sites int, seed int64, workers int) []qaindex.Doc {
	words := probe.Dictionary()
	const chunk = 10_000
	nChunks := (n + chunk - 1) / chunk
	chunks := parallel.Map(nChunks, workers, func(ci int) []qaindex.Doc {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, int64(ci))))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(words)-1))
		lo := ci * chunk
		hi := min(lo+chunk, n)
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
			siteID := rng.Intn(sites)
			out = append(out, qaindex.Doc{
				SiteID:     siteID,
				SiteName:   fmt.Sprintf("site%d", siteID),
				ProbeQuery: words[zipf.Uint64()],
				PageURL:    fmt.Sprintf("http://s%d/obj/%d", siteID, i),
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

// synthSearchQueries draws the distinct-query pool from the same Zipf
// vocabulary: 1–3 terms each, head-heavy like real traffic, plus a few
// guaranteed-tail and absent-term queries.
func synthSearchQueries(seed int64) []string {
	words := probe.Dictionary()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(words)-1))
	queries := make([]string, 0, searchQueryCount)
	for len(queries) < searchQueryCount {
		var b strings.Builder
		for w, wn := 0, 1+rng.Intn(3); w < wn; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[zipf.Uint64()])
		}
		if len(queries)%20 == 19 {
			// Every 20th query drags in a uniform-random (often tail) term.
			b.WriteByte(' ')
			b.WriteString(words[rng.Intn(len(words))])
		}
		queries = append(queries, b.String())
	}
	return queries
}

// timedSearchPass replays the query stream against ix at `workers`
// concurrent clients and reports wall seconds, queries/sec, and latency
// percentiles.
func timedSearchPass(ix qaindex.Searcher, stream []string, workers int) (secs, qps, p50ms, p99ms float64) {
	lat := make([]float64, len(stream))
	start := time.Now()
	parallel.ForEach(len(stream), workers, func(i int) {
		t0 := time.Now()
		ix.Search(stream[i], searchTopK)
		lat[i] = time.Since(t0).Seconds()
	})
	secs = time.Since(start).Seconds()
	qps = float64(len(stream)) / secs
	sort.Float64s(lat)
	return secs, qps, 1000 * percentile(lat, 50), 1000 * percentile(lat, 99)
}

// SearchBenchmark measures QA-object retrieval at scale: a synthetic
// Zipf corpus (1M objects unless o.SynthCap caps it) indexed by the
// sharded block-max engine, every distinct query cross-checked
// bit-identical against the exhaustive BM25 reference (qaindex.Index,
// built untimed for the purpose), then the query stream timed at
// o.Workers concurrent clients.
//
// Timings are load-dependent; the corpus, the query pool, the
// cross-check verdict, and the result digest are deterministic and
// worker-count-independent.
func SearchBenchmark(o Options) *SearchResult {
	docs := searchDefaultDocs
	if o.SynthCap > 0 && docs > o.SynthCap {
		docs = o.SynthCap
	}
	sites := max(o.Sites, 1)
	reps := max(o.Reps, 1)

	out := &SearchResult{Docs: docs, Shards: searchShards, Queries: searchQueryCount}
	corpus := synthSearchDocs(docs, sites, o.Seed+4000, o.Workers)

	start := time.Now()
	sharded := qaindex.BuildSharded(corpus, searchShards, o.Workers)
	out.ShardedBuildSeconds = time.Since(start).Seconds()

	reference := &qaindex.Index{}
	for _, d := range corpus {
		reference.AddText(d.SiteID, d.SiteName, d.ProbeQuery, d.PageURL, d.Text)
	}

	// Cross-check every distinct query: the sharded top-k must be
	// bit-identical to the exhaustive scan. The digest fingerprints the
	// sharded results for the worker-count-independence contract.
	queries := synthSearchQueries(o.Seed + 5000)
	h := sha256.New()
	var scoreBits [8]byte
	for _, q := range queries {
		want := reference.Search(q, searchTopK)
		got := sharded.Search(q, searchTopK)
		ok := len(want) == len(got)
		for i := 0; ok && i < len(want); i++ {
			ok = want[i].Doc.PageURL == got[i].Doc.PageURL &&
				math.Float64bits(want[i].Score) == math.Float64bits(got[i].Score)
		}
		if !ok {
			out.Mismatches++
		}
		for _, g := range got {
			//thorlint:allow no-unchecked-error hash.Hash writes never fail
			h.Write([]byte(g.Doc.PageURL))
			binary.LittleEndian.PutUint64(scoreBits[:], math.Float64bits(g.Score))
			//thorlint:allow no-unchecked-error hash.Hash writes never fail
			h.Write(scoreBits[:])
		}
	}
	out.Digest = hex.EncodeToString(h.Sum(nil))

	stream := make([]string, searchQueryCount*reps)
	for i := range stream {
		stream[i] = queries[i%len(queries)]
	}
	out.Requests = len(stream)

	// Warm the engine's pools, then time the stream.
	sharded.Search(queries[0], searchTopK)
	var shardedSecs float64
	shardedSecs, out.ShardedQPS, out.ShardedP50Millis, out.ShardedP99Millis =
		timedSearchPass(sharded, stream, o.Workers)

	res := &TableResult{
		Title: fmt.Sprintf("QA-object search: %d objects, %d queries ×%d reps, top-%d, %d shards",
			out.Docs, out.Queries, reps, searchTopK, out.Shards),
		Header: []string{"seconds", "qps", "p50-ms", "p99-ms"},
	}
	res.Rows = append(res.Rows,
		Row{Label: "sharded", Values: []float64{shardedSecs, out.ShardedQPS, out.ShardedP50Millis, out.ShardedP99Millis}},
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("build: %.1fs at %d workers", out.ShardedBuildSeconds, parallel.Workers(o.Workers)),
		fmt.Sprintf("cross-check: %d/%d queries bit-identical to exhaustive BM25 (contract: all), digest %.12s…",
			out.Queries-out.Mismatches, out.Queries, out.Digest),
	)
	out.TableResult = res
	return out
}
