// Package qaindex is the retrieval layer of the deep-web search engine the
// paper's introduction envisions (Section 1): extracted QA-Objects are
// indexed as fine-grained documents so users can search *inside* deep-web
// answers ("list seller and price information of all digital cameras")
// and can discover which sources answer a topic at all ("list all sites
// supporting BLAST queries"). THOR feeds it: every QA-Object extracted in
// stage three becomes one indexed document.
//
// Sharded (sharded.go / segment.go / topk.go) is the search engine: it
// partitions documents across immutable segments and serves top-k
// queries with max-score/block-max early termination. Index (this file)
// is the exhaustive reference it is checked against: a single in-memory
// index scoring BM25 over every posting of every query term. Sharded is
// bit-identical to it; the qaindex contract tests and the search
// benchmark's cross-check hold it to that, and Index has no other use.
package qaindex

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"thor/internal/stem"
	"thor/internal/tagtree"
)

// Document is one indexed QA-Object.
type Document struct {
	// SiteID and SiteName identify the deep-web source.
	SiteID   int
	SiteName string
	// ProbeQuery is the probe keyword whose answer page carried the
	// object.
	ProbeQuery string
	// PageURL is the dynamic page the object was extracted from.
	PageURL string
	// Text is the object's full text.
	Text string

	length int
}

// Hit is one search result.
type Hit struct {
	Doc   *Document
	Score float64
}

// Searcher is the query surface the HTTP serving layer accepts:
// free-text top-k search, its per-site restriction, and the
// search-by-sites discovery feature. *Sharded implements it (and so does
// the reference *Index).
type Searcher interface {
	Search(query string, k int) []Hit
	SearchSite(query string, k, siteID int) []Hit
	SitesSupporting(query string) []SiteHit
	Len() int
}

// Index is the exhaustive-BM25 test reference of Sharded: an inverted
// index over QA-Object documents, scoring every posting of every query
// term. Its only users are the contract tests and the search benchmark's
// bit-identity cross-check. The zero value is ready to use; it is not
// safe for concurrent mutation, but concurrent searches over a quiescent
// index are safe — per-query state lives in a pooled scratch.
//
// The postings vocabulary is interned: each term gets a dense int32 ID at
// first sight (in deterministic first-token order) and posting lists live
// in an ID-indexed table, so the per-term storage and the query lookup
// carry one map probe per term instead of string-keyed list storage.
type Index struct {
	docs     []*Document
	termIDs  map[string]int32 // term → dense ID, assigned in first-occurrence order
	plists   [][]posting      // posting lists indexed by term ID
	totalLen int
}

type posting struct {
	doc int
	tf  int
}

// BM25 constants (standard Robertson/Spärck Jones defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Add indexes one QA-Object subtree as a document and returns it.
func (ix *Index) Add(siteID int, siteName, probeQuery, pageURL string, obj *tagtree.Node) *Document {
	text := strings.TrimSpace(obj.Text())
	return ix.AddText(siteID, siteName, probeQuery, pageURL, text)
}

// AddText indexes a document from raw text (exposed for non-tree sources).
func (ix *Index) AddText(siteID int, siteName, probeQuery, pageURL, text string) *Document {
	doc := &Document{
		SiteID: siteID, SiteName: siteName,
		ProbeQuery: probeQuery, PageURL: pageURL, Text: text,
	}
	// Track each distinct term's first occurrence so term IDs are assigned
	// in token order, not map-iteration order: two identically-fed indexes
	// get identical internals. The counts map is transient — retaining one
	// per document would dominate the index's memory at millions of
	// objects.
	counts := make(map[string]int)
	var order []string
	for _, tok := range tagtree.Tokenize(text) {
		term := stem.Stem(tok)
		if counts[term] == 0 {
			order = append(order, term)
		}
		counts[term]++
		doc.length++
	}
	id := len(ix.docs)
	ix.docs = append(ix.docs, doc)
	if ix.termIDs == nil {
		ix.termIDs = make(map[string]int32)
	}
	for _, term := range order {
		tid, ok := ix.termIDs[term]
		if !ok {
			tid = int32(len(ix.plists))
			ix.termIDs[term] = tid
			ix.plists = append(ix.plists, nil)
		}
		ix.plists[tid] = append(ix.plists[tid], posting{doc: id, tf: counts[term]})
	}
	ix.totalLen += doc.length
	return doc
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.docs) }

// Terms returns the vocabulary size.
func (ix *Index) Terms() int { return len(ix.termIDs) }

// Search returns the top-k documents for a free-text query under BM25.
// Query terms are stemmed like document terms.
func (ix *Index) Search(query string, k int) []Hit {
	return ix.search(query, k, -1)
}

// SearchSite restricts Search to one source — the per-site view of the
// paper's retrieval engine.
func (ix *Index) SearchSite(query string, k, siteID int) []Hit {
	return ix.search(query, k, siteID)
}

// legacyScratch is the pooled per-query state of the exhaustive scan: the
// document-score accumulator, the pre-sort hit buffer, and a stem cache so
// a warm (repeated) query never re-runs the Porter stemmer. It recycles
// through legacyPool; the hits returned to callers are always copied out,
// never aliased to the scratch.
type legacyScratch struct {
	scores map[int]float64
	hits   []Hit
	stems  stemCache
}

var legacyPool = sync.Pool{New: func() any {
	return &legacyScratch{scores: make(map[int]float64, 256)}
}}

// stemCache memoizes Stem per query token. It is bounded: past
// maxStemCache distinct tokens it resets rather than growing without
// limit under adversarial query streams.
type stemCache map[string]string

const maxStemCache = 4096

func (c *stemCache) stem(tok string) string {
	if s, ok := (*c)[tok]; ok {
		return s
	}
	s := stem.Stem(tok)
	if *c == nil {
		*c = make(stemCache, 64)
	} else if len(*c) >= maxStemCache {
		clear(*c)
	}
	// Clone the key: tok aliases the caller's query string, and a cache
	// entry must not pin request memory alive.
	(*c)[strings.Clone(tok)] = s
	return s
}

// hitWorse is the ranking order shared by every search path: higher score
// first, then lexicographic page URL as the deterministic tie-break.
func hitWorse(a, b Hit) bool {
	//thorlint:allow no-float-eq deterministic sort tie-break on equal scores
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc.PageURL > b.Doc.PageURL
}

// compareHits orders hits best-first for sorting.
func compareHits(a, b Hit) int {
	if hitWorse(a, b) {
		return 1
	}
	if hitWorse(b, a) {
		return -1
	}
	return 0
}

// accumulate runs the exhaustive BM25 term-at-a-time scan for query into
// sc.scores: every posting of every query term, restricted to siteFilter
// when non-negative. Per document, term contributions accumulate in query
// token order — the float addition order the early-terminating kernel
// reproduces exactly.
func (ix *Index) accumulate(sc *legacyScratch, query string, siteFilter int) {
	n := len(ix.docs)
	avgLen := float64(ix.totalLen) / float64(n)
	if avgLen == 0 { //thorlint:allow no-float-eq exact-zero guard against dividing by zero
		avgLen = 1
	}
	tagtree.EachToken(query, func(tok string) {
		term := sc.stems.stem(tok)
		tid, ok := ix.termIDs[term]
		if !ok {
			return
		}
		plist := ix.plists[tid]
		if len(plist) == 0 {
			return
		}
		idf := math.Log(1 + (float64(n)-float64(len(plist))+0.5)/(float64(len(plist))+0.5))
		for _, p := range plist {
			doc := ix.docs[p.doc]
			if siteFilter >= 0 && doc.SiteID != siteFilter {
				continue
			}
			tf := float64(p.tf)
			norm := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*float64(doc.length)/avgLen))
			sc.scores[p.doc] += idf * norm
		}
	})
}

func (ix *Index) search(query string, k, siteFilter int) []Hit {
	if len(ix.docs) == 0 || k <= 0 {
		return nil
	}
	sc := legacyPool.Get().(*legacyScratch)
	defer legacyPool.Put(sc)
	clear(sc.scores)
	sc.hits = sc.hits[:0]
	ix.accumulate(sc, query, siteFilter)
	for id, s := range sc.scores {
		sc.hits = append(sc.hits, Hit{Doc: ix.docs[id], Score: s})
	}
	slices.SortFunc(sc.hits, compareHits)
	if len(sc.hits) > k {
		sc.hits = sc.hits[:k]
	}
	out := make([]Hit, len(sc.hits))
	copy(out, sc.hits)
	return out
}

// SitesSupporting returns, for a topic query, the distinct sources whose
// indexed objects match it, ordered by their best-scoring object — the
// "searching by sites" feature of the envisioned engine.
//
// It aggregates per-site best score and match counts in one pass over the
// score accumulator, without materializing and sorting every matching
// document the way ranking the whole corpus would.
func (ix *Index) SitesSupporting(query string) []SiteHit {
	if len(ix.docs) == 0 {
		return []SiteHit{}
	}
	sc := legacyPool.Get().(*legacyScratch)
	defer legacyPool.Put(sc)
	clear(sc.scores)
	ix.accumulate(sc, query, -1)
	best := make(map[int]*siteAgg)
	for id, s := range sc.scores {
		foldSiteHit(best, ix.docs[id], s)
	}
	return collectSiteHits(best)
}

// siteAgg is the per-site aggregate behind SitesSupporting: the site's
// best hit (under the standard ranking order, so the reported site name
// and score come from its top document) and its match count.
type siteAgg struct {
	best    Hit
	matches int
}

// foldSiteHit folds one scored document into the per-site aggregates.
// Fold order does not matter: the best hit is the maximum under the
// total hit order, so any accumulation sequence converges to the same
// aggregate.
func foldSiteHit(best map[int]*siteAgg, doc *Document, score float64) {
	a, ok := best[doc.SiteID]
	if !ok {
		best[doc.SiteID] = &siteAgg{best: Hit{Doc: doc, Score: score}, matches: 1}
		return
	}
	a.matches++
	if h := (Hit{Doc: doc, Score: score}); hitWorse(a.best, h) {
		a.best = h
	}
}

// collectSiteHits renders the per-site aggregates as the sorted
// search-by-sites result: best score first, site ID as the tie-break.
func collectSiteHits(best map[int]*siteAgg) []SiteHit {
	out := make([]SiteHit, 0, len(best))
	for id, a := range best {
		out = append(out, SiteHit{
			SiteID: id, SiteName: a.best.Doc.SiteName,
			Score: a.best.Score, Matches: a.matches,
		})
	}
	slices.SortFunc(out, func(a, b SiteHit) int {
		//thorlint:allow no-float-eq deterministic sort tie-break on equal scores
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		if a.SiteID != b.SiteID {
			if a.SiteID < b.SiteID {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// SiteHit is one source in a search-by-sites result.
type SiteHit struct {
	SiteID   int
	SiteName string
	Score    float64 // best object score
	Matches  int     // matching objects at the source
}

// String summarizes the index.
func (ix *Index) String() string {
	return fmt.Sprintf("qaindex{%d objects, %d terms}", ix.Len(), ix.Terms())
}
