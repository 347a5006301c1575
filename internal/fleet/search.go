package fleet

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"thor/internal/qaindex"
)

// The fleet's retrieval surface: GET /search and GET /sites over a
// qaindex.Searcher (the sharded segment index; the interface lets tests
// substitute a fake). Both routes pass through the same
// admission gate as /extract, so search traffic and extraction traffic
// share one overload budget and one 429 behavior.

// DefaultSearchK is the result count served when the k parameter is
// absent; MaxSearchK is the cap a client can request.
const (
	DefaultSearchK = 10
	MaxSearchK     = 100
)

// snippetLen bounds the per-hit excerpt in /search responses.
const snippetLen = 160

// searchHit is one /search result row.
type searchHit struct {
	SiteID     int     `json:"site_id"`
	Site       string  `json:"site"`
	ProbeQuery string  `json:"probe_query"`
	URL        string  `json:"url"`
	Score      float64 `json:"score"`
	Snippet    string  `json:"snippet"`
}

// searchResponse is the JSON body of GET /search.
type searchResponse struct {
	Query   string      `json:"query"`
	K       int         `json:"k"`
	Indexed int         `json:"indexed"`
	Hits    []searchHit `json:"hits"`
}

// siteResult is one /sites result row.
type siteResult struct {
	SiteID  int     `json:"site_id"`
	Site    string  `json:"site"`
	Score   float64 `json:"score"`
	Matches int     `json:"matches"`
}

// sitesResponse is the JSON body of GET /sites.
type sitesResponse struct {
	Query string       `json:"query"`
	Sites []siteResult `json:"sites"`
}

// searchQuery validates the common query parameters of both retrieval
// routes. A written==true return means the handler already answered
// (method or parameter refusal).
func (f *Fleet) searchQuery(w http.ResponseWriter, r *http.Request, usage string) (q string, written bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, usage, http.StatusMethodNotAllowed)
		return "", true
	}
	q = r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		http.Error(w, "missing query parameter q", http.StatusBadRequest)
		return "", true
	}
	return q, false
}

// SearchHandler serves GET /search?q=...&k=...&site=... over ix: top-k
// BM25 retrieval of indexed QA-Objects, optionally restricted to one
// site ID, each hit carrying a query-highlighted snippet. k defaults to
// DefaultSearchK and is clamped to MaxSearchK. Requests pass the
// admission gate; overload answers 429 + Retry-After like /extract.
func (f *Fleet) SearchHandler(ix qaindex.Searcher) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, written := f.searchQuery(w, r, "GET /search?q=...&k=...&site=... to query the QA-object index")
		if written {
			return
		}
		k := DefaultSearchK
		if ks := r.URL.Query().Get("k"); ks != "" {
			n, err := strconv.Atoi(ks)
			if err != nil || n < 1 {
				http.Error(w, "parameter k must be a positive integer", http.StatusBadRequest)
				return
			}
			k = min(n, MaxSearchK)
		}
		site := -1
		if ss := r.URL.Query().Get("site"); ss != "" {
			n, err := strconv.Atoi(ss)
			if err != nil || n < 0 {
				http.Error(w, "parameter site must be a non-negative site ID", http.StatusBadRequest)
				return
			}
			site = n
		}
		if err := f.gate.enter(r.Context()); err != nil {
			f.refuse(w, err)
			return
		}
		defer f.gate.leave()
		var hits []qaindex.Hit
		if site >= 0 {
			hits = ix.SearchSite(q, k, site)
		} else {
			hits = ix.Search(q, k)
		}
		resp := searchResponse{Query: q, K: k, Indexed: ix.Len(), Hits: make([]searchHit, 0, len(hits))}
		for _, h := range hits {
			resp.Hits = append(resp.Hits, searchHit{
				SiteID:     h.Doc.SiteID,
				Site:       h.Doc.SiteName,
				ProbeQuery: h.Doc.ProbeQuery,
				URL:        h.Doc.PageURL,
				Score:      h.Score,
				Snippet:    qaindex.Snippet(h.Doc, q, snippetLen, "«", "»"),
			})
		}
		f.searches.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(&resp); err != nil {
			f.logf("fleet: encoding /search response: %v", err)
		}
	})
}

// SitesHandler serves GET /sites?q=... over ix — the paper's
// "searching by sites" discovery feature: which deep-web sources hold
// objects matching the topic, ranked by their best match.
func (f *Fleet) SitesHandler(ix qaindex.Searcher) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, written := f.searchQuery(w, r, "GET /sites?q=... to discover sources supporting a topic")
		if written {
			return
		}
		if err := f.gate.enter(r.Context()); err != nil {
			f.refuse(w, err)
			return
		}
		defer f.gate.leave()
		resp := sitesResponse{Query: q, Sites: []siteResult{}}
		for _, s := range ix.SitesSupporting(q) {
			resp.Sites = append(resp.Sites, siteResult{
				SiteID: s.SiteID, Site: s.SiteName,
				Score: s.Score, Matches: s.Matches,
			})
		}
		f.searches.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(&resp); err != nil {
			f.logf("fleet: encoding /sites response: %v", err)
		}
	})
}
