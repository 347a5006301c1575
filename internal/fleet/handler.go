package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MaxExtractBody bounds how much HTML one /extract request may post.
const MaxExtractBody = 4 << 20

// maxRetainedBody bounds the body capacity a pooled request scratch may
// keep between requests. A warm buffer holds one served page, tens of
// kilobytes; one that grew past the bound, for a page near the 4 MiB
// MaxExtractBody cap, goes back to the garbage collector instead of the
// pool, so a few large requests cannot pin megabytes per pooled slot.
const maxRetainedBody = 1 << 20

// SiteHeader is the header that routes a bare /extract request to a
// named site when the path form is inconvenient for the client.
const SiteHeader = "X-Thor-Site"

// extractResponse is the JSON body of a successful extraction.
type extractResponse struct {
	// Pagelets lists the extracted QA-Pagelets; empty when the model's
	// verdict is that the page holds none (no-match and error pages).
	Pagelets []extractedPagelet `json:"pagelets"`
}

// extractedPagelet names one extracted QA-Pagelet by its tag-tree path.
type extractedPagelet struct {
	Path string `json:"path"`
}

// extractScratch is one /extract request's reusable body buffer and the
// limited reader it is filled through. Warm, reading a page into it
// allocates nothing.
type extractScratch struct {
	body bytes.Buffer
	lim  io.LimitedReader
}

var extractScratches = sync.Pool{New: func() any { return new(extractScratch) }}

// readBody reads r's body into s.body, at most MaxExtractBody+1 bytes,
// so that a longer body shows as one byte too many.
func (s *extractScratch) readBody(r *http.Request) error {
	s.body.Reset()
	s.lim = io.LimitedReader{R: r.Body, N: MaxExtractBody + 1}
	_, err := s.body.ReadFrom(&s.lim)
	return err
}

// putExtractScratch returns s to the pool unless its body buffer grew
// past maxRetainedBody. It drops the request's body reader first, so a
// pooled scratch does not keep the request alive.
func putExtractScratch(s *extractScratch) {
	if s.body.Cap() > maxRetainedBody {
		return
	}
	s.lim.R = nil
	extractScratches.Put(s)
}

// Handler returns the fleet's serving surface, to be mounted at both
// /extract (exact) and /extract/ (prefix):
//
//	POST /extract            → the pinned default model (SetDefault),
//	                           or the site named by X-Thor-Site
//	POST /extract/{site}     → site's model, lazily loaded from the
//	                           model directory
//
// Responses are exactly the legacy single-model handler's — a
// one-entry fleet is bit-identical to the pre-fleet surface — plus the
// fleet-level refusals: 404 for a site with no model file, 503 for a
// site whose file will not load (cached briefly) and after Close, and
// 429 with Retry-After once the admission queue is full. Every
// admitted request reads its body into a pooled request scratch and
// flows through the pooled zero-allocation Model.ApplyHTMLBytes
// pipeline.
func (f *Fleet) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST a page's HTML to /extract", http.StatusMethodNotAllowed)
			return
		}
		site, ok := siteFromRequest(r)
		if !ok {
			http.NotFound(w, r)
			return
		}
		if err := f.gate.enter(r.Context()); err != nil {
			f.refuse(w, err)
			return
		}
		defer f.gate.leave()
		m, e, err := f.getEntry(r.Context(), site)
		if err != nil {
			f.refuse(w, err)
			return
		}
		s := extractScratches.Get().(*extractScratch) //thorlint:allow pool-hygiene putExtractScratch puts it back unless it outgrew the retention bound
		// The scratch goes back only after f.observe, which copies the
		// body bytes it keeps.
		defer putExtractScratch(s)
		if err := s.readBody(r); err != nil {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		body := s.body.Bytes()
		if len(body) > MaxExtractBody {
			http.Error(w, fmt.Sprintf("page exceeds %d bytes", MaxExtractBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		if len(body) == 0 {
			http.Error(w, "empty request body; POST the page's HTML", http.StatusBadRequest)
			return
		}
		// The pooled apply pipeline over the request bytes themselves:
		// parse, signature, interning, and candidate scoring all run on
		// recycled scratch; the body buffer is never copied into a string.
		// The stats variant is the same pipeline reporting the assignment
		// distance the drift observer consumes — responses are
		// byte-identical whether drift detection is on or off.
		path, found, stats, err := m.ApplyHTMLBytesStats(r.Context(), body)
		if err != nil {
			// A canceled or timed-out request is the client's doing, not
			// a model failure; answer 503 so retries are meaningful.
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
			f.logf("fleet: encoding /extract response: %v", err)
		}
		e.requests.Add(1)
		// Lifecycle observation runs after the response bytes are
		// written: a window that closes drifted rebuilds the model right
		// here on the request goroutine, so the serving path stays
		// goroutine-free and a load generator awaiting its responses has
		// also awaited any rebuild they triggered. With drift detection
		// off (or a pre-baseline model) the observer is nil and this is
		// a no-op.
		f.observe(e, stats, body)
	})
}

// siteFromRequest resolves which site a request addresses: the path
// segment after /extract/ when present (one segment only), else the
// X-Thor-Site header, else the pinned default. ok is false for paths
// that name no routable site (nested segments, trailing garbage).
func siteFromRequest(r *http.Request) (site string, ok bool) {
	rest := strings.TrimPrefix(r.URL.Path, "/extract")
	rest = strings.TrimPrefix(rest, "/")
	if rest != "" {
		if strings.Contains(rest, "/") {
			return "", false
		}
		return rest, true
	}
	if h := r.Header.Get(SiteHeader); h != "" {
		return h, true
	}
	return DefaultSite, true
}

// refuse maps a registry or admission error onto its status code and
// writes the refusal.
func (f *Fleet) refuse(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		f.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(f.cfg.RetryAfter)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrUnknownSite):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		// Load failures, a closed fleet, and client-abandoned requests
		// all answer 503: the request was fine, the serving side (or the
		// client's patience) was not — retrying is meaningful.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}

// retryAfterSeconds renders the Retry-After hint, at least 1 second —
// the header has whole-second granularity and 0 would invite an
// immediate retry storm.
func retryAfterSeconds(d time.Duration) int {
	s := int(d.Round(time.Second) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
