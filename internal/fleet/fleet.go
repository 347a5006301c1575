// Package fleet turns the single-model serving surface into a
// multi-tenant model fleet: an LRU-bounded registry of per-site
// core.Models lazily loaded from a model directory, hot-swapped in place
// when the file underneath changes, routed by site name, and protected
// by a bounded admission queue so one slow or cold site cannot stall the
// others.
//
// The four layers, bottom to top:
//
//   - registry (this file): Get resolves a site name to a loaded
//     *core.Model. Cold sites load once — concurrent requests for the
//     same cold site coalesce onto a single load (singleflight) — and
//     loaded entries are kept in an LRU bounded by Config.MaxModels.
//     Load failures are cached briefly (negative cache) so a
//     misconfigured site answers fast instead of hammering the disk.
//   - hot-swap (entry.go): each entry holds its model behind an atomic
//     pointer plus the loaded file's size/mtime fingerprint. At most
//     every Config.SwapEvery, one request re-stats the file; when the
//     fingerprint changed, that request reloads and swaps the pointer.
//     Requests already holding the old model finish on it — a model is
//     immutable and garbage-collected only after its last request
//     returns, so a swap (or an eviction) never tears an in-flight
//     extraction.
//   - routing (handler.go): POST /extract/{site} (or /extract with an
//     X-Thor-Site header) resolves the registry entry; bare /extract
//     serves the pinned default model, so the legacy single-model
//     surface is a one-entry fleet.
//   - admission (gate.go): a bounded per-fleet queue sheds load with
//     429 + Retry-After once MaxConcurrent requests are being served and
//     MaxQueue more are waiting.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/core"
	"thor/internal/lifecycle"
)

// Sentinel errors Get answers with; the HTTP layer maps them onto
// status codes (unknown site → 404, overload → 429, everything else
// that is not the client's fault → 503).
var (
	// ErrUnknownSite means no model file exists for the requested site
	// (or the site name is not a valid model key).
	ErrUnknownSite = errors.New("fleet: unknown site")
	// ErrOverloaded means the admission queue is full; retry later.
	ErrOverloaded = errors.New("fleet: overloaded")
	// ErrClosed means the fleet has been shut down.
	ErrClosed = errors.New("fleet: closed")
)

// LoadError wraps a model-file load failure for a known site: the file
// exists (or existed) but could not be decoded. It is negative-cached
// like ErrUnknownSite and mapped to 503, not 404 — the site is real,
// its snapshot is bad.
type LoadError struct {
	Site string
	Err  error
}

func (e *LoadError) Error() string { return fmt.Sprintf("fleet: loading site %q: %v", e.Site, e.Err) }
func (e *LoadError) Unwrap() error { return e.Err }

// Config sizes a Fleet. The zero value serves: every limit has a
// serving-ready default, and an empty Dir simply means no lazy loading
// (only Register/SetDefault entries resolve).
type Config struct {
	// Dir is the model directory. Site <name> loads lazily from
	// <Dir>/<name>.thor.model.gz.
	Dir string
	// MaxModels bounds how many loaded models the registry retains;
	// beyond it the least-recently-served unpinned entry is evicted.
	// Default 64.
	MaxModels int
	// MaxConcurrent bounds how many requests are admitted at once
	// (default 4 × GOMAXPROCS); MaxQueue bounds how many more may wait
	// for a slot (0 selects the 4 × MaxConcurrent default, negative
	// means no waiting room at all). A request arriving beyond
	// slots+queue is refused with ErrOverloaded.
	MaxConcurrent int
	MaxQueue      int
	// RetryAfter is the hint sent with 429 responses. Default 1s.
	RetryAfter time.Duration
	// NegTTL is how long a load failure (unknown site or corrupt file)
	// is cached before the next request retries the load. Default 5s.
	NegTTL time.Duration
	// SwapEvery is the minimum interval between staleness re-checks of
	// a loaded entry's file; 0 selects the 2s default, negative disables
	// hot-swap entirely.
	SwapEvery time.Duration
	// Clock substitutes the time source (tests); nil means time.Now.
	Clock func() time.Time
	// Logf, when non-nil, receives operational one-liners: loads,
	// swaps, evictions, and swap failures. The fleet never writes to
	// any stream itself.
	Logf func(format string, args ...any)
	// Drift, when non-nil, enables lifecycle drift detection: every
	// served entry whose model carries a training baseline gets an
	// observer watching its assignment distances, and a window that
	// closes drifted triggers an in-process rebuild — mini-batch
	// refinement for mild drift, full retrain from the drifted pages for
	// severe — hot-swapped in through the entry's atomic pointer. Sites
	// whose models carry no baseline serve exactly as before. Nil
	// (the default) disables all of it: the serving path is bit-identical
	// to the drift-free fleet.
	Drift *lifecycle.Config
}

// withDefaults resolves the zero values documented on Config.
func (c Config) withDefaults() Config {
	if c.MaxModels <= 0 {
		c.MaxModels = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.NegTTL <= 0 {
		c.NegTTL = 5 * time.Second
	}
	if c.SwapEvery == 0 {
		c.SwapEvery = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Fleet is the multi-tenant serving registry. Create with New, resolve
// models with Get (or serve over HTTP via Handler), and Close on
// shutdown. All methods are safe for concurrent use.
type Fleet struct {
	cfg  Config
	gate *gate
	// shed counts admission refusals (429s) for Stats; atomic because it
	// ticks on the refusal path, outside the registry lock.
	shed atomic.Int64
	// searches counts served /search and /sites queries; atomic because
	// the retrieval path never takes the registry lock.
	searches atomic.Int64

	mu      sync.Mutex
	entries map[string]*entry
	// lru orders unpinned loaded entries most- to least-recently served
	// (an intrusive doubly-linked list through the entries; head/tail
	// are sentinels so insertion and unlinking are branch-free).
	head, tail *entry
	closed     bool
}

// New builds a fleet over cfg. No models are loaded up front: the first
// request for each site pays its load (deduplicated across concurrent
// requesters), and Register/SetDefault pin models that never load or
// evict.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:     cfg,
		gate:    newGate(cfg.MaxConcurrent, cfg.MaxQueue),
		entries: make(map[string]*entry),
		head:    &entry{},
		tail:    &entry{},
	}
	f.head.next = f.tail
	f.tail.prev = f.head
	return f
}

// logf forwards to the configured logger, if any.
func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// DefaultSite is the registry key the bare /extract route resolves —
// the degenerate one-entry fleet the legacy single-model surface maps
// onto. It contains a path separator so no directory-loaded site can
// collide with it.
const DefaultSite = "/default"

// validSiteName reports whether name can key a directory-loaded model:
// non-empty, path-separator-free, and not a dotfile or traversal step,
// so a crafted request can never escape Config.Dir.
func validSiteName(name string) bool {
	if name == "" || strings.HasPrefix(name, ".") {
		return false
	}
	return !strings.ContainsAny(name, "/\\")
}

// modelPath resolves the file a site loads from: <site>.thor.model.gz
// under Dir. When it does not exist it returns that path and
// fs.ErrNotExist.
func (f *Fleet) modelPath(site string) (string, error) {
	if f.cfg.Dir == "" {
		return "", fs.ErrNotExist
	}
	p := filepath.Join(f.cfg.Dir, site+".thor.model.gz")
	if _, err := os.Stat(p); err != nil {
		return p, fs.ErrNotExist
	}
	return p, nil
}

// Register pins a pre-loaded model under site: it resolves like a
// loaded entry but never counts against MaxModels, never evicts, and
// never re-checks any file. Registering over an existing site replaces
// it atomically for subsequent Gets.
func (f *Fleet) Register(site string, m *core.Model) {
	e := &entry{site: site, pinned: true, ready: closedReady}
	e.model.Store(m)
	e.obs.Store(f.newObserver(m))
	f.mu.Lock()
	defer f.mu.Unlock()
	if old := f.entries[site]; old != nil && !old.pinned {
		f.unlink(old)
	}
	f.entries[site] = e
}

// SetDefault pins m as the model the bare /extract route serves.
func (f *Fleet) SetDefault(m *core.Model) { f.Register(DefaultSite, m) }

// closedReady is the already-closed ready channel every pinned (and
// every completed) entry shares.
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Len reports how many entries the registry currently holds (loaded,
// loading, negative-cached, and pinned alike).
func (f *Fleet) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// Close shuts the registry: subsequent Gets fail with ErrClosed and
// every entry is dropped. Models held by in-flight requests remain
// valid — eviction only unhooks the registry's reference; the garbage
// collector reclaims a model after its last request returns. Call after
// the HTTP server has drained so no new requests race the close.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	f.entries = make(map[string]*entry)
	f.head.next = f.tail
	f.tail.prev = f.head
}

// Get resolves site to its served model, loading it on first use. The
// returned model is immutable and remains valid for the full request
// even if the entry is swapped or evicted concurrently. ctx bounds the
// wait on a load already in flight on another goroutine.
func (f *Fleet) Get(ctx context.Context, site string) (*core.Model, error) {
	m, _, err := f.getEntry(ctx, site)
	return m, err
}

// getEntry is Get returning the registry entry alongside the model, so
// the serving handler can feed the entry's lifecycle observer after the
// extraction. The model is loaded from the entry's atomic pointer
// exactly once — the (model, entry) pair stays coherent even under a
// concurrent swap.
func (f *Fleet) getEntry(ctx context.Context, site string) (*core.Model, *entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for {
		e, load, err := f.acquire(site)
		if err != nil {
			return nil, nil, err
		}
		if load {
			f.load(e)
		} else {
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		retry, err := f.resolve(e)
		if err != nil {
			return nil, nil, err
		}
		if retry {
			// The entry's negative cache expired and this request won
			// the right to retry: loop with the stale entry removed.
			continue
		}
		f.maybeSwap(e)
		return e.model.Load(), e, nil
	}
}

// newObserver builds the lifecycle observer for a freshly published
// model: nil when drift detection is off or the model carries no
// training baseline (one assembled by hand) — and a nil observer is
// inert, so the serving path needs no branches either way.
func (f *Fleet) newObserver(m *core.Model) *lifecycle.Observer {
	if f.cfg.Drift == nil || m == nil || m.Baseline == nil {
		return nil
	}
	return lifecycle.NewObserver(m.Baseline.Hist, *f.cfg.Drift)
}

// acquire finds or creates the entry for site under the registry lock.
// It reports whether the caller became the loader (load==true: the
// entry is fresh and this goroutine must run f.load on it).
func (f *Fleet) acquire(site string) (e *entry, load bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false, ErrClosed
	}
	if e = f.entries[site]; e != nil {
		if !e.pinned {
			f.touch(e)
		}
		return e, false, nil
	}
	if !validSiteName(site) {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownSite, site)
	}
	e = &entry{site: site, ready: make(chan struct{})}
	f.entries[site] = e
	f.pushFront(e)
	f.evictOver()
	return e, true, nil
}

// load runs the model-file load for a fresh entry on the calling
// goroutine and publishes the outcome. Exactly one goroutine per entry
// gets here; everyone else waits on e.ready.
func (f *Fleet) load(e *entry) {
	m, info, err := f.loadFile(e.site)
	f.mu.Lock()
	if err != nil {
		e.err = err
		e.errUntil = f.cfg.Clock().Add(f.cfg.NegTTL)
	} else {
		e.model.Store(m)
		e.obs.Store(f.newObserver(m))
		e.info = info
		e.lastCheck = f.cfg.Clock()
		e.loads++
	}
	f.mu.Unlock()
	close(e.ready)
	if err != nil {
		f.logf("fleet: load %s: %v (cached %v)", e.site, err, f.cfg.NegTTL)
	} else {
		f.logf("fleet: loaded %s: %s", e.site, m)
	}
}

// loadFile maps a site name to its model file and loads it, classifying
// a missing file as ErrUnknownSite and everything else as a LoadError.
func (f *Fleet) loadFile(site string) (*core.Model, core.ModelFileInfo, error) {
	path, err := f.modelPath(site)
	if err != nil {
		return nil, core.ModelFileInfo{}, fmt.Errorf("%w: %q", ErrUnknownSite, site)
	}
	m, info, err := core.LoadModelFileWithInfo(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// The file vanished between stat and open.
			return nil, core.ModelFileInfo{}, fmt.Errorf("%w: %q", ErrUnknownSite, site)
		}
		return nil, core.ModelFileInfo{}, &LoadError{Site: site, Err: err}
	}
	return m, info, nil
}

// resolve inspects a ready entry: success (the model is behind
// e.model), a still-fresh cached failure, or — when the negative cache
// has expired — permission to retry (the stale entry is dropped so the
// next acquire reloads).
func (f *Fleet) resolve(e *entry) (retry bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e.err == nil {
		return false, nil
	}
	if f.cfg.Clock().Before(e.errUntil) {
		return false, e.err
	}
	// Expired negative entry: drop it (if it is still the registered
	// one) and let the caller loop into a fresh load.
	if f.entries[e.site] == e {
		delete(f.entries, e.site)
		f.unlink(e)
	}
	return true, nil
}

// touch moves e to the LRU front; pushFront inserts a new entry there.
// Both run under f.mu.
func (f *Fleet) touch(e *entry) {
	f.unlink(e)
	f.pushFront(e)
}

func (f *Fleet) pushFront(e *entry) {
	e.prev, e.next = f.head, f.head.next
	e.prev.next = e
	e.next.prev = e
}

func (f *Fleet) unlink(e *entry) {
	if e.prev == nil {
		return // pinned or already unlinked
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// evictOver drops least-recently-served entries until the unpinned
// population fits MaxModels. Runs under f.mu. Entries still loading are
// skipped: their loader publishes through the entry pointer regardless,
// and they become evictable the moment they are touched again.
func (f *Fleet) evictOver() {
	n := 0
	for e := f.head.next; e != f.tail; e = e.next {
		n++
	}
	for victim := f.tail.prev; n > f.cfg.MaxModels && victim != f.head; {
		prev := victim.prev
		if victim.loaded() {
			delete(f.entries, victim.site)
			f.unlink(victim)
			n--
			f.logf("fleet: evicted %s (over %d models)", victim.site, f.cfg.MaxModels)
		}
		victim = prev
	}
}
