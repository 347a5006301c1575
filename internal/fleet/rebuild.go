package fleet

import (
	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/lifecycle"
)

// The in-process rebuild path: when an entry's lifecycle observer closes
// a window drifted, the request that closed it drains the reservoir of
// drifted pages, retrains on the calling goroutine — the mini-batch
// Refine for mild drift, the full RebuildFrom for severe — and publishes
// the next model revision through the same atomic pointer the file-based
// hot-swap uses. In-flight requests keep the revision they loaded; no
// request is ever dropped or torn by a swap.
//
// Concurrency: the rebuilding flag under Fleet.mu admits exactly one
// rebuild per entry at a time (the maybeSwap idiom); requests that lose
// the race keep serving the current pointer. Everything runs on the
// triggering request's goroutine — like the rest of the serving path,
// the lifecycle spawns no goroutines of its own, so worker-count
// determinism is inherited rather than re-earned (Refine is serial and
// RebuildFrom pins the build to one worker).

// observe feeds one served request's assignment stats to the entry's
// drift observer and, when the observation closes a window with a drift
// verdict, runs the rebuild. body is the request's HTML — the observer
// copies it if (and only if) it is drifted enough to retain.
func (f *Fleet) observe(e *entry, stats core.ApplyStats, body []byte) {
	obs := e.obs.Load()
	v := obs.Observe(stats.Distance, body)
	if v == lifecycle.None {
		return
	}
	f.maybeRebuild(e, obs, v)
}

// maybeRebuild retrains the entry's model from the observer's reservoir
// and hot-swaps the result in, under the entry's rebuild gate. A rebuild
// that fails (or finds the reservoir empty after a concurrent drain)
// leaves the current model serving and only logs — drift remediation
// must never take a healthy site down.
func (f *Fleet) maybeRebuild(e *entry, obs *lifecycle.Observer, v lifecycle.Verdict) {
	f.mu.Lock()
	if e.rebuilding {
		f.mu.Unlock()
		return
	}
	e.rebuilding = true
	old := e.model.Load()
	f.mu.Unlock()

	next, err := rebuildModel(old, obs.TakeReservoir(), v)
	if err != nil {
		f.mu.Lock()
		e.rebuilding = false
		f.mu.Unlock()
		f.logf("fleet: %s drift rebuild of %s failed: %v (keeping rev %d)", v, e.site, err, old.Rev)
		return
	}

	f.mu.Lock()
	e.model.Store(next)
	if v == lifecycle.Severe {
		e.rebuilds++
	} else {
		e.refines++
	}
	e.rebuilding = false
	f.mu.Unlock()
	// Future windows are judged against the geometry now serving. Rebase
	// after publication: observations landing between the swap and the
	// rebase are discarded with the old window, never mixed across
	// baselines.
	obs.Rebase(next.Baseline.Hist)
	f.logf("fleet: %s drift on %s: rebuilt rev %d → rev %d over %d pages", v, e.site, old.Rev, next.Rev, next.NDocs)
}

// rebuildModel maps a drift verdict onto the model-layer remedy over the
// reservoir's pages: Refine folds a mild shift into the existing
// centroids; RebuildFrom retrains everything from the drifted population
// when the template changed outright.
func rebuildModel(old *core.Model, html [][]byte, v lifecycle.Verdict) (*core.Model, error) {
	pages := make([]*corpus.Page, len(html))
	for i, h := range html {
		pages[i] = &corpus.Page{HTML: string(h)}
	}
	if v == lifecycle.Severe {
		return old.RebuildFrom(pages)
	}
	return old.Refine(pages)
}
