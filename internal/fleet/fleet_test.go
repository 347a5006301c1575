package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestGetLazyLoadCacheAndUnknown(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	now := time.Unix(1_600_000_000, 0)
	writeModel(t, dir, "books", rawA, now)
	log := &countingLog{}
	f := New(Config{Dir: dir, Logf: log.Logf})
	defer f.Close()
	ctx := context.Background()

	m1, err := f.Get(ctx, "books")
	if err != nil {
		t.Fatal(err)
	}
	if m1.NDocs != modelA.NDocs {
		t.Fatalf("loaded NDocs %d, want %d", m1.NDocs, modelA.NDocs)
	}
	m2, err := f.Get(ctx, "books")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("second Get returned a different model; the registry reloaded a warm site")
	}
	if got := log.count("loaded books"); got != 1 {
		t.Errorf("%d loads for two Gets, want 1", got)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}

	for _, site := range []string{"missing", "../books", "a/b", ".hidden", ""} {
		if _, err := f.Get(ctx, site); !errors.Is(err, ErrUnknownSite) {
			t.Errorf("Get(%q) = %v, want ErrUnknownSite", site, err)
		}
	}
}

// TestGetIgnoresLegacyFilenameSuffix: a site loads only from
// <site>.thor.model.gz; a file under the retired <site>.model.gz name is
// not a model of the fleet.
func TestGetIgnoresLegacyFilenameSuffix(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.model.gz")
	if err := os.WriteFile(path, rawA, 0o644); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Dir: dir})
	defer f.Close()
	if _, err := f.Get(context.Background(), "legacy"); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("Get over a .model.gz file = %v, want ErrUnknownSite", err)
	}
}

// TestGetDedupesColdLoad is the thundering-herd contract: many
// concurrent requests for the same cold site trigger exactly one file
// load, and every request gets the same loaded model.
func TestGetDedupesColdLoad(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	writeModel(t, dir, "books", rawA, time.Unix(1_600_000_000, 0))
	log := &countingLog{}
	f := New(Config{Dir: dir, Logf: log.Logf})
	defer f.Close()

	const herd = 32
	models := make([]any, herd)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			m, err := f.Get(context.Background(), "books")
			if err != nil {
				t.Errorf("herd Get: %v", err)
				return
			}
			models[i] = m
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < herd; i++ {
		if models[i] != models[0] {
			t.Fatalf("request %d got a different model instance", i)
		}
	}
	if got := log.count("loaded books"); got != 1 {
		t.Errorf("%d loads for a %d-request herd, want 1", got, herd)
	}
}

func TestLRUEviction(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	now := time.Unix(1_600_000_000, 0)
	for _, site := range []string{"a", "b", "c"} {
		writeModel(t, dir, site, rawA, now)
	}
	log := &countingLog{}
	f := New(Config{Dir: dir, MaxModels: 2, Logf: log.Logf})
	defer f.Close()
	ctx := context.Background()

	for _, site := range []string{"a", "b"} {
		if _, err := f.Get(ctx, site); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is the LRU victim when c arrives.
	if _, err := f.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", f.Len())
	}
	if got := log.count("evicted b"); got != 1 {
		t.Fatalf("evicted-b logs: %d, want 1 (lines: %v)", got, log.lines)
	}
	// The evicted site reloads on demand.
	if _, err := f.Get(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if got := log.count("loaded b"); got != 2 {
		t.Errorf("b loaded %d times, want 2 (evict + reload)", got)
	}
}

// TestRegisteredEntriesArePinned pins Register/SetDefault semantics:
// pinned models resolve without a directory, never evict, and never
// count against MaxModels.
func TestRegisteredEntriesArePinned(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	now := time.Unix(1_600_000_000, 0)
	for _, site := range []string{"a", "b"} {
		writeModel(t, dir, site, rawA, now)
	}
	f := New(Config{Dir: dir, MaxModels: 1})
	defer f.Close()
	f.SetDefault(modelB)
	ctx := context.Background()

	for _, site := range []string{"a", "b", "a", "b"} {
		if _, err := f.Get(ctx, site); err != nil {
			t.Fatal(err)
		}
	}
	m, err := f.Get(ctx, DefaultSite)
	if err != nil {
		t.Fatal(err)
	}
	if m != modelB {
		t.Error("default entry was evicted or replaced by directory churn")
	}
}

func TestNegativeCacheExpiry(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.thor.model.gz"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	log := &countingLog{}
	f := New(Config{Dir: dir, NegTTL: 5 * time.Second, Clock: clock.Now, Logf: log.Logf})
	defer f.Close()
	ctx := context.Background()

	var lerr *LoadError
	if _, err := f.Get(ctx, "bad"); !errors.As(err, &lerr) {
		t.Fatalf("corrupt file: %v, want *LoadError", err)
	}
	// Within the TTL the cached error answers without touching disk.
	if _, err := f.Get(ctx, "bad"); !errors.As(err, &lerr) {
		t.Fatalf("cached: %v, want *LoadError", err)
	}
	if got := log.count("load bad"); got != 1 {
		t.Fatalf("%d load attempts inside the TTL, want 1", got)
	}
	// Past the TTL the next request retries (and fails afresh).
	clock.Advance(6 * time.Second)
	if _, err := f.Get(ctx, "bad"); !errors.As(err, &lerr) {
		t.Fatalf("after TTL: %v, want *LoadError", err)
	}
	if got := log.count("load bad"); got != 2 {
		t.Errorf("%d load attempts after the TTL, want 2", got)
	}

	// A missing file is negative-cached the same way, as ErrUnknownSite.
	if _, err := f.Get(ctx, "ghost"); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("missing file: %v, want ErrUnknownSite", err)
	}
	if _, err := f.Get(ctx, "ghost"); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("cached missing file: %v, want ErrUnknownSite", err)
	}
	// Dropping the model in and waiting out the TTL heals the site.
	writeModel(t, dir, "ghost", rawA, time.Unix(1_600_000_000, 0))
	clock.Advance(6 * time.Second)
	if _, err := f.Get(ctx, "ghost"); err != nil {
		t.Fatalf("healed site: %v", err)
	}
}

func TestHotSwapOnFileChange(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	base := time.Unix(1_600_000_000, 0)
	writeModel(t, dir, "books", rawA, base)
	clock := newFakeClock()
	log := &countingLog{}
	f := New(Config{Dir: dir, SwapEvery: 2 * time.Second, Clock: clock.Now, Logf: log.Logf})
	defer f.Close()
	ctx := context.Background()

	m1, err := f.Get(ctx, "books")
	if err != nil {
		t.Fatal(err)
	}
	if m1.NDocs != modelA.NDocs {
		t.Fatalf("initial NDocs %d, want %d", m1.NDocs, modelA.NDocs)
	}

	// Drop in the replacement. Inside the swap interval the old model
	// keeps serving untouched.
	writeModel(t, dir, "books", rawB, base.Add(10*time.Second))
	if m, _ := f.Get(ctx, "books"); m != m1 {
		t.Fatal("swap happened before the re-check interval elapsed")
	}
	clock.Advance(3 * time.Second)
	m2, err := f.Get(ctx, "books")
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 || m2.NDocs != modelB.NDocs {
		t.Fatalf("after swap: NDocs %d (same instance: %v), want %d", m2.NDocs, m2 == m1, modelB.NDocs)
	}
	if got := log.count("hot-swapped books"); got != 1 {
		t.Errorf("hot-swap logs: %d, want 1", got)
	}
	// The old instance is still a fully valid model for any request that
	// grabbed it before the swap.
	if _, _, err := m1.ApplyHTML(ctx, freshHTML[0]); err != nil {
		t.Errorf("pre-swap model no longer serves: %v", err)
	}
}

// TestHotSwapBadReplacementKeepsServing pins the availability rule: a
// corrupt drop-in (or a deleted file) never takes a loaded site down.
func TestHotSwapBadReplacementKeepsServing(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	base := time.Unix(1_600_000_000, 0)
	path := writeModel(t, dir, "books", rawA, base)
	clock := newFakeClock()
	log := &countingLog{}
	f := New(Config{Dir: dir, SwapEvery: time.Second, Clock: clock.Now, Logf: log.Logf})
	defer f.Close()
	ctx := context.Background()

	m1, err := f.Get(ctx, "books")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, base.Add(time.Hour), base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	m2, err := f.Get(ctx, "books")
	if err != nil || m2 != m1 {
		t.Fatalf("corrupt replacement: model %v err %v, want the loaded model and nil", m2 == m1, err)
	}
	if got := log.count("keeping the loaded model"); got != 1 {
		t.Errorf("swap-failure logs: %d, want 1", got)
	}

	// Deleting the file entirely keeps serving too.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if m3, err := f.Get(ctx, "books"); err != nil || m3 != m1 {
		t.Fatalf("deleted file: model %v err %v, want the loaded model and nil", m3 == m1, err)
	}
}

func TestCloseAndContext(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	writeModel(t, dir, "books", rawA, time.Unix(1_600_000_000, 0))
	f := New(Config{Dir: dir})
	ctx := context.Background()
	if _, err := f.Get(ctx, "books"); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := f.Get(canceled, "books"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: %v, want context.Canceled", err)
	}
	f.Close()
	if _, err := f.Get(ctx, "books"); !errors.Is(err, ErrClosed) {
		t.Errorf("after Close: %v, want ErrClosed", err)
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d after Close, want 0", f.Len())
	}
}
