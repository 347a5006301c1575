package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"thor/internal/core"
	"thor/internal/deepweb"
	"thor/internal/probe"
)

// The test fixtures: two distinguishable models of the same site (so
// either can serve the same fresh pages) plus a fresh probe round the
// training runs never saw. Built once per test binary; tests write the
// serialized bytes into their own temp directories.
var (
	fixOnce   sync.Once
	modelA    *core.Model
	modelB    *core.Model
	rawA      []byte
	rawB      []byte
	freshHTML []string
)

func fixtures(t testing.TB) {
	t.Helper()
	fixOnce.Do(func() {
		site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
		train := func(dict int) (*core.Model, []byte) {
			prober := &probe.Prober{Plan: probe.NewPlan(dict, 4, 1), Labeler: deepweb.Labeler()}
			col := prober.ProbeSite(site)
			cfg := core.DefaultConfig()
			cfg.Workers = 1
			m, err := core.NewExtractor(cfg).BuildModel(col.Pages)
			if err != nil {
				panic(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				panic(err)
			}
			return m, buf.Bytes()
		}
		modelA, rawA = train(40)
		modelB, rawB = train(28)

		prober := &probe.Prober{Plan: probe.NewPlan(12, 2, 909), Labeler: deepweb.Labeler()}
		for _, p := range prober.ProbeSite(site).Pages {
			freshHTML = append(freshHTML, p.HTML)
		}
	})
	if modelA.NDocs == modelB.NDocs {
		t.Fatal("fixture models are indistinguishable; hot-swap tests would check nothing")
	}
}

// writeModel drops raw model bytes at dir/<site>.thor.model.gz with an
// explicit mtime, so successive writes are guaranteed to change the
// size/mtime fingerprint even on coarse filesystem clocks.
func writeModel(t testing.TB, dir, site string, raw []byte, mtime time.Time) string {
	t.Helper()
	path := filepath.Join(dir, site+".thor.model.gz")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	return path
}

// fakeClock is a mutex-guarded manual clock for the registry's TTL and
// swap-interval logic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// countingLog collects Logf lines race-safely and counts those
// containing a substring.
type countingLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *countingLog) Logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *countingLog) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			n++
		}
	}
	return n
}
