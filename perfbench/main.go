// Command perfbench is THOR's benchmark: seeded workloads driven in-process
// against the system's public entry points, with every output checked.
//
//	bash perfbench/run.sh --workload onboard|extract --seed N --seconds S --trace 0|1
//
// run from the repository root (run.sh builds this module first).
// With --trace 0 it runs the named workload untraced and reports the
// end-to-end metrics of BENCHMARK.json. With --trace 1 it runs the traced
// suite, which covers every layer of all three paths, and reports the
// per-layer metrics. Human-readable lines come first; the last line of
// standard output is the JSON result. A failed correctness gate is
// reported as "correct": false and exits with status 3, after the result;
// bad flags exit with 2 and an environment failure with 1, with no result.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's parameters and accumulates its result.
type run struct {
	workload string
	seed     int64
	seconds  float64
	// clients is the closed-loop client count and the worker count of
	// every fan-out: one per processor, as a single-process load
	// generator on this machine can offer.
	clients int
	// workDir is the run's scratch directory inside the checkout (model
	// files); removed at exit.
	workDir string

	mu  sync.Mutex // guards res.Correct, which fail sets from any goroutine
	res result
}

// A workload sets itself up at least setupReps times, and until
// setupMinS seconds have gone to it; setup_s is the median.
const (
	setupReps = 3
	setupMinS = 2.0
)

func main() {
	workload := flag.String("workload", "", "onboard or extract")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer suite instead of the untraced workload")
	flag.Parse()

	workloads := map[string]func(*run){"onboard": runOnboard, "extract": runExtract}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload onboard|extract --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(buildDir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		clients:  runtime.GOMAXPROCS(0),
		workDir:  dir,
		res:      result{Correct: true, Metrics: map[string]metric{}},
	}
	if *trace == 1 {
		runTraced(r)
	} else {
		fn(r)
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch dir:", err)
	}
	if r.res.Attempted < 1 {
		r.fail("no operation was attempted")
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(3)
	}
}

// buildDir is where the benchmark keeps its files, relative to the
// checkout root it runs from; run.sh builds into the same directory.
const buildDir = ".bench_build"

// mkdir creates and returns a fresh directory under the run's scratch
// directory.
func (r *run) mkdir(name string) string {
	dir := filepath.Join(r.workDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// put records one metric. A non-finite value (a percentile that landed on
// a failed operation) is reported as -1 and fails the run.
func (r *run) put(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail("%s is undefined (a failed operation reached it)", name)
		value = -1
	}
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail marks the run incorrect and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: "+format+"\n", args...)
	}
	r.res.Correct = false
}

// info prints one human-readable line ahead of the JSON result.
func (r *run) info(format string, args ...any) {
	fmt.Printf("# %s: "+format+"\n", append([]any{r.workload}, args...)...)
}

// timedSetup runs build at least setupReps times and for at least
// setupMinS seconds, each from a collected heap, and returns the last
// product with the median wall time in seconds.
func timedSetup[T any](build func() T) (T, float64) {
	var (
		v     T
		secs  []float64
		spent float64
	)
	for len(secs) < setupReps || spent < setupMinS {
		var zero T
		v = zero
		runtime.GC()
		t0 := time.Now()
		v = build()
		secs = append(secs, time.Since(t0).Seconds())
		spent += secs[len(secs)-1]
	}
	return v, median(secs)
}

// liveHeapMB forces a collection and returns the heap in use, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median returns the middle value (mean of the two middle values) of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs. Failed operations enter xs as +Inf, so they count as missing every
// latency figure.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// digest is a running SHA-256 over length-prefixed strings.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...string) {
	for _, p := range parts {
		//thorlint:allow no-unchecked-error hash.Hash writes never fail
		fmt.Fprintf(d.h, "%d:%s", len(p), p)
	}
}

// sum returns the first 16 hex digits of the digest.
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
