// Package obs is the repository's zero-dependency observability layer:
// named counters, gauges, and histograms behind a global registry, with
// deterministic JSON snapshots and run manifests for the CLIs.
//
// The paper's methodology (Sections 3 and 5) is an economic argument —
// data mining in EDA pays off only when the cost it removes (simulation
// cycles, kernel evaluations, iterations of the knowledge-discovery
// loop) is measured, not estimated. Before this package each experiment
// computed those numbers ad hoc and threw them away; now every expensive
// path increments a first-class metric and `edamine -manifest` persists
// the whole set per run, so a claimed speedup must show up in a manifest
// diff.
//
// Design constraints, in order:
//
//  1. Determinism. Metrics observe the computation and never feed back
//     into it: enabling or disabling the layer must leave every
//     experiment report byte-identical (asserted by the repo's
//     determinism tests).
//  2. Negligible hot-path cost. An enabled counter update is one atomic
//     add guarded by one atomic load; with the kill-switch off
//     (REPRO_OBS=0, or SetEnabled(false)) the guard fails and nothing
//     else runs. Hot loops pre-resolve their metrics into package-level
//     vars so the registry map is never touched per operation, and
//     accumulate locally per work chunk so the atomic is hit once per
//     chunk, not once per element.
//  3. Concurrency safety. All metric updates are lock-free atomics; the
//     registry itself takes a mutex only on first registration and on
//     snapshot. The package is exercised under -race by its own tests
//     and by every instrumented parallel path.
//
// The kill switch is the REPRO_OBS environment variable, read once at
// startup: set REPRO_OBS=0 to disable collection entirely. Tests and
// benchmarks can flip the switch at runtime with SetEnabled.
package obs

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// enabled gates every metric update. Default on; REPRO_OBS=0 disables.
var enabled atomic.Bool

func init() {
	enabled.Store(os.Getenv("REPRO_OBS") != "0")
}

// SetEnabled turns collection on or off at runtime and returns the
// previous setting so callers can restore it:
//
//	defer obs.SetEnabled(obs.SetEnabled(false))
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// registry is the global name -> metric store. Registration is
// idempotent: GetCounter("x") returns the same *Counter from every call
// site, so packages pre-resolve metrics into vars at init and share them
// freely. Registering one name as two different kinds panics — metric
// names are a global schema, and a silent collision would corrupt
// snapshots.
var registry = struct {
	mu       sync.Mutex
	kinds    map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}{
	kinds:    map[string]string{},
	counters: map[string]*Counter{},
	gauges:   map[string]*Gauge{},
	hists:    map[string]*Histogram{},
}

func checkKind(name, kind string) {
	if got, ok := registry.kinds[name]; ok && got != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, got, kind))
	}
	registry.kinds[name] = kind
}

// Counter is a monotonically increasing (by convention) int64 metric:
// cells computed, programs simulated, cache hits. All methods are safe
// for concurrent use.
type Counter struct {
	name string
	v    atomic.Int64
}

// GetCounter returns the counter registered under name, creating it on
// first use.
func GetCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	checkKind(name, "counter")
	c, ok := registry.counters[name]
	if !ok {
		c = &Counter{name: name}
		registry.counters[name] = c
	}
	return c
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Add adds n. When collection is disabled this is a single failed
// atomic load.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins int64 metric: configured worker count,
// current model size. All methods are safe for concurrent use.
type Gauge struct {
	name string
	v    atomic.Int64
}

// GetGauge returns the gauge registered under name, creating it on
// first use.
func GetGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	checkKind(name, "gauge")
	g, ok := registry.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		registry.gauges[name] = g
	}
	return g
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if enabled.Load() {
		g.v.Store(v)
	}
}

// Add adds n to the gauge.
func (g *Gauge) Add(n int64) {
	if enabled.Load() {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Scope is a dotted metric-name prefix: Scope("kernel").Counter("gram_cells")
// is GetCounter("kernel.gram_cells"). It exists so a package can declare
// its namespace once and mint metrics under it.
type Scope string

// Counter returns the scoped counter s.name.
func (s Scope) Counter(name string) *Counter { return GetCounter(string(s) + "." + name) }

// Gauge returns the scoped gauge s.name.
func (s Scope) Gauge(name string) *Gauge { return GetGauge(string(s) + "." + name) }

// Histogram returns the scoped histogram s.name.
func (s Scope) Histogram(name string) *Histogram { return GetHistogram(string(s) + "." + name) }

// Timer starts a timer on the scoped histogram s.name.
func (s Scope) Timer(name string) Timer { return s.Histogram(name).Start() }
