// Package obs is the repo's dependency-free observability layer: a
// metrics registry (atomic counters, gauges, fixed-bucket histograms)
// rendering the Prometheus text exposition format, a bounded lock-free
// event ring recording typed state-machine events with monotonic
// timestamps, and a small Observer bundle that threads both — plus a
// log/slog logger — through the engine, EVS and transport layers.
//
// Everything on the hot path is allocation-free: counter increments and
// histogram observations are single atomic operations (the histogram sum
// is a CAS loop on the float64 bit pattern), and the tracer writes to
// pre-allocated all-atomic ring slots. Registration and rendering take
// locks; recording never does.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Inc and Add are
// allocation-free single atomic operations.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is allocation-free:
// a linear scan over the (small) bound slice, one atomic bucket add and a
// CAS loop folding the value into the float64 sum. There is no separate
// observation counter: the count is the sum of the buckets, so a scrape
// taken under load cannot show a +Inf bucket and a _count that disagree.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf bucket is implicit
	buckets []atomic.Uint64
	sum     atomic.Uint64 // float64 bit pattern
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (the sum of all buckets).
func (h *Histogram) Count() uint64 {
	n := uint64(0)
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the default upper-bound set for latency histograms
// (seconds): 100µs to 10s, roughly exponential — wide enough for both
// the in-memory simulated-disk path and real fsync latencies.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// SizeBuckets is the default upper-bound set for small-count histograms
// (batch sizes and the like): powers of two through 256.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Label is one metric label pair. Values are escaped at render time.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

type series struct {
	labels string // pre-rendered `k1="v1",k2="v2"` (no braces), "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	name   string
	help   string
	kind   string
	series []*series
}

// Registry holds metric families and renders them as Prometheus text.
// Metric creation is idempotent: asking for the same name and label set
// returns the existing metric, so layers can share a registry without
// coordinating registration order. Creation locks; the returned metrics
// are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable rendering
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels pre-renders a label set in sorted-key order with proper
// value escaping, so rendering and series identity are both canonical.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the family and series slot.
func (r *Registry) lookup(name, help, kind string, labels []Label) *series {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if s.labels == ls {
			return s
		}
	}
	s := &series{labels: ls}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return s
}

// Counter returns the counter for name+labels, creating it if needed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for name+labels, creating it if needed.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram for name+labels, creating it if
// needed. bounds must be ascending; nil means LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	s := r.lookup(name, help, kindHist, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.h
}

// WriteText renders every family in Prometheus text exposition format:
// one # HELP and # TYPE header per family, label variants grouped under
// it, histogram series expanded into cumulative _bucket/_sum/_count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		r.mu.Lock()
		ss := append([]*series(nil), f.series...)
		r.mu.Unlock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(s.labels), s.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(s.labels), s.g.Value())
			case kindHist:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(s.labels), formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(s.labels), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, braced(s.labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced(s.labels), cum)
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ServeHTTP makes the registry a GET /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w)
}
