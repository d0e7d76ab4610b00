package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteChromeTrace writes the run as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Spans become complete
// ("X") events — one thread (tid) per lane — and counters become "C"
// events stamped at the end of the run. Output is deterministic for a
// deterministic clock: events are emitted in span start order and counter
// events in name order.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	recs, counters, _, total := t.snapshot()

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var events []map[string]any
	meta := func(tid int, key, value string) {
		events = append(events, map[string]any{
			"ph": "M", "pid": 1, "tid": tid, "name": key,
			"args": map[string]any{"name": value},
		})
	}
	meta(0, "process_name", "charnet")
	lanes := map[int]bool{}
	for _, r := range recs {
		lanes[r.Lane] = true
	}
	for _, lane := range sortedInts(lanes) {
		name := "pipeline"
		if lane > 0 {
			name = fmt.Sprintf("worker %d", lane)
		}
		meta(lane, "thread_name", name)
	}
	for _, r := range recs {
		events = append(events, map[string]any{
			"ph": "X", "pid": 1, "tid": r.Lane, "cat": "charnet",
			"name": r.label(),
			"ts":   us(r.Start),
			"dur":  us(r.Dur),
			"args": map[string]any{"span": r.Name, "detail": r.Detail},
		})
	}
	for _, name := range sortedKeys(counters) {
		events = append(events, map[string]any{
			"ph": "C", "pid": 1, "tid": 0, "cat": "charnet",
			"name": name,
			"ts":   us(total),
			"args": map[string]any{"value": counters[name]},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// jsonlEvent is one line of the JSONL event log.
type jsonlEvent struct {
	Type    string  `json:"type"` // "span" | "counter" | "gauge" | "histogram"
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	Lane    int     `json:"lane,omitempty"`
	Depth   int     `json:"depth,omitempty"`
	StartUS float64 `json:"start_us,omitempty"`
	DurUS   float64 `json:"dur_us,omitempty"`
	Value   float64 `json:"value,omitempty"`

	// Histogram summary fields (type "histogram"), microseconds.
	Count int64   `json:"count,omitempty"`
	SumUS float64 `json:"sum_us,omitempty"`
	MinUS float64 `json:"min_us,omitempty"`
	MaxUS float64 `json:"max_us,omitempty"`
	P50US float64 `json:"p50_us,omitempty"`
	P95US float64 `json:"p95_us,omitempty"`
	P99US float64 `json:"p99_us,omitempty"`
}

// WriteJSONL writes the structured event log: one JSON object per line,
// spans in start order followed by counters, gauges and histogram
// summaries, each section in name order.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	recs, counters, gauges, _ := t.snapshot()
	enc := json.NewEncoder(w)
	for _, r := range recs {
		ev := jsonlEvent{
			Type: "span", Name: r.Name, Detail: r.Detail,
			Lane: r.Lane, Depth: r.Depth,
			StartUS: float64(r.Start.Nanoseconds()) / 1e3,
			DurUS:   float64(r.Dur.Nanoseconds()) / 1e3,
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(counters) {
		if err := enc.Encode(jsonlEvent{Type: "counter", Name: name, Value: float64(counters[name])}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		if err := enc.Encode(jsonlEvent{Type: "gauge", Name: name, Value: gauges[name]}); err != nil {
			return err
		}
	}
	for _, h := range t.Metrics().Histograms {
		ev := jsonlEvent{
			Type: "histogram", Name: h.Name, Count: h.Count,
			SumUS: float64(h.Sum) / 1e3,
			MinUS: float64(h.Min) / 1e3,
			MaxUS: float64(h.Max) / 1e3,
			P50US: h.Quantile(0.50) / 1e3,
			P95US: h.Quantile(0.95) / 1e3,
			P99US: h.Quantile(0.99) / 1e3,
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// profNode is one row of the aggregated self-profile tree.
type profNode struct {
	label    string
	total    time.Duration
	count    int
	children map[string]*profNode
	order    []string // first-seen child order, for deterministic output
}

func (n *profNode) child(label string) *profNode {
	if n.children == nil {
		n.children = map[string]*profNode{}
	}
	c, ok := n.children[label]
	if !ok {
		c = &profNode{label: label}
		n.children[label] = c
		n.order = append(n.order, label)
	}
	return c
}

// WriteSelfProfile writes the end-of-run text self-profile: a tree of
// phases with wall time, share of parent, and invocation counts, followed
// by the counters, gauges and histogram summaries. Spans at depth 0-1 (drivers, suite
// measurements) keep their per-instance labels; deeper spans aggregate by
// name, so the 2906 per-workload sim spans fold into one row. Because
// workloads run on a worker pool, a parallel stage's summed wall time can
// exceed its parent's — the share column is CPU-time-like there.
func (t *Trace) WriteSelfProfile(w io.Writer) error {
	if t == nil {
		return nil
	}
	recs, counters, gauges, total := t.snapshot()

	root := &profNode{}
	nodes := make([]*profNode, len(recs))
	for i, r := range recs {
		parent := root
		if r.parent >= 0 {
			parent = nodes[r.parent]
		}
		label := r.Name
		if r.Depth <= 1 && r.Detail != "" {
			label = r.label()
		}
		n := parent.child(label)
		n.total += r.Dur
		n.count++
		nodes[i] = n
	}
	root.total = total

	var b strings.Builder
	fmt.Fprintf(&b, "self-profile (wall %s)\n", total.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-44s %12s %7s %8s\n", "phase", "wall", "share", "count")
	var render func(n *profNode, depth int)
	render = func(n *profNode, depth int) {
		for _, label := range n.order {
			c := n.children[label]
			share := 0.0
			if n.total > 0 {
				share = float64(c.total) / float64(n.total) * 100
			}
			name := strings.Repeat("  ", depth) + c.label
			if len(name) > 44 {
				name = name[:41] + "..."
			}
			fmt.Fprintf(&b, "%-44s %12s %6.1f%% %8d\n",
				name, c.total.Round(time.Microsecond), share, c.count)
			render(c, depth+1)
		}
	}
	render(root, 0)
	if len(counters) > 0 {
		fmt.Fprintf(&b, "counters:\n")
		for _, name := range sortedKeys(counters) {
			fmt.Fprintf(&b, "  %-42s %14d\n", name, counters[name])
		}
	}
	if len(gauges) > 0 {
		fmt.Fprintf(&b, "gauges:\n")
		for _, name := range sortedKeys(gauges) {
			fmt.Fprintf(&b, "  %-42s %14.3f\n", name, gauges[name])
		}
	}
	if hists := t.Metrics().Histograms; len(hists) > 0 {
		fmt.Fprintf(&b, "histograms:\n")
		fmt.Fprintf(&b, "  %-42s %8s %10s %10s %10s %10s\n",
			"name", "count", "p50", "p95", "p99", "max")
		for _, h := range hists {
			q := func(p float64) string {
				return time.Duration(h.Quantile(p)).Round(time.Microsecond).String()
			}
			fmt.Fprintf(&b, "  %-42s %8d %10s %10s %10s %10s\n",
				h.Name, h.Count, q(0.50), q(0.95), q(0.99),
				time.Duration(h.Max).Round(time.Microsecond))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
