package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serve-mix traffic is synthetic: there is no recorded charnetd
// traffic to replay, so its proportions are chosen, not measured.
//
//   - Every template is equally likely, so each (suite, machine) key is
//     touched early in a lifetime and half the requests carry a workload
//     filter (serveTemplates).
//   - streamShare of the requests ask for ?stream=jsonl.
//   - coldShare sets the lifetime length (lifetimeRequests): a long-lived
//     daemon answers most requests from its memcache, and 2% cold gives
//     600 requests per lifetime over the 12 keys, so a 25 s run on a
//     2-core host spans 5-8 lifetimes and 60-110 cold requests.
//
// The cold share decides what the end-to-end figures weigh: op_p50_s is a
// warm request's latency, while alloc_mb_per_op is dominated by the cold
// simulations.
const (
	coldShare   = 0.02
	streamShare = 0.1
)

// lifetimeRefs is how many times the reference kernels (calib.go) are
// timed before each daemon lifetime. Requests run concurrently, so they
// cannot be interrupted one by one as other workloads' operations are.
const lifetimeRefs = 3

// lifetimeRequests is how many requests one daemon lifetime serves before
// it is drained and a fresh one (with an empty Lab) starts: one first
// touch per measurement key makes coldShare of them cold.
func lifetimeRequests(tpls []template) int {
	keys := map[string]bool{}
	for _, t := range tpls {
		keys[t.measureKey()] = true
	}
	return int(math.Ceil(float64(len(keys)) / coldShare))
}

// template is one kind of serve-mix measure request.
type template struct {
	Suite     string   `json:"suite"`
	Machine   string   `json:"machine"`
	Workloads []string `json:"workloads,omitempty"`
}

// key names the template; requests with equal keys must get equal bodies.
func (t template) key() string {
	return t.Suite + "|" + t.Machine + "|" + strings.Join(t.Workloads, ",")
}

// measureKey names the (suite, machine) measurement the request needs.
func (t template) measureKey() string { return t.Suite + "|" + t.Machine }

// serveTemplates are the request kinds of the mix: every built-in suite on
// every Table II machine, whole or filtered to three workloads. At tiny
// size only the 44-category .NET suite is asked for.
func serveTemplates(tiny bool) []template {
	suites := []string{"dotnet", "aspnet", "spec", "dotnet-individual"}
	if tiny {
		suites = suites[:1]
	}
	var out []template
	for _, s := range suites {
		for _, m := range machine.All() {
			out = append(out, template{Suite: s, Machine: m.Name}, template{Suite: s, Machine: m.Name, Workloads: filterNames(s)})
		}
	}
	return out
}

// filterNames picks three workloads of a suite that a Quick-fidelity
// daemon measures: Table IV members, or for the sampled individual .NET
// suite, members of its stride sample.
func filterNames(suite string) []string {
	switch suite {
	case "dotnet":
		return experiments.TableIVDotNetSubset[:3]
	case "aspnet":
		return experiments.TableIVAspNetSubset[:3]
	case "spec":
		return experiments.TableIVSpecSubset[:3]
	}
	def, _ := workload.Builtin().Lookup(suite)
	ps := def.Profiles()
	stride := len(ps) / labConfig().DotNetIndividualLimit
	return []string{ps[0].Name, ps[100*stride].Name, ps[200*stride].Name}
}

// request is one planned serve-mix request.
type request struct {
	tpl    template
	stream bool
}

// planRequests draws one lifetime's request sequence from the seed.
func planRequests(seed uint64, life int, tpls []template, n int) []request {
	r := rng.NewFrom(seed, uint64(life))
	plan := make([]request, n)
	for i := range plan {
		plan[i] = request{tpl: tpls[r.Intn(len(tpls))], stream: r.Bool(streamShare)}
	}
	return plan
}

// reqRecord is one completed request as its client saw it.
type reqRecord struct {
	key        string // measurement key
	sent, done time.Time
	lat        time.Duration
	err        error // transport error, non-200 status or failed check
}

// classify labels each request cold or warm. A request is cold when it
// was sent before the first successful response for its measurement key
// arrived: it had to wait for, or coalesce onto, that key's simulation.
func classify(recs []reqRecord) []bool {
	first := map[string]time.Time{}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if t, ok := first[r.key]; !ok || r.done.Before(t) {
			first[r.key] = r.done
		}
	}
	cold := make([]bool, len(recs))
	for i, r := range recs {
		t, ok := first[r.key]
		cold[i] = !ok || r.sent.Before(t)
	}
	return cold
}

// daemon is an in-process charnetd on a loopback listener, configured as
// the command's defaults: Quick fidelity, an always-on trace, 2 serve
// workers, no store.
type daemon struct {
	lab    *experiments.Lab
	tr     *obs.Trace
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startDaemon() (*daemon, error) {
	lab := experiments.NewLab(labConfig())
	tr := obs.New()
	lab.Obs = tr
	srv := serve.New(lab, tr, serve.Config{Workers: procs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		lab:    lab,
		tr:     tr,
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/measure",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: procs}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon as charnetd does: listener first, so handlers
// return, then the serve core. It returns once both have stopped.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.srv.Close()
	return err
}

// simulated returns the suite measurements the stopped daemon's Lab holds
// for the keys that recs answered. Each was simulated once in the
// lifetime; they come from the Lab's memcache, with the trace detached so
// the lookups do not count as memcache hits.
func (d *daemon) simulated(ctx context.Context, recs []reqRecord) ([][]core.Measurement, error) {
	d.lab.Obs = nil
	seen := map[string]bool{}
	var sets [][]core.Measurement
	for _, r := range recs {
		if r.err != nil || seen[r.key] {
			continue
		}
		seen[r.key] = true
		suite, name, _ := strings.Cut(r.key, "|")
		var m *machine.Config
		for _, c := range machine.All() {
			if c.Name == name {
				m = c
			}
		}
		if m == nil {
			return nil, fmt.Errorf("unknown machine %q", name)
		}
		ms, err := d.lab.MeasureSuiteByName(ctx, suite, m)
		if err != nil {
			return nil, err
		}
		sets = append(sets, ms)
	}
	return sets, nil
}

// post sends one measure request and reads the whole response.
func (d *daemon) post(ctx context.Context, req request) (body []byte, sent, done time.Time, err error) {
	b, err := json.Marshal(req.tpl)
	if err != nil {
		return nil, sent, done, err
	}
	url := d.url
	if req.stream {
		url += "?stream=jsonl"
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, sent, done, err
	}
	hr.Header.Set("Content-Type", "application/json")
	sent = time.Now()
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, sent, time.Now(), err
	}
	body, err = io.ReadAll(resp.Body)
	done = time.Now()
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %.200s", req.tpl.key(), resp.StatusCode, body)
	}
	return body, sent, done, err
}

// drive runs plan through procs closed-loop clients: each sends its next
// request only after reading the previous response in full. It returns
// the records, and the wall time, allocation and peak RSS of the whole
// phase.
func (d *daemon) drive(ctx context.Context, plan []request, b *bodies) (recs []reqRecord, window time.Duration, alloc, mallocs uint64, peak float64) {
	recs = make([]reqRecord, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				body, sent, done, err := d.post(ctx, plan[i])
				if err == nil {
					err = b.check(plan[i].tpl, plan[i].stream, body)
				}
				recs[i] = reqRecord{key: plan[i].tpl.measureKey(), sent: sent, done: done, lat: done.Sub(sent), err: err}
			}
		}()
	}
	wg.Wait()
	window = time.Since(t0)
	peak = peakRSSMB()
	runtime.ReadMemStats(&after)
	return recs, window, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, peak
}

// runServeMix serves a seeded /v1/measure mix from an in-process charnetd
// to procs closed-loop clients. A run spans several daemon lifetimes,
// each starting from an empty Lab, so cold first touches recur; each
// lifetime's start is one set-up.
func runServeMix(ctx context.Context, r *runner) error {
	tpls := serveTemplates(r.tiny)
	n := lifetimeRequests(tpls)
	b := newBodies(r.env.digests.Serve)
	deadline := time.Now().Add(r.budget)
	for life := 0; r.more(life, deadline); life++ {
		traced := r.traced(life)
		var d *daemon
		reps := 1
		if life == 0 {
			reps = r.reps(setupReps)
		}
		for k := 0; k < reps; k++ {
			if d != nil {
				if err := d.stop(); err != nil {
					return fmt.Errorf("draining the daemon: %w", err)
				}
			}
			if err := r.setup(func() (err error) {
				if err := r.env.buildRegistry(); err != nil {
					return err
				}
				d, err = startDaemon()
				return err
			}); err != nil {
				return err
			}
		}
		for k := 0; k < lifetimeRefs; k++ {
			r.calibrate(true)
		}
		recs, window, alloc, mallocs, peak := d.drive(ctx, planRequests(r.env.seed, life, tpls, n), b)
		if err := d.stop(); err != nil {
			return fmt.Errorf("draining the daemon: %w", err)
		}
		lat := make([]time.Duration, len(recs))
		failed := 0
		for i, rec := range recs {
			lat[i] = rec.lat
			if rec.err != nil {
				failed++
				logFailure(r.failed+failed, rec.err)
			}
		}
		r.batch(traced, lat, failed, alloc, peak)
		if traced {
			sets, err := d.simulated(ctx, recs)
			if err != nil {
				return fmt.Errorf("reading the lifetime's measurements: %w", err)
			}
			r.layer.addServe(d.tr, recs, sets, window, alloc, mallocs)
		}
	}
	return nil
}
