package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// quickLab is the shared fast-fidelity lab: 2000 instructions per
// workload keeps a full suite measurement in tens of milliseconds while
// exercising the whole pipeline.
func quickLab(tr *obs.Trace) *experiments.Lab {
	lab := experiments.NewLab(experiments.Config{Instructions: 2000})
	lab.Obs = tr
	return lab
}

// newTestServer wires a Server over lab behind an httptest listener and
// registers ordered cleanup: listener first (so no handler still waits on
// a worker), then the serve core.
func newTestServer(t *testing.T, lab *experiments.Lab, tr *obs.Trace, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Info == (telemetry.Info{}) {
		cfg.Info = telemetry.Info{Role: "daemon", Command: "serve", Fidelity: "quick", Format: "json"}
	}
	s := New(lab, tr, cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

func postJSON(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp, out
}

// checkArtifactBody validates a response body against the artifact JSON
// schema, artifact.CheckJSON, that charnet-check artifact runs.
func checkArtifactBody(t *testing.T, body []byte) {
	t.Helper()
	if _, _, problems := artifact.CheckJSON(bytes.NewReader(body)); len(problems) != 0 {
		t.Fatalf("response body fails the artifact schema: %v\nbody:\n%s", problems, body)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func gaugeValue(tr *obs.Trace, name string) float64 {
	for _, g := range tr.Metrics().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// TestEndpointsE2E drives every endpoint of a live server end to end:
// happy paths validated against the artifact schema and the CLI's bytes,
// error paths against their status codes, and the folded telemetry plane.
func TestEndpointsE2E(t *testing.T) {
	tr := obs.New()
	lab := quickLab(tr)
	_, srv := newTestServer(t, lab, tr, Config{Workers: 2, QueueDepth: 8})

	t.Run("drivers-list", func(t *testing.T) {
		resp, body := get(t, srv, "/v1/drivers")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var doc struct {
			Drivers []struct{ Name, Title, Paper string } `json:"drivers"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("listing not JSON: %v\n%s", err, body)
		}
		ds := experiments.Drivers()
		if len(doc.Drivers) != len(ds) {
			t.Fatalf("listed %d drivers, registry has %d", len(doc.Drivers), len(ds))
		}
		for i, d := range ds {
			if doc.Drivers[i].Name != d.Name || doc.Drivers[i].Paper != d.Paper {
				t.Fatalf("driver %d = %+v, want %s/%s (registry order)", i, doc.Drivers[i], d.Name, d.Paper)
			}
		}
	})

	t.Run("driver-run-matches-cli-bytes", func(t *testing.T) {
		resp, body := get(t, srv, "/v1/drivers/fig1")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content-type %q", ct)
		}
		checkArtifactBody(t, body)

		// The exact bytes `charnet -format json fig1` prints: run the same
		// driver on an identically configured lab and render through the
		// same artifact.WriteJSON path the CLI uses.
		d, ok := experiments.DriverByName("fig1")
		if !ok {
			t.Fatal("fig1 missing from registry")
		}
		res, err := d.Run(context.Background(), quickLab(nil))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := artifact.WriteJSON(&want, []*artifact.Artifact{res.Artifact()}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("daemon body diverges from CLI rendering:\ndaemon:\n%s\ncli:\n%s", body, want.Bytes())
		}
	})

	t.Run("driver-unknown", func(t *testing.T) {
		resp, body := get(t, srv, "/v1/drivers/nope")
		if resp.StatusCode != 404 {
			t.Fatalf("status %d, want 404: %s", resp.StatusCode, body)
		}
	})

	t.Run("measure", func(t *testing.T) {
		resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"aspnet"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkArtifactBody(t, body)
		// Identical requests are answered from the shared lab cache with
		// identical bytes.
		_, again := postJSON(t, srv, "/v1/measure", `{"suite":"aspnet"}`)
		if !bytes.Equal(body, again) {
			t.Fatal("two identical measure requests returned different bytes")
		}
	})

	t.Run("measure-workload-filter", func(t *testing.T) {
		resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"aspnet","workloads":["Websocket"]}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkArtifactBody(t, body)
		var docs []struct {
			Payloads []struct {
				Data struct {
					Rows [][]any `json:"rows"`
				} `json:"data"`
			} `json:"payloads"`
		}
		if err := json.Unmarshal(body, &docs); err != nil {
			t.Fatal(err)
		}
		rows := docs[0].Payloads[0].Data.Rows
		if len(rows) != 1 || rows[0][0] != "Websocket" {
			t.Fatalf("filtered response has wrong rows: %s", body)
		}
	})

	t.Run("measure-errors", func(t *testing.T) {
		for _, tc := range []struct {
			body string
			want int
		}{
			{`not json`, 400},
			{`{"suite":"aspnet","bogus":1}`, 400},
			{`{"suite":"nope"}`, 400},
			{`{"suite":"aspnet","machine":"ENIAC"}`, 400},
			{`{"suite":"aspnet","workloads":["no-such-workload"]}`, 400},
		} {
			resp, body := postJSON(t, srv, "/v1/measure", tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("body %q: status %d, want %d: %s", tc.body, resp.StatusCode, tc.want, body)
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &doc); err != nil || doc.Error == "" {
				t.Errorf("body %q: error response not {\"error\":...}: %s", tc.body, body)
			}
		}
	})

	t.Run("measure-unknown-workload-names-it", func(t *testing.T) {
		resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"aspnet","workloads":["Plaintext","NoSuchA","NoSuchB"]}`)
		if resp.StatusCode != 400 {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("error response not JSON: %v\n%s", err, body)
		}
		for _, want := range []string{"NoSuchA", "NoSuchB", "aspnet"} {
			if !strings.Contains(doc.Error, want) {
				t.Errorf("error %q does not name %q", doc.Error, want)
			}
		}
		// The valid name must not appear among the rejected ones.
		if strings.Contains(doc.Error, "Plaintext") {
			t.Errorf("error %q names the valid workload", doc.Error)
		}
	})

	t.Run("suites-list", func(t *testing.T) {
		resp, body := get(t, srv, "/v1/suites")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var doc struct {
			Suites []struct {
				Name      string `json:"name"`
				Suite     string `json:"suite"`
				Workloads int    `json:"workloads"`
				Builtin   bool   `json:"builtin"`
			} `json:"suites"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("listing not JSON: %v\n%s", err, body)
		}
		names := lab.SuiteNames()
		if len(doc.Suites) != len(names) {
			t.Fatalf("listed %d suites, want %d", len(doc.Suites), len(names))
		}
		for i, s := range doc.Suites {
			if s.Name != names[i] {
				t.Errorf("suite %d = %q, want %q (registration order)", i, s.Name, names[i])
			}
			if !s.Builtin || s.Workloads <= 0 || s.Suite == "" {
				t.Errorf("suite %q row incomplete: %+v", s.Name, s)
			}
		}
	})

	t.Run("method-not-allowed", func(t *testing.T) {
		if resp, _ := postJSON(t, srv, "/v1/drivers", `{}`); resp.StatusCode != 405 {
			t.Errorf("POST /v1/drivers: status %d, want 405", resp.StatusCode)
		}
		if resp, _ := get(t, srv, "/v1/measure"); resp.StatusCode != 405 {
			t.Errorf("GET /v1/measure: status %d, want 405", resp.StatusCode)
		}
		if resp, _ := postJSON(t, srv, "/v1/suites", `{}`); resp.StatusCode != 405 {
			t.Errorf("POST /v1/suites: status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("telemetry-plane-folded", func(t *testing.T) {
		if resp, body := get(t, srv, "/healthz"); resp.StatusCode != 200 || string(body) != "ok\n" {
			t.Errorf("/healthz = %d %q", resp.StatusCode, body)
		}
		_, body := get(t, srv, "/infoz")
		var info struct {
			Role string `json:"role"`
		}
		if err := json.Unmarshal(body, &info); err != nil || info.Role != "daemon" {
			t.Errorf("/infoz role = %q (err %v), want daemon", info.Role, err)
		}
		_, body = get(t, srv, "/metrics")
		for _, want := range []string{
			`charnet_run_info{command="serve",fidelity="quick",format="json",role="daemon"`,
			"charnet_serve_request_latency_seconds_count",
			"charnet_serve_queue_wait_seconds_count",
			"charnet_serve_requests_measure_total",
			"charnet_serve_requests_driver_total",
			"charnet_serve_tasks_done_total",
			"charnet_serve_queue_depth",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	})

	t.Run("stream-jsonl", func(t *testing.T) {
		_, plain := postJSON(t, srv, "/v1/measure", `{"suite":"dotnet"}`)
		resp, body := postJSON(t, srv, "/v1/measure?stream=jsonl", `{"suite":"dotnet"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content-type %q, want application/x-ndjson", ct)
		}
		var events []streamEvent
		dec := json.NewDecoder(bytes.NewReader(body))
		for {
			var e streamEvent
			if err := dec.Decode(&e); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("stream line not JSON: %v\n%s", err, body)
			}
			events = append(events, e)
		}
		if len(events) != 3 || events[0].Event != "queued" || events[1].Event != "running" || events[2].Event != "result" {
			t.Fatalf("event sequence = %+v, want queued/running/result", events)
		}
		if events[0].Depth < 1 {
			t.Errorf("queued event depth = %d, want >= 1", events[0].Depth)
		}
		checkArtifactBody(t, events[2].Artifacts)
		// Embedding into the event line compacts the JSON; the content must
		// still match the plain response exactly.
		var compactPlain bytes.Buffer
		if err := json.Compact(&compactPlain, plain); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSpace(events[2].Artifacts), compactPlain.Bytes()) {
			t.Error("streamed result artifacts differ from the plain response body")
		}
	})
}

// TestConcurrentMeasureCoalesces is the -race coalescing proof: N
// concurrent identical measure requests on a cold lab collapse into one
// underlying suite measurement through the Lab's singleflight, and every
// caller receives identical bytes.
func TestConcurrentMeasureCoalesces(t *testing.T) {
	const n = 8
	tr := obs.New()
	lab := quickLab(tr)
	_, srv := newTestServer(t, lab, tr, Config{Workers: n, QueueDepth: 2 * n})

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Client().Post(srv.URL+"/v1/measure", "application/json",
				strings.NewReader(`{"suite":"dotnet"}`))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != 200 {
				t.Errorf("request %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d returned different bytes than request 0", i)
		}
	}
	checkArtifactBody(t, bodies[0])

	// Every follower either joined the in-flight measurement (coalesced)
	// or arrived after it finished (memcache hit); exactly one request —
	// the leader — actually measured. The sum is timing-independent.
	followers := tr.Counter("lab.singleflight.coalesced") + tr.Counter("lab.memcache.hits")
	if followers != n-1 {
		t.Fatalf("coalesced %d + memcache hits %d = %d followers, want %d",
			tr.Counter("lab.singleflight.coalesced"), tr.Counter("lab.memcache.hits"), followers, n-1)
	}
}

// TestMeasureJSONRendersOnce: an unfiltered measure body is rendered
// once per Lab and measure key (Lab.MeasureJSON) and equals a fresh
// rendering of the measurement; concurrent requests share that one
// rendering; a filtered request renders its own rows and leaves no memo
// entry; and a cancelled first request memoizes nothing.
func TestMeasureJSONRendersOnce(t *testing.T) {
	hits := func(tr *obs.Trace) int64 { return tr.Counter("lab.measure_json.hits") }
	arm := machine.Arm()

	t.Run("equals-fresh-render", func(t *testing.T) {
		tr := obs.New()
		lab := quickLab(tr)
		_, srv := newTestServer(t, lab, tr, Config{})
		resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"spec","machine":"`+arm.Name+`"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		def, _ := lab.Suite("spec")
		ms, err := lab.MeasureSuite(context.Background(), def, arm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := renderArtifacts(experiments.MeasureArtifact(def.Wire, arm, ms))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("memoized body differs from a fresh rendering:\nmemo:\n%s\nfresh:\n%s", body, want)
		}
		if hits(tr) != 0 {
			t.Fatalf("lab.measure_json.hits = %d after one request, want 0", hits(tr))
		}
	})

	t.Run("concurrent-requests-share-one-render", func(t *testing.T) {
		const n = 8
		tr := obs.New()
		lab := quickLab(tr)
		_, srv := newTestServer(t, lab, tr, Config{Workers: n, QueueDepth: 2 * n})
		bodies := make([][]byte, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := srv.Client().Post(srv.URL+"/v1/measure", "application/json",
					strings.NewReader(`{"suite":"dotnet"}`))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("request %d: status %d err %v", i, resp.StatusCode, err)
					return
				}
				bodies[i] = body
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				t.Fatalf("request %d returned different bytes than request 0", i)
			}
		}
		if hits(tr) != n-1 {
			t.Fatalf("lab.measure_json.hits = %d for %d requests, want %d", hits(tr), n, n-1)
		}
	})

	t.Run("filtered-request-adds-no-entry", func(t *testing.T) {
		tr := obs.New()
		lab := quickLab(tr)
		_, srv := newTestServer(t, lab, tr, Config{})
		resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"aspnet","workloads":["Json","Plaintext"]}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		checkArtifactBody(t, body)
		// Had the filtered request left an entry, the unfiltered one
		// would be answered from it.
		first := postOK(t, srv, `{"suite":"aspnet"}`)
		if hits(tr) != 0 {
			t.Fatalf("lab.measure_json.hits = %d after a filtered and a first unfiltered request, want 0", hits(tr))
		}
		if again := postOK(t, srv, `{"suite":"aspnet"}`); !bytes.Equal(first, again) || hits(tr) != 1 {
			t.Fatalf("second unfiltered request: equal bytes %v, hits %d; want true, 1", bytes.Equal(first, again), hits(tr))
		}
	})

	t.Run("cancelled-first-request-memoizes-nothing", func(t *testing.T) {
		tr := obs.New()
		lab := quickLab(tr)
		gate := newGateCache()
		lab.Store = gate
		_, srv := newTestServer(t, lab, tr, Config{Workers: 1, QueueDepth: 4})

		// Pin the first request inside its measurement, then abandon it.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/measure",
			strings.NewReader(`{"suite":"spec"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		errc := make(chan error, 1)
		go func() {
			resp, err := srv.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		waitFor(t, func() bool { return tr.Counter("serve.tasks.started") == 1 }, "first request to start")
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned request returned %v, want context.Canceled", err)
		}
		// The server notices the disconnect asynchronously. Its 499 is
		// counted only once the request context, the one the task
		// measures under, is done, so the gate opens on a dead context.
		waitFor(t, func() bool { return tr.Counter("serve.status.499") == 1 }, "handler to see the cancel")
		close(gate.release)
		waitFor(t, func() bool { return tr.Counter("serve.tasks.done") == 1 }, "cancelled task to unwind")

		first := postOK(t, srv, `{"suite":"spec"}`)
		checkArtifactBody(t, first)
		if hits(tr) != 0 {
			t.Fatalf("lab.measure_json.hits = %d after a cancelled and a successful request, want 0", hits(tr))
		}
		if again := postOK(t, srv, `{"suite":"spec"}`); !bytes.Equal(first, again) || hits(tr) != 1 {
			t.Fatalf("repeat request: equal bytes %v, hits %d; want true, 1", bytes.Equal(first, again), hits(tr))
		}
	})
}

// postOK posts a measure request that must succeed and returns its body.
func postOK(t *testing.T, srv *httptest.Server, body string) []byte {
	t.Helper()
	resp, out := postJSON(t, srv, "/v1/measure", body)
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d: %s", body, resp.StatusCode, out)
	}
	return out
}

// gateCache is the fault-injection seam: a core.MeasurementCache whose
// Get blocks until released, pinning a measurement task inside a worker
// for as long as a test needs the queue to stay occupied.
type gateCache struct {
	release chan struct{}

	mu   sync.Mutex
	gets int
	puts int
}

func newGateCache() *gateCache { return &gateCache{release: make(chan struct{})} }

func (g *gateCache) Get(ps []workload.Profile, m *machine.Config, opts sim.Options) ([]core.Measurement, bool) {
	<-g.release
	g.mu.Lock()
	g.gets++
	g.mu.Unlock()
	return nil, false
}

func (g *gateCache) Put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []core.Measurement) {
	g.mu.Lock()
	g.puts++
	g.mu.Unlock()
}

func (g *gateCache) counts() (gets, puts int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gets, g.puts
}

// TestQueueFullSheds fills the admission queue with blocked requests and
// checks the full saturation contract: accurate queue-depth gauge,
// 503 + Retry-After shedding at the bound, and completion of everything
// admitted once the blockage clears.
func TestQueueFullSheds(t *testing.T) {
	tr := obs.New()
	lab := quickLab(tr)
	gate := newGateCache()
	lab.Store = gate
	_, srv := newTestServer(t, lab, tr, Config{Workers: 1, QueueDepth: 2})

	type reply struct {
		status int
		body   []byte
	}
	send := func(ch chan reply) {
		resp, err := srv.Client().Post(srv.URL+"/v1/measure", "application/json",
			strings.NewReader(`{"suite":"aspnet"}`))
		if err != nil {
			t.Errorf("measure request: %v", err)
			ch <- reply{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		ch <- reply{resp.StatusCode, body}
	}

	// Leader occupies the single worker, blocked on the gate.
	leader := make(chan reply, 1)
	go send(leader)
	waitFor(t, func() bool { return tr.Counter("serve.tasks.started") == 1 }, "leader to start")

	// Two more admissions fill the queue; the gauge tracks them exactly.
	q1, q2 := make(chan reply, 1), make(chan reply, 1)
	go send(q1)
	waitFor(t, func() bool { return gaugeValue(tr, "serve.queue.depth") == 1 }, "queue depth 1")
	go send(q2)
	waitFor(t, func() bool { return gaugeValue(tr, "serve.queue.depth") == 2 }, "queue depth 2")

	// The next request finds the queue at its bound and is shed.
	resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"aspnet"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("saturated request Retry-After = %q, want \"1\"", ra)
	}
	if tr.Counter("serve.shed.queue") != 1 {
		t.Fatalf("serve.shed.queue = %d, want 1", tr.Counter("serve.shed.queue"))
	}

	// Clearing the fault drains everything admitted, successfully.
	close(gate.release)
	for _, ch := range []chan reply{leader, q1, q2} {
		r := <-ch
		if r.status != 200 {
			t.Fatalf("admitted request finished with status %d: %s", r.status, r.body)
		}
		checkArtifactBody(t, r.body)
	}
	if d := gaugeValue(tr, "serve.queue.depth"); d != 0 {
		t.Fatalf("drained queue depth gauge = %v, want 0", d)
	}
}

// fixedClock freezes the trace's clock so the token bucket never refills.
type fixedClock struct{ at time.Time }

func (c fixedClock) Now() time.Time { return c.at }

// TestRateLimitSheds exhausts a burst-1 bucket under a frozen clock: the
// first request is admitted, the second is shed with 429 and a
// Retry-After sized to the refill deficit.
func TestRateLimitSheds(t *testing.T) {
	tr := obs.New(obs.WithClock(fixedClock{at: time.Unix(1700000000, 0)}))
	lab := quickLab(nil) // lab keeps real timing; only the serve clock is frozen
	_, srv := newTestServer(t, lab, tr, Config{Workers: 1, QueueDepth: 4, RatePerSec: 0.5, Burst: 1})

	resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"aspnet"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv, "/v1/measure", `{"suite":"aspnet"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429: %s", resp.StatusCode, body)
	}
	// Empty bucket at 0.5 tokens/s: one token is 2 seconds away.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if tr.Counter("serve.shed.ratelimit") != 1 {
		t.Fatalf("serve.shed.ratelimit = %d, want 1", tr.Counter("serve.shed.ratelimit"))
	}
}

// TestDrainSemantics checks graceful shutdown: once Close begins, new
// work is shed with 503 while the in-flight request runs to successful
// completion, and Close returns only after the pool has drained.
func TestDrainSemantics(t *testing.T) {
	tr := obs.New()
	lab := quickLab(tr)
	gate := newGateCache()
	lab.Store = gate
	s := New(lab, tr, Config{Workers: 1, QueueDepth: 4,
		Info: telemetry.Info{Role: "daemon", Command: "serve"}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Pin one request inside the worker.
	inflight := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		resp, err := srv.Client().Post(srv.URL+"/v1/measure", "application/json",
			strings.NewReader(`{"suite":"aspnet"}`))
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			inflight <- struct {
				status int
				body   []byte
			}{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		inflight <- struct {
			status int
			body   []byte
		}{resp.StatusCode, body}
	}()
	waitFor(t, func() bool { return tr.Counter("serve.tasks.started") == 1 }, "request to start")

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	}, "drain to begin")

	// New work is refused while draining.
	resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"dotnet"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed response missing Retry-After")
	}

	// Close must still be waiting on the pinned request.
	select {
	case <-closed:
		t.Fatal("Close returned while a request was still in flight")
	default:
	}

	// The in-flight request completes successfully after shutdown began.
	close(gate.release)
	r := <-inflight
	if r.status != 200 {
		t.Fatalf("in-flight request finished with status %d: %s", r.status, r.body)
	}
	checkArtifactBody(t, r.body)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after the pool drained")
	}
}

// TestClientDisconnectCancels proves the cancellation path end to end: a
// client that abandons its request aborts the server-side measurement
// (no torn store writes), and the same measurement succeeds afresh for
// the next caller.
func TestClientDisconnectCancels(t *testing.T) {
	cfg := experiments.Config{Instructions: 60000} // long enough to cancel mid-suite
	cfg.Workers = 1                                // serialize the sim pool so the cancel cannot race the drain
	lab := experiments.NewLab(cfg)
	tr := obs.New()
	lab.Obs = tr
	gate := newGateCache()
	close(gate.release) // pass-through; we only want its Put counter
	lab.Store = gate
	_, srv := newTestServer(t, lab, tr, Config{Workers: 1, QueueDepth: 4})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/measure",
		strings.NewReader(`{"suite":"dotnet"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Cancel only once simulation work has demonstrably begun, then the
	// client-side request must fail with the context error.
	waitFor(t, func() bool { return tr.Counter("sim.instructions") > 0 }, "simulation to start")
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned request returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("abandoned request did not return")
	}

	// The server-side task unwinds without writing a torn entry.
	waitFor(t, func() bool { return tr.Counter("serve.tasks.done") == 1 }, "server task to unwind")
	if _, puts := gate.counts(); puts != 0 {
		t.Fatalf("cancelled measurement stored %d entries, want 0 (no torn writes)", puts)
	}

	// The cancellation must not poison the suite: the same request
	// measures fresh and succeeds.
	resp, body := postJSON(t, srv, "/v1/measure", `{"suite":"dotnet"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("post-cancel request: status %d: %s", resp.StatusCode, body)
	}
	checkArtifactBody(t, body)
	if _, puts := gate.counts(); puts != 1 {
		t.Fatalf("successful re-measurement stored %d entries, want 1", puts)
	}
}

// TestQueuedTaskSkipsWorkAfterDisconnect: a request that is abandoned
// while still queued never reaches the measurement pipeline at all.
func TestQueuedTaskSkipsWorkAfterDisconnect(t *testing.T) {
	tr := obs.New()
	lab := quickLab(tr)
	gate := newGateCache()
	lab.Store = gate
	_, srv := newTestServer(t, lab, tr, Config{Workers: 1, QueueDepth: 4})

	// Pin the worker, then queue a second request and abandon it.
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		resp, err := srv.Client().Post(srv.URL+"/v1/measure", "application/json",
			strings.NewReader(`{"suite":"aspnet"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return tr.Counter("serve.tasks.started") == 1 }, "leader to start")

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/measure",
		strings.NewReader(`{"suite":"dotnet"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, func() bool { return gaugeValue(tr, "serve.queue.depth") == 1 }, "second request to queue")
	cancel()
	<-errc

	close(gate.release)
	<-leader
	waitFor(t, func() bool { return tr.Counter("serve.tasks.done") == 2 }, "both tasks to finish")
	if n := tr.Counter("serve.tasks.abandoned"); n != 1 {
		t.Fatalf("serve.tasks.abandoned = %d, want 1", n)
	}
	// Only the leader's suite was ever measured: one store round-trip.
	if gets, _ := gate.counts(); gets != 1 {
		t.Fatalf("store saw %d Gets, want 1 (abandoned task must not measure)", gets)
	}
}

// TestMeasureBodyTooLarge: a measure body past the server's limit is
// refused with 413 and the usual JSON error body before anything is
// measured, while a request naming every workload of the largest suite
// stays within the limit.
func TestMeasureBodyTooLarge(t *testing.T) {
	tr := obs.New()
	lab := quickLab(tr)
	s, srv := newTestServer(t, lab, tr, Config{Workers: 1, QueueDepth: 4})

	largest := measureRequest{Suite: "dotnet-individual"}
	def, ok := lab.Suite(largest.Suite)
	if !ok {
		t.Fatalf("suite %s is not registered", largest.Suite)
	}
	for _, p := range def.Profiles() {
		largest.Workloads = append(largest.Workloads, p.Name)
	}
	b, err := json.Marshal(largest)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) > s.maxMeasureBody {
		t.Fatalf("a %d-byte request naming every workload of %s exceeds the %d-byte limit", len(b), largest.Suite, s.maxMeasureBody)
	}

	body := `{"suite":"aspnet"` + strings.Repeat(" ", int(s.maxMeasureBody)) + `}`
	resp, out := postJSON(t, srv, "/v1/measure", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, out)
	}
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &doc); err != nil || doc.Error == "" {
		t.Fatalf("error response not {\"error\":...}: %s", out)
	}
	if n := tr.Counter("sim.instructions"); n != 0 {
		t.Fatalf("an oversized request was measured: sim.instructions = %d", n)
	}
}

// TestConfigDefaults pins the documented zero-value resolution.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers != 2 || cfg.QueueDepth != 64 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg := (Config{RatePerSec: 2.5}).withDefaults(); cfg.Burst != 3 {
		t.Fatalf("derived burst = %d, want 3", cfg.Burst)
	}
}

// testSpec is a minimal external suite-spec document: two explicit
// native workloads, enough to flow through serving end to end.
const testSpec = `{
  "format": "charnet-suite-spec",
  "version": 1,
  "wire": "memx",
  "suite": "MemX",
  "description": "external test suite",
  "defaults": {
    "BranchFrac": 0.15, "LoadFrac": 0.3, "StoreFrac": 0.12, "KernelFrac": 0.05,
    "CodeFootprintBytes": 262144, "MethodCount": 400, "MethodZipf": 1.1,
    "CallEveryInstr": 60, "BranchPredictability": 0.94, "TakenFrac": 0.55,
    "MicrocodeFrac": 0.02, "DivFrac": 0.01, "WorkingSetBytes": 8388608,
    "DataZipf": 0.9, "SequentialFrac": 0.6, "LocalFrac": 0.8, "ILP": 0.5,
    "Managed": false, "DefaultCores": 1, "InstructionScale": 1.0
  },
  "workloads": [
    {"name": "mem.stream", "category": "Mem", "profile": {"SequentialFrac": 0.95}},
    {"name": "mem.random", "category": "Mem", "profile": {"SequentialFrac": 0.05, "DataZipf": 0.2}}
  ]
}`

// TestExternalSuiteServing registers a spec-loaded suite on the Lab and
// drives it through the daemon: it appears on GET /v1/suites as
// non-built-in, measures through POST /v1/measure like any paper suite,
// and gets the same 400 treatment for unknown workload names.
func TestExternalSuiteServing(t *testing.T) {
	tr := obs.New()
	lab := quickLab(tr)
	reg := workload.NewRegistry()
	def, err := workload.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(def); err != nil {
		t.Fatal(err)
	}
	lab.Registry = reg
	_, srv := newTestServer(t, lab, tr, Config{Workers: 2, QueueDepth: 8})

	resp, body := get(t, srv, "/v1/suites")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/suites: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Suites []struct {
			Name      string `json:"name"`
			Suite     string `json:"suite"`
			Workloads int    `json:"workloads"`
			Builtin   bool   `json:"builtin"`
		} `json:"suites"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("listing not JSON: %v\n%s", err, body)
	}
	last := doc.Suites[len(doc.Suites)-1]
	if last.Name != "memx" || last.Suite != "MemX" || last.Workloads != 2 || last.Builtin {
		t.Fatalf("external suite row = %+v, want memx/MemX/2/external", last)
	}

	resp, body = postJSON(t, srv, "/v1/measure", `{"suite":"memx"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("measure memx: status %d: %s", resp.StatusCode, body)
	}
	checkArtifactBody(t, body)
	for _, want := range []string{"mem.stream", "mem.random"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("measure body missing workload %q", want)
		}
	}

	resp, body = postJSON(t, srv, "/v1/measure", `{"suite":"memx","workloads":["mem.bogus"]}`)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "mem.bogus") {
		t.Fatalf("unknown external workload: status %d, want 400 naming it: %s", resp.StatusCode, body)
	}
}

// marshalledBodyLimit is measureBodyLimit computed the long way: marshal
// the request naming every workload of each suite on the longest machine
// name, and size the limit from the longest.
func marshalledBodyLimit(t *testing.T, lab *experiments.Lab) (limit int64, largest string) {
	t.Helper()
	var longest string
	for _, m := range machine.All() {
		if len(m.Name) > len(longest) {
			longest = m.Name
		}
	}
	size := 0
	for _, def := range lab.Suites() {
		req := measureRequest{Suite: def.Wire, Machine: longest}
		for _, p := range def.Profiles() {
			req.Workloads = append(req.Workloads, p.Name)
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > size {
			size, largest = len(b), def.Wire
		}
	}
	return int64(2*size + 4<<10), largest
}

// escapeSpec is an external suite whose generated workload names need
// JSON escaping, one kind per family: HTML-significant bytes, a quote, a
// backslash, a control character, a non-ASCII letter and a line
// separator. Its 3,200 workloads make it the largest request.
const escapeSpec = `{
  "format": "charnet-suite-spec",
  "version": 1,
  "wire": "escapes",
  "suite": "Escapes",
  "defaults": {
    "BranchFrac": 0.15, "LoadFrac": 0.3, "StoreFrac": 0.12, "KernelFrac": 0.05,
    "CodeFootprintBytes": 262144, "MethodCount": 400, "MethodZipf": 1.1,
    "CallEveryInstr": 60, "BranchPredictability": 0.94, "TakenFrac": 0.55,
    "MicrocodeFrac": 0.02, "DivFrac": 0.01, "WorkingSetBytes": 8388608,
    "DataZipf": 0.9, "SequentialFrac": 0.6, "LocalFrac": 0.8, "ILP": 0.5,
    "Managed": false, "DefaultCores": 1, "InstructionScale": 1.0
  },
  "families": {"f": [
    {"name": "Lt<Gt>"}, {"name": "Amp&"}, {"name": "Quote\""}, {"name": "Back\\slash"},
    {"name": "Tab\t"}, {"name": "Crème"}, {"name": "Line\u2028Sep"}
  ]},
  "generate": [{"category": "Escapes.Of.Every.Kind", "seed": ["escapes"], "spread": 0.1, "count": 3200, "families": "f"}]
}`

// TestMeasureBodyLimit pins the /v1/measure limit: 178,226 bytes for the
// built-in suites, and for an external suite whose names need escaping,
// exactly the limit its marshalled full request implies.
func TestMeasureBodyLimit(t *testing.T) {
	lab := quickLab(obs.New())
	if got := measureBodyLimit(lab); got != 178226 {
		t.Errorf("built-in body limit %d, want 178226", got)
	}
	if want, _ := marshalledBodyLimit(t, lab); measureBodyLimit(lab) != want {
		t.Errorf("built-in body limit %d, marshalled requests imply %d", measureBodyLimit(lab), want)
	}

	reg := workload.NewRegistry()
	def, err := workload.ParseSpec([]byte(escapeSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(def); err != nil {
		t.Fatal(err)
	}
	lab.Registry = reg
	want, largest := marshalledBodyLimit(t, lab)
	if largest != "escapes" {
		t.Fatalf("largest request is suite %s, want the escaping suite", largest)
	}
	if got := measureBodyLimit(lab); got != want {
		t.Errorf("body limit %d with escaped names, marshalled requests imply %d", got, want)
	}
}

// BenchmarkNewServer times daemon construction over an already built
// registry, as charnetd pays it once per start.
func BenchmarkNewServer(b *testing.B) {
	workload.Builtin()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := obs.New()
		s := New(quickLab(tr), tr, Config{})
		s.Close()
	}
}

// BenchmarkWarmMeasure times one warm unfiltered /v1/measure request for
// the largest built-in body, dotnet-individual's at Quick fidelity
// (about 150 KB), through an httptest server: decoding, admission, the
// Lab's once-rendered body and HTTP.
func BenchmarkWarmMeasure(b *testing.B) {
	tr := obs.New()
	lab := experiments.NewLab(experiments.Quick())
	lab.Obs = tr
	s := New(lab, tr, Config{})
	srv := httptest.NewServer(s)
	defer func() {
		srv.Close()
		s.Close()
	}()
	post := func() {
		resp, err := srv.Client().Post(srv.URL+"/v1/measure", "application/json",
			strings.NewReader(`{"suite":"dotnet-individual"}`))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || n == 0 {
			b.Fatalf("status %d, %d bytes, err %v", resp.StatusCode, n, err)
		}
	}
	post() // the cold request measures the suite and renders its body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkUnknownWorkloads times the name check a /v1/measure request
// pays before admission, for a request naming every dotnet-individual
// workload.
func BenchmarkUnknownWorkloads(b *testing.B) {
	def, _ := workload.Builtin().Lookup("dotnet-individual")
	names := make([]string, def.Len())
	for i := range names {
		names[i] = def.Name(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if unknown := unknownWorkloads(def, names); len(unknown) != 0 {
			b.Fatalf("unknown names %v", unknown)
		}
	}
}
