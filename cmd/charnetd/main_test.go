package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func daemonLab(tr *obs.Trace) *experiments.Lab {
	lab := experiments.NewLab(experiments.Config{Instructions: 2000})
	lab.Obs = tr
	return lab
}

func daemonConfig() serve.Config {
	return serve.Config{Workers: 2, QueueDepth: 8,
		Info: telemetry.Info{Role: "daemon", Command: "serve", Fidelity: "quick", Format: "json"}}
}

// syncLog is the daemon's status writer in tests: runDaemon writes from
// its goroutine while the test polls.
type syncLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunDaemonServesAndDrains boots the daemon on an ephemeral port,
// hits the API and the folded telemetry plane, then cancels the serve
// context and checks the graceful exit.
func TestRunDaemonServesAndDrains(t *testing.T) {
	tr := obs.New()
	var log syncLog
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- runDaemon(ctx, daemonLab(tr), tr, daemonConfig(), "127.0.0.1:0", &log)
	}()

	const announce = "charnetd: serving on "
	var base string
	waitFor(t, func() bool {
		line, ok := strings.CutPrefix(log.String(), announce)
		base, _, _ = strings.Cut(line, "\n")
		return ok && strings.HasSuffix(line, "\n")
	}, "the daemon to announce its address")

	resp, err := http.Post(base+"/v1/measure", "application/json",
		strings.NewReader(`{"suite":"dotnet","workloads":["System.Runtime"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/measure: %d %v\n%s", resp.StatusCode, err, body)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "charnet_serve_requests_measure_total") {
		t.Fatalf("/metrics lacks charnet_serve_requests_measure_total:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runDaemon returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
	if !strings.Contains(log.String(), "charnetd: drained\n") {
		t.Fatalf("no drained line in the status log:\n%s", log.String())
	}
}

// TestRunDaemonBindFailure: an unusable address fails fast instead of
// leaking the serve core.
func TestRunDaemonBindFailure(t *testing.T) {
	tr := obs.New()
	err := runDaemon(context.Background(), daemonLab(tr), tr, daemonConfig(), "256.256.256.256:1", io.Discard)
	if err == nil {
		t.Fatal("bad address should fail")
	}
}

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
