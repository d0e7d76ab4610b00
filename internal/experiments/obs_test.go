package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// TestObservedRunIsByteIdentical is the tentpole determinism contract at
// the experiments layer: a fully-traced TableIV run renders exactly the
// same text as an untraced one. Observability reads the pipeline, never
// feeds it.
func TestObservedRunIsByteIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 3000
	cfg.DotNetIndividualLimit = 60
	cfg.CoreSweep = []int{1, 4}

	plain := NewLab(cfg)
	ref, err := TableIV(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}

	var progress strings.Builder
	traced := NewLab(cfg)
	traced.Obs = obs.New(obs.WithProgress(&progress))
	got, err := TableIV(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != ref.String() {
		t.Fatal("tracing changed the experiment output")
	}

	// The trace must have seen the suite measurements and their workloads.
	var spans, sims int
	var export strings.Builder
	if err := traced.Obs.WriteJSONL(&export); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(export.String(), "\n") {
		if strings.Contains(line, `"type":"span"`) {
			spans++
			if strings.Contains(line, `"name":"sim"`) {
				sims++
			}
		}
	}
	if spans == 0 || sims == 0 {
		t.Fatalf("traced run recorded %d spans (%d sims); expected both nonzero", spans, sims)
	}
	if !strings.Contains(progress.String(), "measure") {
		t.Errorf("progress output missing suite lines:\n%s", progress.String())
	}
	if traced.Obs.Counter("sim.instructions") == 0 {
		t.Error("sim.instructions counter never incremented")
	}
}

// TestSingleflightCoalescedCounter: concurrent requests for the same suite
// must coalesce, and the trace must count the waiters.
func TestSingleflightCoalescedCounter(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 3000
	lab := NewLab(cfg)
	lab.Obs = obs.New()
	m := machine.CoreI9()

	const callers = 4
	done := make(chan struct{})
	for i := 0; i < callers; i++ {
		go func() {
			lab.MeasureSuiteByName(context.Background(), "dotnet", m)
			done <- struct{}{}
		}()
	}
	for i := 0; i < callers; i++ {
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatal("timed out waiting for coalesced measurements")
		}
	}
	coalesced := lab.Obs.Counter("lab.singleflight.coalesced")
	hits := lab.Obs.Counter("lab.memcache.hits")
	if coalesced+hits != callers-1 {
		t.Fatalf("coalesced (%d) + memcache hits (%d) = %d, want %d",
			coalesced, hits, coalesced+hits, callers-1)
	}
	// A repeat on the now-warm in-memory cache is a plain hit.
	if _, err := lab.MeasureSuiteByName(context.Background(), "dotnet", m); err != nil {
		t.Fatal(err)
	}
	if got := lab.Obs.Counter("lab.memcache.hits"); got != hits+1 {
		t.Fatalf("warm repeat did not count as a memcache hit: %d -> %d", hits, got)
	}
}
