package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mstore"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestMeasureCancelMidFlight cancels a suite measurement while the
// simulation workers are running and checks the full cancellation
// contract: the call returns promptly with the context error, nothing is
// written to the persistent store (no torn entries), and a subsequent
// uncancelled run on the same lab re-measures and produces exactly the
// measurements an undisturbed lab produces. It runs on one worker and on
// two that claim workloads from one counter, both of which must stop.
func TestMeasureCancelMidFlight(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			measureCancelMidFlight(t, workers)
		})
	}
}

func measureCancelMidFlight(t *testing.T, workers int) {
	store, err := mstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.Instructions = 60000 // long enough that cancellation lands mid-suite
	cfg.Workers = workers
	lab := NewLab(cfg)
	tr := obs.New()
	lab.Obs = tr
	store.Obs = tr
	lab.Store = store

	m := machine.CoreI9()
	def, _ := lab.Suite("dotnet")
	ps := def.Profiles()
	opts := sim.Options{Instructions: cfg.Instructions}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := lab.measure(ctx, "midflight", ps, m, opts)
		done <- err
	}()

	// Wait until simulation work has demonstrably begun, then cancel.
	// sim.instructions increments on every completed sim run, and
	// obs counters are safe to read concurrently.
	start := make(chan struct{})
	go func() {
		for tr.Counter("sim.instructions") == 0 {
			time.Sleep(time.Millisecond)
		}
		close(start)
	}()
	select {
	case <-start:
	case <-time.After(time.Minute):
		t.Fatal("simulation never started")
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled measure returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled measurement did not return within its bound")
	}
	if n := tr.Counter("mstore.puts"); n != 0 {
		t.Fatalf("cancelled measurement stored %d suite entries; want 0 (no torn writes)", n)
	}

	// The error must not poison the lab: the same key re-measures fresh.
	got, err := lab.measure(context.Background(), "midflight", ps, m, opts)
	if err != nil {
		t.Fatalf("re-measure after cancellation: %v", err)
	}
	if n := tr.Counter("mstore.puts"); n != 1 {
		t.Fatalf("re-measure stored %d suite entries; want 1", n)
	}

	// Byte-level equivalence with an undisturbed lab: the cancelled-then-
	// retried path yields exactly the measurements a clean lab yields.
	want, err := core.MeasureSuite(context.Background(), nil, ps, m, opts, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("re-measure yielded %d measurements, clean run %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Workload.Name != want[i].Workload.Name {
			t.Fatalf("measurement %d is %q, clean run has %q", i, got[i].Workload.Name, want[i].Workload.Name)
		}
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("measurement %d errored: %v / %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Vector != want[i].Vector {
			t.Fatalf("measurement %d (%s) diverges from an undisturbed run", i, got[i].Workload.Name)
		}
	}
}

// TestDriverCancelMidFlight: cancellation propagates through a whole
// driver (figure 11's sweep), not just the suite-measurement layer.
func TestDriverCancelMidFlight(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 60000
	lab := NewLab(cfg)
	tr := obs.New()
	lab.Obs = tr

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Figure11(ctx, lab)
		done <- err
	}()
	start := make(chan struct{})
	go func() {
		for tr.Counter("sim.instructions") == 0 {
			time.Sleep(time.Millisecond)
		}
		close(start)
	}()
	select {
	case <-start:
	case <-time.After(time.Minute):
		t.Fatal("simulation never started")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled driver returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled driver did not return within its bound")
	}
}
