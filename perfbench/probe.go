package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// probe traces one operation: the obs trace wired into the Lab and the
// store, the benchmark's own timings around its calls into public
// functions, and the suite measurements the operation produced. A nil
// probe makes the same calls untraced.
type probe struct {
	tr        *obs.Trace
	store     *captureStore
	simulated [][]core.Measurement // measured (not served from a store)
	drivers   map[string]time.Duration
	jsonDur   time.Duration
	textDur   time.Duration
	jsonBytes int
}

func newProbe() *probe {
	return &probe{tr: obs.New(), drivers: map[string]time.Duration{}}
}

// attach wires the probe's trace into lab and, when store is non-nil, into
// the store, and puts a capturing wrapper between the two.
func (p *probe) attach(lab *experiments.Lab, store *mstore.Store) {
	if p == nil {
		return
	}
	lab.Obs = p.tr
	if store != nil {
		store.Obs = p.tr
		p.store = &captureStore{inner: store}
		lab.Store = p.store
	}
}

// runDriver runs one registered driver on lab.
func (p *probe) runDriver(ctx context.Context, d experiments.Driver, lab *experiments.Lab) (artifact.Producer, error) {
	t0 := time.Now()
	res, err := d.Run(ctx, lab)
	if p != nil {
		p.drivers[d.Name] += time.Since(t0)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	return res, nil
}

// renderJSON builds the drivers' artifacts and renders them as one JSON
// array, as `charnet -format json` does.
func (p *probe) renderJSON(prods []artifact.Producer) ([]*artifact.Artifact, error) {
	t0 := time.Now()
	arts := make([]*artifact.Artifact, len(prods))
	for i, pr := range prods {
		arts[i] = pr.Artifact()
	}
	var buf bytes.Buffer
	err := artifact.WriteJSON(&buf, arts)
	if p != nil {
		p.jsonDur += time.Since(t0)
		p.jsonBytes += buf.Len()
	}
	return arts, err
}

// renderText renders one artifact as text, as `charnet <driver>` does.
func (p *probe) renderText(a *artifact.Artifact) string {
	t0 := time.Now()
	s := artifact.Text(a)
	if p != nil {
		p.textDur += time.Since(t0)
	}
	return s
}

// measured records a suite measurement the operation simulated.
func (p *probe) measured(ms []core.Measurement) {
	if p != nil {
		p.simulated = append(p.simulated, ms)
	}
}

// captureStore is a core.MeasurementCache in front of an mstore.Store. The
// store times and counts its own Gets and Puts into the probe's trace;
// the wrapper only keeps what the operation read and wrote: the inputs of
// each hit, so the bytes read can be counted after the operation, and the
// measurement sets, for the count and analysis probes.
type captureStore struct {
	inner *mstore.Store

	mu          sync.Mutex
	hitInputs   []storeInputs
	got, stored [][]core.Measurement
}

// storeInputs are the arguments that key one store entry.
type storeInputs struct {
	ps   []workload.Profile
	m    *machine.Config
	opts sim.Options
}

func (s *captureStore) Get(ps []workload.Profile, m *machine.Config, opts sim.Options) ([]core.Measurement, bool) {
	ms, ok := s.inner.Get(ps, m, opts)
	if ok {
		s.mu.Lock()
		s.hitInputs = append(s.hitInputs, storeInputs{ps, m, opts})
		s.got = append(s.got, ms)
		s.mu.Unlock()
	}
	return ms, ok
}

func (s *captureStore) Put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []core.Measurement) {
	s.inner.Put(ps, m, opts, ms)
	s.mu.Lock()
	s.stored = append(s.stored, ms)
	s.mu.Unlock()
}

// bytesRead sums the sizes of the store files the operation's hits read:
// mstore keeps one <key>.json per suite measurement. It keys and stats
// the files, so it runs after the operation, outside its timing.
func (s *captureStore) bytesRead() int64 {
	var n int64
	for _, in := range s.hitInputs {
		key, err := mstore.Key(in.ps, in.m, in.opts)
		if err != nil {
			continue
		}
		if fi, err := os.Stat(filepath.Join(s.inner.Dir(), key+".json")); err == nil {
			n += fi.Size()
		}
	}
	return n
}
