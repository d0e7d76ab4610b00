package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mstore"
	"repro/internal/workload"
)

// A workloadDef is one input set of the benchmark; run drives it through the
// runner for the run's budget.
type workloadDef struct {
	name string
	run  func(ctx context.Context, r *runner) error
}

var workloads = []workloadDef{
	{"cold-table4", runColdTable4},
	{"micro-sweep", runMicroSweep},
	{"warm-store", runWarmStore},
	{"serve-mix", runServeMix},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// labConfig is the CLI's default Quick fidelity with the measurement pool
// pinned to procs workers.
func labConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Workers = procs
	return cfg
}

// tinySweep is the micro-sweep's catalog sample at smoke-test size.
const tinySweep = 64

// microSweepConfig is the micro-sweep Lab's configuration: the whole
// dotnet-individual catalog, or a stride sample of it at tiny size.
func microSweepConfig(tiny bool) (experiments.Config, string) {
	cfg := labConfig()
	if tiny {
		cfg.DotNetIndividualLimit = tinySweep
		return cfg, "tiny"
	}
	cfg.DotNetIndividualLimit = 0
	return cfg, "full"
}

func drivers(names []string) ([]experiments.Driver, error) {
	ds := make([]experiments.Driver, len(names))
	for i, name := range names {
		d, ok := experiments.DriverByName(name)
		if !ok {
			return nil, fmt.Errorf("driver %q is not registered", name)
		}
		ds[i] = d
	}
	return ds, nil
}

// runColdTable4 regenerates Table IV from nothing, as a first
// `charnet -cache DIR -format json table4` does: each operation gets a
// fresh Lab over a fresh empty store.
func runColdTable4(ctx context.Context, r *runner) error {
	ds, err := drivers([]string{"table4"})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(r.budget)
	for i := 0; r.more(i, deadline); i++ {
		traced := r.traced(i)
		dir := filepath.Join(r.env.work, fmt.Sprintf("store-%d", i))
		var lab *experiments.Lab
		var p *probe
		reps := 1
		if i == 0 {
			reps = r.reps(setupReps)
		}
		for k := 0; k < reps; k++ {
			if err := r.setup(func() error {
				if err := r.env.buildRegistry(); err != nil {
					return err
				}
				store, err := mstore.Open(dir)
				if err != nil {
					return err
				}
				lab = experiments.NewLab(labConfig())
				lab.Store = store
				if traced {
					p = newProbe()
					p.attach(lab, store)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		var arts []*artifact.Artifact
		st := r.op(traced, func() error {
			prod, err := p.runDriver(ctx, ds[0], lab)
			if err != nil {
				return err
			}
			arts, err = p.renderJSON([]artifact.Producer{prod})
			return err
		}, func() error { return checkTexts(r.env.digests, p, arts) })
		if traced {
			r.layer.add(p, st)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// runMicroSweep measures the whole dotnet-individual catalog (2906
// workloads at about 3000 instructions each) on a fresh Lab without a
// store, so per-workload set-up and pool dispatch dominate.
func runMicroSweep(ctx context.Context, r *runner) error {
	cfg, size := microSweepConfig(r.tiny)
	deadline := time.Now().Add(r.budget)
	for i := 0; r.more(i, deadline); i++ {
		traced := r.traced(i)
		var lab *experiments.Lab
		var def *workload.SuiteDef
		var p *probe
		reps := 1
		if i == 0 {
			reps = r.reps(setupReps)
		}
		for k := 0; k < reps; k++ {
			if err := r.setup(func() error {
				if err := r.env.buildRegistry(); err != nil {
					return err
				}
				lab = experiments.NewLab(cfg)
				var ok bool
				if def, ok = lab.Suite("dotnet-individual"); !ok {
					return fmt.Errorf("suite dotnet-individual is not registered")
				}
				if traced {
					p = newProbe()
					p.attach(lab, nil)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		var ms []core.Measurement
		st := r.op(traced, func() error {
			var err error
			ms, err = lab.MeasureSuite(ctx, def, machine.CoreI9())
			return err
		}, func() error {
			return check("micro-sweep", r.env.digests.MicroSweep, size, measurementDigest(ms))
		})
		if traced {
			p.measured(ms)
			r.layer.add(p, st)
		}
	}
	return nil
}

// warmEpochs is how many stores a warm-store run populates: each epoch
// times one population as a set-up, then runs operations over it.
const warmEpochs = 5

// runWarmStore regenerates the 13 store-served drivers over a warm store:
// each operation builds a fresh Lab over the store, runs every driver and
// renders their artifacts to JSON. No simulation runs.
func runWarmStore(ctx context.Context, r *runner) error {
	ds, err := drivers(warmDrivers)
	if err != nil {
		return err
	}
	epochs := warmEpochs
	if r.tiny {
		epochs = 1
	}
	i := 0
	for e := 0; e < epochs; e++ {
		dir := filepath.Join(r.env.work, fmt.Sprintf("store-%d", e))
		var store *mstore.Store
		if err := r.setup(func() error {
			if err := r.env.buildRegistry(); err != nil {
				return err
			}
			var err error
			if store, err = mstore.Open(dir); err != nil {
				return err
			}
			lab := experiments.NewLab(labConfig())
			lab.Store = store
			for _, d := range ds {
				if _, err := d.Run(ctx, lab); err != nil {
					return fmt.Errorf("populating the store with %s: %w", d.Name, err)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		deadline := time.Now().Add(r.budget / warmEpochs)
		for j := 0; r.more(j, deadline); j, i = j+1, i+1 {
			traced := r.traced(i)
			var p *probe
			if traced {
				p = newProbe()
			}
			var arts []*artifact.Artifact
			st := r.op(traced, func() error {
				lab := experiments.NewLab(labConfig())
				lab.Store = store
				p.attach(lab, store)
				prods := make([]artifact.Producer, 0, len(ds))
				for _, d := range ds {
					prod, err := p.runDriver(ctx, d, lab)
					if err != nil {
						return err
					}
					prods = append(prods, prod)
				}
				var err error
				arts, err = p.renderJSON(prods)
				return err
			}, func() error { return checkTexts(r.env.digests, p, arts) })
			store.Obs = nil
			if traced {
				r.layer.add(p, st)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}
