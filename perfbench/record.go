package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// recordDigests computes the digest of every output the benchmark checks
// and prints them in the digests.json format. Run it (`perfbench --record
// > perfbench/digests.json`) when a change alters the program's output on
// purpose.
func recordDigests(ctx context.Context, out io.Writer) error {
	d := digests{Drivers: map[string]string{}, MicroSweep: map[string]string{}, Serve: map[string]string{}}
	ds, err := drivers(warmDrivers)
	if err != nil {
		return err
	}
	lab := experiments.NewLab(labConfig())
	for _, drv := range ds {
		res, err := drv.Run(ctx, lab)
		if err != nil {
			return fmt.Errorf("%s: %w", drv.Name, err)
		}
		d.Drivers[drv.Name] = digest([]byte(artifact.Text(res.Artifact())))
	}
	for _, tiny := range []bool{false, true} {
		cfg, size := microSweepConfig(tiny)
		l := experiments.NewLab(cfg)
		def, ok := l.Suite("dotnet-individual")
		if !ok {
			return fmt.Errorf("suite dotnet-individual is not registered")
		}
		ms, err := l.MeasureSuite(ctx, def, machine.CoreI9())
		if err != nil {
			return err
		}
		d.MicroSweep[size] = measurementDigest(ms)
	}
	dmn, err := startDaemon()
	if err != nil {
		return err
	}
	for _, t := range serveTemplates(false) {
		body, _, _, err := dmn.post(ctx, request{tpl: t})
		if err != nil {
			dmn.stop()
			return err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			dmn.stop()
			return fmt.Errorf("%s: %w", t.key(), err)
		}
		d.Serve[t.key()] = digest(compact.Bytes())
	}
	if err := dmn.stop(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
