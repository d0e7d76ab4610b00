// Command charnet reproduces the tables and figures of "Performance
// Characterization of .NET Benchmarks" (ISPASS 2021) from the simulated
// substrate and renders them as text, JSON or CSV.
//
// Usage:
//
//	charnet [-full] [-cache DIR] [-workers N] [-format text|json|csv]
//	        [-suite-spec FILE]... [-trace-out FILE] [-events-out FILE]
//	        [-telemetry-out FILE] [-progress] [-telemetry-addr ADDR]
//	        <command>
//
// Suites are data: -suite-spec FILE (repeatable) loads a declarative
// workload-spec JSON file (see docs/WORKLOADS.md) and registers its suite
// beside the built-in paper suites. External suites flow through the
// characterization drivers (table3, table4, fig1, fig2) and the utility
// commands (suites, run, trace, export) with no further flags; the
// built-in suites' output stays byte-identical.
//
// Output format:
//
//	-format text       the paper's figures as monospace plots (default)
//	-format json       typed artifacts: one JSON array of {name, title,
//	                   paper, payloads:[{kind, data}]} objects
//	-format csv        one tidy long-format table covering every payload
//
// Every experiment command (and `all`) honors -format; the structured
// formats also include hidden machine-readable twins of prose-only data.
// `export S` measures suite S on the i9 through the Lab, as the
// experiments do, and renders its metric vectors in -format; its JSON is
// byte-identical to charnetd's POST /v1/measure body for S. The other
// utility commands (metrics, machines, suites, run, trace) are text-only.
//
// Observability flags (all output goes to stderr or files; experiment
// stdout is byte-identical with or without them):
//
//	-workers N           bound the measurement worker pool (0 = GOMAXPROCS)
//	-trace-out FILE      write a Chrome trace-event JSON file (load it at
//	                     https://ui.perfetto.dev or chrome://tracing)
//	-events-out FILE     write the span/counter/gauge/histogram event log
//	                     as JSONL
//	-telemetry-out FILE  write the telemetry run-report artifact as JSON
//	-progress            live driver/suite progress lines on stderr
//	-telemetry-addr ADDR serve the live telemetry plane on ADDR: /metrics
//	                     (Prometheus text format), /healthz, /infoz,
//	                     /debug/vars and /debug/pprof/*. The bound address
//	                     is announced on stderr, so ":0" works.
//
// Any of these (except -workers) also prints the end-of-run text
// self-profile tree on stderr.
//
// The experiment command list (table3, fig1, ... claims) is generated
// from the driver registry in internal/experiments; run charnet with no
// arguments to see it. Interrupting a run (SIGINT/SIGTERM) cancels the
// in-flight measurement promptly and exits non-zero.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/charnet"
	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mstore"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// multiFlag collects every occurrence of a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	full := flag.Bool("full", false, "full-fidelity runs (all workloads, more instructions)")
	cacheDir := flag.String("cache", "", "persistent measurement store directory (reuses identical measurements across runs)")
	workers := flag.Int("workers", 0, "measurement worker pool size (0 = GOMAXPROCS; results are identical for any value)")
	format := flag.String("format", "text", "experiment output format: text, json or csv")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	eventsOut := flag.String("events-out", "", "write the observability event log as JSONL")
	progress := flag.Bool("progress", false, "live per-driver/per-suite progress on stderr")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /healthz, expvar and pprof on this address (\":0\" picks a port, announced on stderr)")
	telemetryOut := flag.String("telemetry-out", "", "write the telemetry run-report artifact as JSON")
	var suiteSpecs multiFlag
	flag.Var(&suiteSpecs, "suite-spec", "register an external suite from a workload-spec JSON file (repeatable)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "charnet: unknown format %q (want text|json|csv)\n", *format)
		os.Exit(2)
	}
	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Workers = *workers
	lab := experiments.NewLab(cfg)
	if len(suiteSpecs) > 0 {
		reg := workload.NewRegistry()
		for _, path := range suiteSpecs {
			if _, err := reg.RegisterSpecFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "charnet: %v\n", err)
				os.Exit(1)
			}
		}
		lab.Registry = reg
	}

	// The trace exists only when some observability output was requested:
	// an untraced run keeps the nil no-op path everywhere.
	var tr *obs.Trace
	if *traceOut != "" || *eventsOut != "" || *telemetryOut != "" || *progress || *telemetryAddr != "" {
		var opts []obs.Option
		if *progress {
			opts = append(opts, obs.WithProgress(os.Stderr))
		}
		tr = obs.New(opts...)
		lab.Obs = tr
	}

	stopTelemetry := func() {}
	if *telemetryAddr != "" {
		fidelity := "quick"
		if *full {
			fidelity = "full"
		}
		info := telemetry.Info{Role: "cli", Command: flag.Arg(0), Fidelity: fidelity, Format: *format, Workers: *workers}
		stop, err := serveTelemetry(*telemetryAddr, tr, info)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charnet: telemetry: %v\n", err)
			os.Exit(1)
		}
		stopTelemetry = stop
	}

	if *cacheDir != "" {
		store, err := mstore.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charnet: %v\n", err)
			os.Exit(1)
		}
		store.Obs = tr
		lab.Store = store
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd := flag.Arg(0)
	derr := dispatch(ctx, lab, cmd, flag.Args()[1:], *format, os.Stdout)
	stopTelemetry()
	if err := writeObsOutputs(ctx, lab, tr, *traceOut, *eventsOut, *telemetryOut); err != nil {
		fmt.Fprintf(os.Stderr, "charnet: %v\n", err)
		if derr == nil {
			os.Exit(1)
		}
	}
	if derr != nil {
		fmt.Fprintf(os.Stderr, "charnet: %v\n", derr)
		os.Exit(1)
	}
}

// serveTelemetry binds the telemetry service plane (internal/telemetry's
// mux) on addr and starts serving. Listening happens synchronously so a
// ":0" address resolves to a real port before the run starts, announced
// on stderr for scrapers to pick up. The returned stop function
// gracefully shuts the server down and joins the serve goroutine.
func serveTelemetry(addr string, tr *obs.Trace, info telemetry.Info) (stop func(), err error) {
	expvar.Publish("charnet", expvar.Func(func() any { return tr.Snapshot() }))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "charnet: telemetry: serving on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: telemetry.NewMux(tr, info)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "charnet: telemetry: shutdown: %v\n", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "charnet: telemetry: %v\n", err)
		}
	}, nil
}

// writeObsOutputs lands the requested trace artifacts and prints the text
// self-profile on stderr. Observability output never touches stdout.
func writeObsOutputs(ctx context.Context, lab *experiments.Lab, tr *obs.Trace, traceOut, eventsOut, telemetryOut string) error {
	if tr == nil {
		return nil
	}
	writeFile := func(path string, write func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			//charnet:ignore errdiscard the write error already reports this path's failure
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		return f.Close()
	}
	if traceOut != "" {
		if err := writeFile(traceOut, tr.WriteChromeTrace); err != nil {
			return err
		}
	}
	if eventsOut != "" {
		if err := writeFile(eventsOut, tr.WriteJSONL); err != nil {
			return err
		}
	}
	if telemetryOut != "" {
		res, err := experiments.Telemetry(ctx, lab)
		if err != nil {
			return err
		}
		if err := writeFile(telemetryOut, func(w io.Writer) error {
			return artifact.WriteJSON(w, []*artifact.Artifact{res.Artifact()})
		}); err != nil {
			return err
		}
	}
	return tr.WriteSelfProfile(os.Stderr)
}

// usage is generated from the driver registry: a driver registered in
// internal/experiments appears here without any cmd/charnet change.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: charnet [-full] [-cache DIR] [-workers N] [-format text|json|csv] [-suite-spec FILE]... [-trace-out FILE] [-events-out FILE] [-telemetry-out FILE] [-progress] [-telemetry-addr ADDR] <command>")
	fmt.Fprintln(os.Stderr, "\n-suite-spec FILE (repeatable) registers an external suite from a")
	fmt.Fprintln(os.Stderr, "workload-spec JSON file (docs/WORKLOADS.md); it then flows through the")
	fmt.Fprintln(os.Stderr, "characterization experiments and the utility commands below.")
	fmt.Fprintln(os.Stderr, "\nutility commands (text-only, except export):")
	fmt.Fprintln(os.Stderr, "  metrics             print the Table I metric catalog")
	fmt.Fprintln(os.Stderr, "  machines            print the Table II machine models")
	fmt.Fprintln(os.Stderr, "  suites              print the registered suites and the Table IV subsets")
	fmt.Fprintln(os.Stderr, "  run [SUITE] NAME    run one workload on the i9 and print its metrics")
	fmt.Fprintln(os.Stderr, "  trace [SUITE] NAME  run the workload with sampling and emit the sample CSV")
	fmt.Fprintln(os.Stderr, "  export S            measure suite S (a wire name from `suites`) and emit its metric vectors in -format")
	fmt.Fprintln(os.Stderr, "SUITE is a wire name from `suites`; a NAME held by more than one suite needs it.")
	fmt.Fprintln(os.Stderr, "\nexperiment commands (honor -format):")
	for _, d := range experiments.Drivers() {
		fmt.Fprintf(os.Stderr, "  %-19s %s\n", d.Name, d.Title)
	}
	fmt.Fprintln(os.Stderr, "  all                 every experiment above, in order")
}

// dispatch routes one command. Experiment commands resolve through the
// driver registry; `all` runs the registry in order. In text format the
// drivers' renderings stream to out as they finish; in json/csv the
// artifacts are collected and written once at the end.
func dispatch(ctx context.Context, lab *experiments.Lab, cmd string, args []string, format string, out io.Writer) error {
	switch cmd {
	case "metrics":
		return inDriverSpan(lab, cmd, func() error { return printMetrics(out) })
	case "machines":
		return inDriverSpan(lab, cmd, func() error { return printMachines(out) })
	case "suites":
		return inDriverSpan(lab, cmd, func() error { return printSuites(lab, out) })
	case "run", "trace":
		p, err := findWorkload(lab, cmd, args)
		if err != nil {
			return err
		}
		if cmd == "run" {
			return inDriverSpan(lab, cmd, func() error { return runOne(lab, p, out) })
		}
		return inDriverSpan(lab, cmd, func() error { return traceOne(lab, p, out) })
	case "export":
		if len(args) < 1 {
			return fmt.Errorf("export requires a suite: one of %v", lab.SuiteNames())
		}
		if len(args) > 1 {
			return fmt.Errorf("export takes one suite; select the output with -format text|json|csv, not %q", args[1:])
		}
		return inDriverSpan(lab, cmd, func() error { return exportSuite(ctx, lab, args[0], format, out) })
	case "all":
		var arts []*artifact.Artifact
		for _, d := range experiments.Drivers() {
			if format == "text" && d.SkipInTextAll {
				continue
			}
			a, err := runDriver(ctx, lab, d)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name, err)
			}
			if format == "text" {
				if _, err := fmt.Fprintln(out, artifact.Text(a)); err != nil {
					return err
				}
			} else {
				arts = append(arts, a)
			}
		}
		return writeArtifacts(out, format, arts)
	}
	d, ok := experiments.DriverByName(cmd)
	if !ok {
		return fmt.Errorf("unknown command %q", cmd)
	}
	a, err := runDriver(ctx, lab, d)
	if err != nil {
		return err
	}
	return writeArtifact(out, format, a)
}

// runDriver executes one registered driver under its trace span.
func runDriver(ctx context.Context, lab *experiments.Lab, d experiments.Driver) (*artifact.Artifact, error) {
	span := lab.Obs.Span("driver", d.Name)
	res, err := d.Run(ctx, lab)
	span.End()
	if err != nil {
		return nil, err
	}
	return res.Artifact(), nil
}

// writeArtifact renders one artifact in format.
func writeArtifact(out io.Writer, format string, a *artifact.Artifact) error {
	if format == "text" {
		_, err := fmt.Fprintln(out, artifact.Text(a))
		return err
	}
	return writeArtifacts(out, format, []*artifact.Artifact{a})
}

// writeArtifacts lands collected artifacts in the structured formats.
// Text mode streams per driver instead and passes nil here.
func writeArtifacts(out io.Writer, format string, arts []*artifact.Artifact) error {
	switch format {
	case "text":
		return nil
	case "json":
		return artifact.WriteJSON(out, arts)
	case "csv":
		return artifact.WriteCSV(out, arts)
	}
	return fmt.Errorf("unknown format %q", format)
}

// inDriverSpan runs one command under a top-level "driver" span, the root
// of the trace's span taxonomy.
func inDriverSpan(lab *experiments.Lab, name string, f func() error) error {
	span := lab.Obs.Span("driver", name)
	defer span.End()
	return f()
}

func printMetrics(out io.Writer) error {
	var rows [][]string
	for _, id := range metrics.All() {
		rows = append(rows, []string{
			fmt.Sprintf("%d", int(id)), id.Category(), id.Name(), id.Unit(),
		})
	}
	_, err := io.WriteString(out, textplot.Table("Table I: characterization metrics",
		[]string{"ID", "category", "metric", "unit"}, rows))
	return err
}

func printMachines(out io.Writer) error {
	var rows [][]string
	for _, m := range machine.All() {
		rows = append(rows, []string{
			m.Name, m.ISA.String(),
			fmt.Sprintf("%d/%d", m.Cores, m.VCPUs),
			fmt.Sprintf("%.1f/%.1f GHz", m.NomFreq, m.MaxFreq),
			fmt.Sprintf("%dKiB/%dKiB/%dKiB/%dMiB",
				m.L1D.SizeBytes/1024, m.L1I.SizeBytes/1024, m.L2.SizeBytes/1024, m.L3.SizeBytes/(1<<20)),
			m.OS,
		})
	}
	_, err := io.WriteString(out, textplot.Table("Table II: hardware configurations",
		[]string{"machine", "ISA", "CPU/vCPU", "freq", "L1d/L1i/L2/L3", "OS"}, rows))
	return err
}

func printSuites(lab *experiments.Lab, out io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "suites:\n")
	for _, def := range lab.Suites() {
		tag := ""
		if !def.Builtin {
			tag = " (external)"
		}
		if def.Measurement.Sampled {
			tag += " (sampled pool)"
		}
		fmt.Fprintf(&b, "  %-18s %-14s %4d workloads%s\n", def.Wire, def.Suite.String(), def.Len(), tag)
	}
	fmt.Fprintf(&b, "paper Table IV subsets:\n")
	fmt.Fprintf(&b, "  .NET:    %v\n", experiments.TableIVDotNetSubset)
	fmt.Fprintf(&b, "  ASP.NET: %v\n", experiments.TableIVAspNetSubset)
	fmt.Fprintf(&b, "  SPEC:    %v\n", experiments.TableIVSpecSubset)
	_, err := io.WriteString(out, b.String())
	return err
}

// findWorkload resolves the `[SUITE] NAME` arguments of run and trace
// through the Lab's registry. With a suite, the name resolves in that
// suite. A bare name must be held by exactly one registered suite: "Json"
// is both a .NET category and an ASP.NET benchmark, and picking one
// silently would run the wrong workload.
func findWorkload(lab *experiments.Lab, cmd string, args []string) (charnet.Profile, error) {
	switch len(args) {
	case 1:
		name := args[0]
		var p charnet.Profile
		var holders []string
		for _, def := range lab.Suites() {
			if q, ok := def.Lookup(name); ok {
				p = q
				holders = append(holders, def.Wire)
			}
		}
		switch len(holders) {
		case 0:
			return p, fmt.Errorf("workload %q not found in any suite", name)
		case 1:
			return p, nil
		}
		return charnet.Profile{}, fmt.Errorf("workload %q is in suites %s: name one, as in %q",
			name, strings.Join(holders, ", "), cmd+" "+holders[0]+" "+name)
	case 2:
		def, ok := lab.Suite(args[0])
		if !ok {
			return charnet.Profile{}, fmt.Errorf("unknown suite %q (want one of %v)", args[0], lab.SuiteNames())
		}
		p, ok := def.Lookup(args[1])
		if !ok {
			return p, fmt.Errorf("suite %q has no workload %q", args[0], args[1])
		}
		return p, nil
	}
	return charnet.Profile{}, fmt.Errorf("%s takes [SUITE] NAME, got %d arguments", cmd, len(args))
}

// traceOne runs a workload with periodic sampling and emits the sample
// time series as CSV (the §VII-A correlation study's raw data).
func traceOne(lab *experiments.Lab, p charnet.Profile, out io.Writer) error {
	res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{
		Instructions:   lab.Cfg.Instructions * 4,
		SampleInterval: lab.Cfg.SampleInterval,
		AllocScale:     3000,
	})
	if err != nil {
		return err
	}
	return writeSamplesCSV(out, res.Samples)
}

// writeSamplesCSV writes one CSV row per sample time bin.
func writeSamplesCSV(out io.Writer, samples []charnet.Sample) error {
	cw := csv.NewWriter(out)
	if err := cw.Write([]string{
		"bin", "instructions", "cycles", "ipc", "branch_misses",
		"l1i_misses", "llc_misses", "page_faults", "jit_starts", "gc_triggered",
	}); err != nil {
		return err
	}
	for i, s := range samples {
		if err := cw.Write([]string{
			strconv.Itoa(i),
			strconv.FormatUint(s.Instructions, 10),
			artifact.FormatFloat(s.Cycles),
			artifact.FormatFloat(s.IPC()),
			strconv.FormatUint(s.BranchMisses, 10),
			strconv.FormatUint(s.L1IMisses, 10),
			strconv.FormatUint(s.LLCMisses, 10),
			strconv.FormatUint(s.PageFaults, 10),
			strconv.FormatUint(s.JITStarts, 10),
			strconv.FormatUint(s.GCTriggered, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// exportSuite measures a suite on the i9 through the Lab and renders its
// measure artifact, the one output a suite measurement has.
func exportSuite(ctx context.Context, lab *experiments.Lab, suiteName, format string, out io.Writer) error {
	def, ok := lab.Suite(suiteName)
	if !ok {
		return fmt.Errorf("unknown suite %q (want one of %v)", suiteName, lab.SuiteNames())
	}
	m := machine.CoreI9()
	ms, err := lab.MeasureSuite(ctx, def, m)
	if err != nil {
		return err
	}
	return writeArtifact(out, format, experiments.MeasureArtifact(suiteName, m, ms))
}

func runOne(lab *experiments.Lab, p charnet.Profile, out io.Writer) error {
	res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{Instructions: lab.Cfg.Instructions * 4})
	if err != nil {
		return err
	}
	vec, err := charnet.Metrics(res)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s (%d cores)\n", p.Name, res.Machine.Name, res.Cores)
	var rows [][]string
	for _, id := range metrics.All() {
		rows = append(rows, []string{id.Name(), fmt.Sprintf("%.4g", vec[id]), id.Unit()})
	}
	b.WriteString(textplot.Table("Table I metrics", []string{"metric", "value", "unit"}, rows))
	fmt.Fprintf(&b, "Top-Down: %s\n", res.Profile)
	_, err = io.WriteString(out, b.String())
	return err
}
