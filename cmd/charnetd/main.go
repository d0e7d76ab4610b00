// Command charnetd is the measurement-serving daemon: the charnet
// pipeline behind a long-lived HTTP/JSON API (internal/serve), with the
// telemetry plane folded onto the same listener.
//
// Usage:
//
//	charnetd [-addr ADDR] [-full] [-cache DIR] [-workers N]
//	         [-suite-spec FILE]... [-serve-workers N] [-queue N]
//	         [-rate R] [-burst N]
//
// -suite-spec FILE (repeatable) loads a declarative workload-spec JSON
// file (docs/WORKLOADS.md) at daemon start; the suite then appears on
// GET /v1/suites and measures through POST /v1/measure like the
// built-in paper suites.
//
// Endpoints:
//
//	GET  /v1/drivers         list the experiment drivers
//	GET  /v1/drivers/{name}  run one driver; the body is byte-identical
//	                         to `charnet -format json name`
//	GET  /v1/suites          list the registered suites
//	POST /v1/measure         measure a suite: {"suite","machine","workloads"}
//	/metrics /healthz /infoz /debug/vars /debug/pprof/*
//
// Append ?stream=jsonl to a driver or measure request for a JSONL
// progress stream. The bound address is announced on stderr, so
// `-addr :0` works for scripts. SIGINT/SIGTERM drains gracefully:
// the listener stops accepting, admitted work completes, then the
// process exits 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/mstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// multiFlag collects every occurrence of a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	addr := flag.String("addr", "127.0.0.1:8100", "listen address (\":0\" picks a port, announced on stderr)")
	full := flag.Bool("full", false, "full-fidelity measurements (all workloads, more instructions)")
	cacheDir := flag.String("cache", "", "persistent measurement store directory (shared with charnet -cache)")
	workers := flag.Int("workers", 0, "simulation worker pool size per measurement (0 = GOMAXPROCS)")
	serveWorkers := flag.Int("serve-workers", 2, "concurrent request executions")
	queueDepth := flag.Int("queue", 64, "admission queue bound; a full queue sheds with 503")
	rate := flag.Float64("rate", 0, "admission rate limit in requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "rate-limit burst (default: rate rounded up)")
	var suiteSpecs multiFlag
	flag.Var(&suiteSpecs, "suite-spec", "register an external suite from a workload-spec JSON file (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "charnetd: unexpected arguments %q\n", flag.Args())
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
			def, err := reg.RegisterSpecFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "charnetd: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "charnetd: registered suite %q (%d workloads) from %s\n", def.Wire, def.Len(), path)
		}
		lab.Registry = reg
	}
	// A daemon is observable by construction: the trace always exists and
	// backs /metrics, the serve.* instrumentation and the serving clock.
	tr := obs.New()
	lab.Obs = tr
	if *cacheDir != "" {
		store, err := mstore.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charnetd: %v\n", err)
			os.Exit(1)
		}
		store.Obs = tr
		lab.Store = store
	}

	fidelity := "quick"
	if *full {
		fidelity = "full"
	}
	scfg := serve.Config{
		Workers:    *serveWorkers,
		QueueDepth: *queueDepth,
		RatePerSec: *rate,
		Burst:      *burst,
		Info:       telemetry.Info{Role: "daemon", Command: "serve", Fidelity: fidelity, Format: "json", Workers: *workers},
	}

	expvar.Publish("charnetd", expvar.Func(func() any { return tr.Snapshot() }))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runDaemon(ctx, lab, tr, scfg, *addr, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "charnetd: %v\n", err)
		os.Exit(1)
	}
}

// runDaemon binds addr, announces it on log, serves until ctx is
// cancelled, then drains: listener shutdown first so handlers return,
// serve core second so admitted work lands. Every status line goes to
// log.
func runDaemon(ctx context.Context, lab *experiments.Lab, tr *obs.Trace, scfg serve.Config, addr string, log io.Writer) error {
	logf := func(format string, args ...any) {
		//charnet:ignore errdiscard a status line that cannot be written has nowhere else to go
		fmt.Fprintf(log, "charnetd: "+format+"\n", args...)
	}
	s := serve.New(lab, tr, scfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return err
	}
	logf("serving on http://%s", ln.Addr())
	srv := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	<-ctx.Done()
	logf("signal received, draining")

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logf("shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("%v", err)
	}
	s.Close()
	logf("drained")
	return nil
}
