// Command perfbench is the repository's benchmark. It drives the charnet
// pipeline only through public functions on one named workload, checks
// every operation's output outside the timed region, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run alternates traced and untraced operations and reports the per-layer
// metrics, including the tracing overhead. The end-to-end timings are
// scaled to a reference host speed (calib.go). A stamp line (rev, Go
// version, nproc, GOMAXPROCS, reference time and scale) precedes the
// result. Run it from the repository root
// through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload cold-table4 --seed 1 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// procs is the parallelism the load is sized for: a 2-core host running
// the Lab's 2 pool workers, charnetd's 2 serve workers and 2 clients.
const procs = 2

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; scratch space goes under .bench_build
	tiny     bool   // smoke-test size, used by the tests
}

func main() {
	opt, record, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	ctx := context.Background()
	if record {
		err = recordDigests(ctx, os.Stdout)
	} else {
		err = run(ctx, opt, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed of the serve-mix request order and the primitive streams")
	fs.Float64Var(&opt.seconds, "seconds", 20, "seconds of operations to measure")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	fs.StringVar(&opt.root, "root", ".", "repository checkout to run in")
	record := fs.Bool("record", false, "print the digests of every checked output as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return opt, false, err
	}
	if fs.NArg() != 0 {
		return opt, false, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return opt, false, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	opt.trace = *trace == 1
	if opt.seconds < 0 {
		return opt, false, fmt.Errorf("--seconds must not be negative")
	}
	if _, ok := workloadByName(opt.workload); !ok && !*record {
		return opt, false, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	return opt, *record, nil
}

// run executes one workload and prints the stamp and result lines.
func run(ctx context.Context, opt options, out io.Writer) error {
	w, ok := workloadByName(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	env, err := newEnv(opt)
	if err != nil {
		return err
	}
	defer env.close()
	r := newRunner(env, opt)
	if err := w.run(ctx, r); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]stamp{"stamp": newStamp(opt, r)}); err != nil {
		return err
	}
	return enc.Encode(r.result())
}

// stamp identifies the build and host a result was measured on.
type stamp struct {
	Rev        string  `json:"rev"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	RefMS      float64 `json:"ref_ms"`     // median reference kernel time
	HostScale  float64 `json:"host_scale"` // what the end-to-end timings were multiplied by
}

func newStamp(opt options, r *runner) stamp {
	return stamp{
		Rev:        buildRev(),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
		RefMS:      ms(median(r.refs)),
		HostScale:  r.hostScale(),
	}
}

// buildRev is the VCS revision the binary was built from, or "unknown"
// when the source tree was not a repository.
func buildRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
