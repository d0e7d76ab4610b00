// Command benchdiff compares the repository benchmark between a base
// revision and the working tree, and records the comparison.
//
// Usage, from anywhere in the checkout:
//
//	go run ./cmd/benchdiff BASE
//
// BASE is any revision git resolves. benchdiff runs the benchmark that
// BENCHMARK.json declares (its command, paths, run_seconds, workloads
// and end-to-end metrics) on a temporary checkout of BASE and on the
// working tree as it is. Each workload runs in 10 pairs, strictly one run
// at a time: even-numbered pairs run the base first, odd-numbered pairs
// the head first, and both runs of a pair get the same seed. It prints a
// table and writes BENCH_<head>-vs-<base>.json at the repository root.
// head is HEAD's short rev, plus "-dirty" when tracked files differ from
// HEAD. Both labels come from git, never from the benchmark's own stamp.
//
// Each workload and end-to-end metric gets one verdict, checked in order:
//
//	worse       the head median is worse than the base median by more
//	            than the metric's bound
//	unresolved  the base IQR exceeds the bound times the base median, and
//	            not every head run beats every base run
//	better      the head wins at least 9 of the 10 pairs, and the medians
//	            differ by more than the base IQR
//	same        otherwise
//
// Quartiles interpolate linearly between order statistics at position
// (n-1)p; a tied pair counts for neither side.
//
// Before any run it refuses, with exit status 2, a BASE without
// BENCHMARK.json, and a BASE whose BENCHMARK.json or benchmark paths
// differ from the working tree's: a comparison needs identical benchmark
// code. It exits 1 when a metric reads worse, a run is incorrect, or the
// head fails a larger share of its operations than the base, and 2 on
// usage or set-up errors. The temporary checkout lives under the system
// temporary directory and is removed on every exit, interrupt included.
package main

import (
	"archive/tar"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// pairs is how many alternating pairs each workload runs; the head reads
// better only when it wins at least minWins of them.
const (
	pairs   = 10
	minWins = 9
)

// benchmark is the part of BENCHMARK.json the comparison uses.
type benchmark struct {
	Command    []string                `json:"command"`
	Paths      []string                `json:"paths"`
	RunSeconds float64                 `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []spec                  `json:"end_to_end"`
}

// spec is one end-to-end metric: which direction is better, and the
// relative change of the median that counts as worse.
type spec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// record is the BENCH_<head>-vs-<base>.json document.
type record struct {
	Base       string     `json:"base"`
	Head       string     `json:"head"`
	Command    []string   `json:"command"`
	RunSeconds float64    `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
}

// workload holds one workload's pairs: the seeds, each side's operation
// tally and one comparison per end-to-end metric.
type workload struct {
	Name    string       `json:"name"`
	Seeds   []uint64     `json:"seeds"`
	Base    tally        `json:"base"`
	Head    tally        `json:"head"`
	Metrics []comparison `json:"metrics"`
}

// tally sums one side's runs of a workload.
type tally struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
}

// comparison is one metric's runs on both sides and its verdict.
type comparison struct {
	spec
	Base     summary `json:"base"`
	Head     summary `json:"head"`
	HeadWins int     `json:"head_wins"`
	Verdict  string  `json:"verdict"`
}

// summary is one side's runs, in pair order, and their quartiles.
type summary struct {
	Runs   []float64 `json:"runs"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// result is what one benchmark run reports on its last stdout line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct{ Value float64 }
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, ".", os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// outf writes best-effort console output.
func outf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...) //charnet:ignore errdiscard console output is best-effort
}

// run compares BASE (the one argument) with the working tree of the
// checkout containing dir, and returns the exit status.
func run(ctx context.Context, dir string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		outf(stderr, "usage: benchdiff BASE\n")
		return 2
	}
	root, err := git(ctx, dir, "rev-parse", "--show-toplevel")
	var rec *record
	if err == nil {
		rec, err = compareRevs(ctx, root, args[0], stderr)
	}
	if err == nil {
		err = rec.write(root)
	}
	if err == nil {
		err = rec.print(stdout)
	}
	if err != nil {
		outf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(rec.problems()) > 0 {
		return 1
	}
	return 0
}

// compareRevs checks that base may be compared with the working tree of
// the checkout at root, then runs every pair.
func compareRevs(ctx context.Context, root, base string, stderr io.Writer) (*record, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bench benchmark
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bench.Command) == 0 {
		return nil, errors.New("BENCHMARK.json declares no command")
	}
	rec := &record{Command: bench.Command, RunSeconds: bench.RunSeconds}
	if rec.Base, err = git(ctx, root, "rev-parse", "--short=7", "--verify", base+"^{commit}"); err != nil {
		return nil, err
	}
	if rec.Head, err = git(ctx, root, "rev-parse", "--short=7", "HEAD"); err != nil {
		return nil, err
	}
	if _, err := git(ctx, root, "diff", "--quiet", "HEAD"); err != nil {
		rec.Head += "-dirty"
	}
	if _, err := git(ctx, root, "cat-file", "-e", rec.Base+":BENCHMARK.json"); err != nil {
		return nil, fmt.Errorf("%s has no BENCHMARK.json to compare against", base)
	}
	if _, err := git(ctx, root, append([]string{"diff", "--quiet", rec.Base, "--", "BENCHMARK.json"}, bench.Paths...)...); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json or %s differ between %s and the working tree; a comparison needs identical benchmark code",
			strings.Join(bench.Paths, ", "), base)
	}

	tmp, err := os.MkdirTemp("", "benchdiff-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if err := extract(ctx, root, rec.Base, tmp); err != nil {
		return nil, err
	}

	seed0 := uint64(crc32.ChecksumIEEE([]byte(rec.Head))) % 1_000_000 * 100
	dirs, sides := [2]string{tmp, root}, [2]string{"base", "head"}
	for _, w := range bench.Workloads {
		wl := workload{Name: w.Name}
		var runs [2][]result
		for i := 0; i < pairs; i++ {
			seed := seed0 + uint64(i)
			wl.Seeds = append(wl.Seeds, seed)
			for _, side := range [2]int{i % 2, 1 - i%2} { // even pairs run the base first
				res, err := runOnce(ctx, &bench, dirs[side], w.Name, seed, stderr)
				if err != nil {
					return nil, fmt.Errorf("%s pair %d, %s run: %w", w.Name, i, sides[side], err)
				}
				runs[side] = append(runs[side], res)
			}
			outf(stderr, "benchdiff: %s pair %d/%d done\n", w.Name, i+1, pairs)
		}
		wl.Base, wl.Head = tallyOf(runs[0]), tallyOf(runs[1])
		for _, sp := range bench.EndToEnd {
			var base, head []float64
			for i := range runs[0] {
				base = append(base, runs[0][i].Metrics[sp.Name].Value)
				head = append(head, runs[1][i].Metrics[sp.Name].Value)
			}
			wl.Metrics = append(wl.Metrics, compare(sp, base, head))
		}
		rec.Workloads = append(rec.Workloads, wl)
	}
	return rec, nil
}

// tallyOf sums one side's runs of a workload.
func tallyOf(runs []result) tally {
	t := tally{Correct: true}
	for _, r := range runs {
		t.Correct = t.Correct && r.Correct
		t.Attempted += r.Attempted
		t.Failed += r.Failed
	}
	return t
}

// git runs a git command in dir and returns its trimmed stdout.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w %s", strings.Join(args, " "), err, bytes.TrimSpace(errb.Bytes()))
	}
	return strings.TrimSpace(string(out)), nil
}

// extract writes rev's tree into dir through git archive. The copy has
// no .git, so nothing in it can resolve to the enclosing repository.
func extract(ctx context.Context, root, rev, dir string) error {
	cmd := exec.CommandContext(ctx, "git", "archive", "--format=tar", rev)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	tr := tar.NewReader(bytes.NewReader(out))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeSymlink:
			err = os.Symlink(h.Linkname, path)
		case tar.TypeReg:
			var body []byte
			if body, err = io.ReadAll(tr); err == nil {
				err = os.WriteFile(path, body, h.FileInfo().Mode().Perm())
			}
		}
		if err != nil {
			return err
		}
	}
}

// runOnce runs the benchmark command once in checkout and returns its
// result, after checking that its stamp echoes what was asked and that
// every end-to-end metric is finite and positive.
func runOnce(ctx context.Context, bench *benchmark, checkout, name string, seed uint64, stderr io.Writer) (result, error) {
	var res result
	seconds := strconv.FormatFloat(bench.RunSeconds, 'f', -1, 64)
	args := append(slices.Clone(bench.Command[1:]),
		"--workload", name, "--seed", strconv.FormatUint(seed, 10), "--seconds", seconds, "--trace", "0")
	cmd := exec.CommandContext(ctx, bench.Command[0], args...)
	cmd.Dir = checkout
	cmd.Stderr = stderr
	// The command may start children (a build, then the benchmark):
	// cancelling kills its whole process group.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) < 2 {
		return res, fmt.Errorf("want a stamp and a result line, got %q", out)
	}
	var st struct {
		Stamp struct {
			Workload string
			Seed     uint64
			Seconds  json.Number
			Trace    bool
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &st); err != nil {
		return res, fmt.Errorf("stamp: %w", err)
	}
	if s := st.Stamp; s.Workload != name || s.Seed != seed || s.Seconds.String() != seconds || s.Trace {
		return res, fmt.Errorf("stamp %s does not match workload %s, seed %d, %s seconds, trace 0", lines[len(lines)-2], name, seed, seconds)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("result: %w", err)
	}
	for _, sp := range bench.EndToEnd {
		v, ok := res.Metrics[sp.Name]
		if !ok || !(v.Value > 0) || math.IsInf(v.Value, 1) {
			return res, fmt.Errorf("result lacks a finite positive %s: %s", sp.Name, lines[len(lines)-1])
		}
	}
	return res, nil
}

// compare summarizes both sides' runs of one metric, counts the pairs
// the head wins and gives the verdict.
func compare(sp spec, base, head []float64) comparison {
	c := comparison{spec: sp, Base: summarize(base), Head: summarize(head)}
	for i := range base {
		if sp.beats(head[i], base[i]) {
			c.HeadWins++
		}
	}
	iqr := c.Base.Q3 - c.Base.Q1
	gain := c.Base.Median - c.Head.Median // how much better the head is
	if sp.Better == "higher" {
		gain = -gain
	}
	switch {
	case -gain > sp.Bound*c.Base.Median:
		c.Verdict = "worse"
	case iqr > sp.Bound*c.Base.Median && !sp.separated(base, head):
		c.Verdict = "unresolved"
	case c.HeadWins >= minWins && gain > iqr:
		c.Verdict = "better"
	default:
		c.Verdict = "same"
	}
	return c
}

// beats reports whether value a is strictly better than b.
func (sp spec) beats(a, b float64) bool {
	if sp.Better == "higher" {
		return a > b
	}
	return a < b
}

// separated reports whether every head run beats every base run.
func (sp spec) separated(base, head []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if !sp.beats(h, b) {
				return false
			}
		}
	}
	return true
}

// summarize keeps runs in pair order and adds their quartiles.
func summarize(runs []float64) summary {
	sorted := slices.Clone(runs)
	slices.Sort(sorted)
	return summary{Runs: runs, Median: quantile(sorted, 0.5), Q1: quantile(sorted, 0.25), Q3: quantile(sorted, 0.75)}
}

// quantile interpolates linearly between the order statistics of sorted
// around position (n-1)p.
func quantile(sorted []float64, p float64) float64 {
	pos := float64(len(sorted)-1) * p
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// problems lists what makes the comparison fail: a metric that reads
// worse, an incorrect run, or a larger failed share on the head.
func (r *record) problems() []string {
	var out []string
	for _, w := range r.Workloads {
		for _, c := range w.Metrics {
			if c.Verdict == "worse" {
				out = append(out, fmt.Sprintf("%s %s reads worse", w.Name, c.Name))
			}
		}
		if !w.Base.Correct || !w.Head.Correct {
			out = append(out, fmt.Sprintf("%s has an incorrect run", w.Name))
		}
		if w.Head.Failed*w.Base.Attempted > w.Base.Failed*w.Head.Attempted {
			out = append(out, fmt.Sprintf("%s head failed %d of %d operations, base %d of %d",
				w.Name, w.Head.Failed, w.Head.Attempted, w.Base.Failed, w.Base.Attempted))
		}
	}
	return out
}

// write stores the record as BENCH_<head>-vs-<base>.json under root.
func (r *record) write(root string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "BENCH_"+r.Head+"-vs-"+r.Base+".json"), append(b, '\n'), 0o644)
}

// print writes the comparison as a table, then any problems.
func (r *record) print(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	outf(tw, "workload\tmetric\tbase %s median (IQR)\thead %s median (IQR)\thead/base\thead wins\tverdict\n", r.Base, r.Head)
	for _, wl := range r.Workloads {
		for _, c := range wl.Metrics {
			outf(tw, "%s\t%s\t%.4g (%.2g)\t%.4g (%.2g)\t%.3f\t%d/%d\t%s\n", wl.Name, c.Name,
				c.Base.Median, c.Base.Q3-c.Base.Q1, c.Head.Median, c.Head.Q3-c.Head.Q1,
				c.Head.Median/c.Base.Median, c.HeadWins, len(c.Base.Runs), c.Verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, p := range r.problems() {
		outf(w, "FAIL: %s\n", p)
	}
	return nil
}
