// Command charnet-check validates the three formats charnet and charnetd
// emit. Each format's checker lives in the package that writes it, so a
// format and its contract change together:
//
//	artifact  a JSON artifact array (-format json, the /v1 bodies),
//	          checked by artifact.CheckJSON
//	trace     a Chrome trace (-trace-out), checked by obs.CheckChromeTrace
//	metrics   a Prometheus exposition (/metrics), checked by
//	          telemetry.CheckExposition
//
// Usage:
//
//	charnet-check {artifact|trace|metrics} [-want LIST] [PATH|URL]
//
// Input is PATH, or stdin when no path is given. -want (metrics only) is
// a comma-separated list of family-name prefixes that must each name a
// sample. A metrics argument starting with http:// or https:// is
// scraped until one scrape validates and holds every wanted family, up
// to 200 attempts 25 ms apart: the retries absorb the start-up window
// before a run's first measurements land.
//
// Exit status: 0 valid, 1 invalid, 2 usage or read error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// The metrics URL poll: at most scrapeAttempts scrapes, scrapeInterval
// apart.
const (
	scrapeAttempts = 200
	scrapeInterval = 25 * time.Millisecond
)

// checkers maps each format to its checker, which returns a one-line
// summary of what it read and every violation found.
var checkers = map[string]func(data []byte, wants []string) (summary string, problems []string){
	"artifact": func(data []byte, _ []string) (string, []string) {
		arts, payloads, problems := artifact.CheckJSON(bytes.NewReader(data))
		return fmt.Sprintf("%d artifacts, %d payloads", arts, payloads), problems
	},
	"trace": func(data []byte, _ []string) (string, []string) {
		events, problems := obs.CheckChromeTrace(data)
		return fmt.Sprintf("%d events", events), problems
	},
	"metrics": func(data []byte, wants []string) (string, []string) {
		return "exposition", telemetry.CheckExposition(string(data), wants)
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// outf writes best-effort console output.
func outf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...) //charnet:ignore errdiscard console output is best-effort
}

// run executes one check and returns the process exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	usage := func() int {
		outf(stderr, "usage: charnet-check {artifact|trace|metrics} [-want LIST] [PATH|URL]\n")
		return 2
	}
	if len(args) == 0 {
		return usage()
	}
	kind := args[0]
	check, ok := checkers[kind]
	if !ok {
		return usage()
	}
	fs := flag.NewFlagSet("charnet-check "+kind, flag.ContinueOnError)
	fs.SetOutput(stderr)
	want := fs.String("want", "", "metrics: comma-separated family-name prefixes that must be present")
	if err := fs.Parse(args[1:]); err != nil || fs.NArg() > 1 {
		return usage()
	}
	var wants []string
	if *want != "" {
		if kind != "metrics" {
			return usage()
		}
		wants = strings.Split(*want, ",")
	}

	source := fs.Arg(0)
	if kind == "metrics" && (strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://")) {
		return scrapeLoop(source, wants, scrapeAttempts, scrapeInterval, stdout, stderr)
	}
	var data []byte
	var err error
	if source == "" {
		source = "<stdin>"
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(source)
	}
	if err != nil {
		outf(stderr, "charnet-check: %v\n", err)
		return 2
	}
	summary, problems := check(data, wants)
	return report(stdout, stderr, kind+" "+source, summary, problems)
}

// report prints the outcome of one check and returns its exit status.
func report(stdout, stderr io.Writer, source, summary string, problems []string) int {
	for _, p := range problems {
		outf(stderr, "charnet-check: %s: %s\n", source, p)
	}
	if len(problems) > 0 {
		return 1
	}
	outf(stdout, "charnet-check: %s: %s ok\n", source, summary)
	return 0
}

// scrapeLoop polls a /metrics URL until one scrape is valid and holds
// every wanted family, or attempts run out, and returns the exit status:
// 2 when the last attempt could not be read.
func scrapeLoop(url string, wants []string, attempts int, interval time.Duration, stdout, stderr io.Writer) int {
	source := "metrics " + url
	for attempt := 1; ; attempt++ {
		text, err := scrape(url)
		var problems []string
		if err == nil {
			if problems = telemetry.CheckExposition(text, wants); len(problems) == 0 {
				return report(stdout, stderr, source, fmt.Sprintf("exposition (attempt %d)", attempt), nil)
			}
		}
		if attempt >= attempts {
			if err != nil {
				outf(stderr, "charnet-check: %s: %v\n", source, err)
				return 2
			}
			return report(stdout, stderr, source, "", problems)
		}
		time.Sleep(interval)
	}
}

func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}
