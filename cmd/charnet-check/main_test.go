package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

const (
	validArtifact = `[{"name":"a","title":"t","payloads":[{"kind":"note","data":{"name":"n","lines":["x"]}}]}]`
	validTrace    = `{"traceEvents":[{"ph":"X","name":"driver","ts":0,"dur":1}]}`
	validMetrics  = "# TYPE charnet_hits_total counter\ncharnet_hits_total 1\n"
)

// check runs the command with stdin and returns its exit status and
// stderr.
func check(t *testing.T, stdin string, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	if code == 0 && !strings.Contains(stdout.String(), " ok") {
		t.Errorf("%v: exit 0 without an ok line: %q", args, stdout.String())
	}
	return code, stderr.String()
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"spec"},
		{"trace", "-want", "x"},
		{"artifact", "a.json", "b.json"},
		{"metrics", "-retries", "3"},
	} {
		if code, _ := check(t, "", args...); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
	if code, stderr := check(t, "", "trace", filepath.Join(t.TempDir(), "missing.json")); code != 2 || !strings.Contains(stderr, "missing.json") {
		t.Errorf("missing file: exit %d (%q), want 2 naming the file", code, stderr)
	}
}

func TestFormats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(validTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		stdin string
		args  []string
		want  int
	}{
		{validArtifact, []string{"artifact"}, 0},
		{`[]`, []string{"artifact"}, 1},
		{"", []string{"trace", path}, 0},
		{validTrace, []string{"trace"}, 0},
		{`[` + validTrace + `]`, []string{"trace"}, 1},
		{validMetrics, []string{"metrics", "-want", "charnet_hits"}, 0},
		{validMetrics, []string{"metrics", "-want", "charnet_hits,charnet_misses"}, 1},
		{"untyped 1\n", []string{"metrics"}, 1},
	} {
		if code, stderr := check(t, tc.stdin, tc.args...); code != tc.want {
			t.Errorf("%q on %.40q: exit %d, want %d (%s)", tc.args, tc.stdin, code, tc.want, stderr)
		}
	}
}

// TestScrape: a metrics URL is polled through failed and invalid scrapes
// until one validates with every wanted family; when attempts run out
// the status says whether the endpoint answered.
func TestScrape(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			http.Error(w, "starting", http.StatusServiceUnavailable)
		case 2:
			io.WriteString(w, "# TYPE charnet_other_total counter\ncharnet_other_total 1\n")
		default:
			io.WriteString(w, validMetrics)
		}
	}))
	defer srv.Close()
	var stdout strings.Builder
	if code := run([]string{"metrics", "-want", "charnet_hits", srv.URL}, nil, &stdout, io.Discard); code != 0 {
		t.Fatalf("scrape: exit %d, want 0", code)
	}
	if !strings.Contains(stdout.String(), "attempt 3") {
		t.Errorf("scrape succeeded at %q, want attempt 3", stdout.String())
	}

	if code := scrapeLoop(srv.URL, []string{"charnet_misses"}, 2, 0, io.Discard, io.Discard); code != 1 {
		t.Errorf("family never present: exit %d, want 1", code)
	}
	srv.Close()
	if code := scrapeLoop(srv.URL, nil, 2, 0, io.Discard, io.Discard); code != 2 {
		t.Errorf("endpoint gone: exit %d, want 2", code)
	}
}
