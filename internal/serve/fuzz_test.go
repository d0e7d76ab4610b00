package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// FuzzMeasureRequest fuzzes the POST /v1/measure request boundary,
// decodeMeasure: whatever the body, decoding does not panic, a rejection
// is a 400 or 413 statusError, and an accepted request names a
// registered suite, a Table II machine and only workloads of the suite's
// catalog.
func FuzzMeasureRequest(f *testing.F) {
	tr := obs.New()
	s := New(quickLab(tr), tr, Config{})
	f.Cleanup(s.Close)
	for _, body := range []string{
		`{"suite":"aspnet"}`,
		`{"suite":"dotnet"}`,
		`{"suite":"aspnet","workloads":["Websocket"]}`,
		`{"suite":"spec","machine":"` + machine.Arm().Name + `"}`,
		`{"suite":"aspnet","workloads":["Plaintext","NoSuchA","NoSuchB"]}`,
		`{"suite":"aspnet","workloads":["no-such-workload"]}`,
		`{"suite":"nope"}`,
		`{"suite":"aspnet","machine":"ENIAC"}`,
		`{"suite":"aspnet","bogus":1}`,
		`not json`,
		`{"suite":"aspnet"` + strings.Repeat(" ", int(s.maxMeasureBody)) + `}`,
	} {
		f.Add([]byte(body))
	}
	machines := map[string]bool{}
	for _, m := range machine.All() {
		machines[m.Name] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		call, err := s.decodeMeasure(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			var se *statusError
			if !errors.As(err, &se) {
				t.Fatalf("rejection %v (%T) is not a statusError", err, err)
			}
			if se.status != http.StatusBadRequest && se.status != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejection status %d, want 400 or 413: %v", se.status, err)
			}
			return
		}
		if def, ok := s.lab.Suite(call.def.Wire); !ok || def != call.def {
			t.Fatalf("accepted suite %q is not the registered suite", call.def.Wire)
		}
		if call.m == nil || !machines[call.m.Name] {
			t.Fatalf("accepted machine %v is not a Table II machine", call.m)
		}
		for _, n := range call.workloads {
			if _, ok := call.def.Lookup(n); !ok {
				t.Fatalf("accepted workload %q is not in suite %q", n, call.def.Wire)
			}
		}
	})
}
