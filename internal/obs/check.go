package obs

import (
	"encoding/json"
	"fmt"
)

// CheckChromeTrace validates a Chrome trace-event document against what
// WriteChromeTrace promises, so a trace is known to load before anyone
// opens it in Perfetto. It checks that:
//
//   - the input is one {"traceEvents":[...]} object holding at least one
//     event;
//   - every event is one of the phases the writer emits: metadata ("M"),
//     complete spans ("X") and counters ("C");
//   - "X" and "C" events carry a timestamp;
//   - "X" events carry a non-empty name and a non-negative duration.
//
// It returns the event count plus every violation found. An empty
// problems slice means the trace is valid.
func CheckChromeTrace(data []byte) (events int, problems []string) {
	// Pointer fields tell an absent ts or dur from a zero one.
	var doc struct {
		TraceEvents []struct {
			Ph   string   `json:"ph"`
			Name string   `json:"name"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, []string{fmt.Sprintf("input is not a trace object: %v", err)}
	}
	if len(doc.TraceEvents) == 0 {
		return 0, []string{"no trace events"}
	}
	for i, ev := range doc.TraceEvents {
		bad := func(msg string) {
			problems = append(problems, fmt.Sprintf("event %d (%s %q): %s", i, ev.Ph, ev.Name, msg))
		}
		switch ev.Ph {
		case "X":
			if ev.Name == "" {
				bad("complete event without name")
			}
			if ev.Dur == nil {
				bad("complete event without dur")
			} else if *ev.Dur < 0 {
				bad("negative dur")
			}
		case "C", "M":
		default:
			bad("unknown phase (want M, X or C)")
			continue
		}
		if ev.Ts == nil && ev.Ph != "M" {
			bad("event without ts")
		}
	}
	return len(doc.TraceEvents), problems
}
