package obs

import (
	"strings"
	"testing"
)

func TestCheckChromeTraceValid(t *testing.T) {
	events, problems := CheckChromeTrace([]byte(`{"displayTimeUnit":"ms","traceEvents":[
		{"ph":"M","pid":1,"tid":0,"name":"process_name"},
		{"ph":"X","pid":1,"tid":0,"name":"driver","ts":0,"dur":12.5},
		{"ph":"C","pid":1,"tid":0,"name":"hits","ts":12.5}
	]}`))
	if len(problems) != 0 {
		t.Fatalf("valid trace reported problems: %v", problems)
	}
	if events != 3 {
		t.Fatalf("counted %d events, want 3", events)
	}
}

func TestCheckChromeTraceProblems(t *testing.T) {
	for name, tc := range map[string]struct {
		body string
		want string
	}{
		"notJSON":        {`{not json`, "not a trace object"},
		"arrayForm":      {`[{"ph":"X","name":"a","ts":1,"dur":1}]`, "not a trace object"},
		"empty":          {`{"traceEvents":[]}`, "no trace events"},
		"missingTs":      {`{"traceEvents":[{"ph":"X","name":"a","dur":1}]}`, "without ts"},
		"counterNoTs":    {`{"traceEvents":[{"ph":"C","name":"a"}]}`, "without ts"},
		"missingName":    {`{"traceEvents":[{"ph":"X","ts":1,"dur":1}]}`, "without name"},
		"missingDur":     {`{"traceEvents":[{"ph":"X","name":"a","ts":1}]}`, "without dur"},
		"negativeDur":    {`{"traceEvents":[{"ph":"X","name":"a","ts":1,"dur":-2}]}`, "negative dur"},
		"unknownPhase":   {`{"traceEvents":[{"ph":"Q","name":"a"}]}`, "unknown phase"},
		"unwrittenPhase": {`{"traceEvents":[{"ph":"B","name":"a","ts":1}]}`, "unknown phase"},
	} {
		t.Run(name, func(t *testing.T) {
			_, problems := CheckChromeTrace([]byte(tc.body))
			if !strings.Contains(strings.Join(problems, "\n"), tc.want) {
				t.Fatalf("problems %v do not mention %q", problems, tc.want)
			}
		})
	}
}
