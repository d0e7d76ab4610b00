package trace

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func sampledRun(t *testing.T) []sim.Sample {
	t.Helper()
	def, _ := workload.Builtin().Lookup("aspnet")
	p, ok := def.Lookup("Json")
	if !ok {
		t.Fatal("Json not found")
	}
	res, err := sim.Run(p, machine.CoreI9(), sim.Options{
		Instructions:   60000,
		Cores:          2,
		SampleInterval: 3000,
		AllocScale:     3000,
		MaxHeapBytes:   200 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Samples
}

func TestExtractShapes(t *testing.T) {
	samples := sampledRun(t)
	if len(samples) < 8 {
		t.Fatalf("only %d samples", len(samples))
	}
	for _, cs := range AllCounterSeries() {
		series := Extract(samples, cs)
		if len(series) != len(samples) {
			t.Fatalf("%s: wrong length", cs)
		}
		for i, v := range series {
			if v < 0 {
				t.Fatalf("%s[%d] = %v negative", cs, i, v)
			}
		}
	}
	jit := ExtractEvents(samples, EventJIT)
	gc := ExtractEvents(samples, EventGC)
	if len(jit) != len(samples) || len(gc) != len(samples) {
		t.Fatal("event series length")
	}
}

func TestStudyProducesBoundedCorrelations(t *testing.T) {
	samples := sampledRun(t)
	cors, err := Study(samples, EventGC, AllCounterSeries())
	if err != nil {
		t.Fatal(err)
	}
	if len(cors) != len(AllCounterSeries()) {
		t.Fatalf("got %d correlations", len(cors))
	}
	for _, c := range cors {
		if c.R < -1 || c.R > 1 {
			t.Fatalf("%s vs %s: r=%v", c.Event, c.Counter, c.R)
		}
	}
}

func TestStudyRequiresSamples(t *testing.T) {
	if _, err := Study(nil, EventJIT, AllCounterSeries()); err == nil {
		t.Fatal("empty samples accepted")
	}
}
