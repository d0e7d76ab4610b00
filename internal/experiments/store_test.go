package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mstore"
	"repro/internal/obs"
)

// TestWarmStoreEqualsCold runs each registered driver but telemetry
// (whose payloads describe the run itself) on a Lab over an empty store
// of its own, runs it again on that Lab, then runs it on a new Lab over a
// new handle on the same directory, as a second `charnet -cache DIR`
// process would. The cold pass must simulate and store; the repeat must
// simulate nothing; the warm pass must render byte-identical text and
// JSON from measurements rebuilt out of the stored entries alone, with
// every read a hit: it simulates nothing and stores nothing.
func TestWarmStoreEqualsCold(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 2000
	cfg.DotNetIndividualLimit = 40
	cfg.CoreSweep = []int{1, 4}
	cfg.SampleInterval = 500 // Fig 13 needs at least 8 samples per run

	for _, d := range Drivers() {
		if d.Name == "telemetry" {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			dir := t.TempDir()
			newLab := func() *Lab {
				store, err := mstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				lab := NewLab(cfg)
				lab.Obs = obs.New()
				store.Obs = lab.Obs
				lab.Store = store
				return lab
			}
			run := func(lab *Lab) (text string, js []byte) {
				t.Helper()
				res, err := d.Run(context.Background(), lab)
				if err != nil {
					t.Fatal(err)
				}
				a := res.Artifact()
				var b bytes.Buffer
				if err := artifact.WriteJSON(&b, []*artifact.Artifact{a}); err != nil {
					t.Fatal(err)
				}
				return artifact.Text(a), b.Bytes()
			}

			cold := newLab()
			coldText, coldJSON := run(cold)
			simulated := cold.Obs.Counter("sim.instructions")
			if simulated == 0 || cold.Obs.Counter("mstore.puts") == 0 {
				t.Fatalf("the cold pass simulated %d instructions and stored %d entries; want both nonzero",
					simulated, cold.Obs.Counter("mstore.puts"))
			}
			run(cold)
			if got := cold.Obs.Counter("sim.instructions"); got != simulated {
				t.Errorf("a second run on the cold Lab simulated %d more instructions", got-simulated)
			}

			warm := newLab()
			warmText, warmJSON := run(warm)
			if warmText != coldText {
				t.Error("warm-store text rendering differs from the cold pass")
			}
			if !bytes.Equal(warmJSON, coldJSON) {
				t.Error("warm-store JSON rendering differs from the cold pass")
			}
			for name, want := range map[string]int64{
				"sim.instructions": 0, "mstore.puts": 0, "mstore.misses": 0, "mstore.corrupt": 0,
				"mstore.hits": cold.Obs.Counter("mstore.puts"),
			} {
				if got := warm.Obs.Counter(name); got != want {
					t.Errorf("warm pass %s = %d, want %d", name, got, want)
				}
			}
		})
	}
}
