package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mstore"
	"repro/internal/obs"
)

// storeServed are the drivers that read suites only through
// Lab.MeasureSuite, so a warm store serves every measurement they make.
var storeServed = []string{
	"table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5",
	"fig6", "fig7", "fig8", "fig9", "fig10", "crossisa",
}

// TestWarmStoreEqualsCold runs the store-served drivers on a Lab over an
// empty store, then on a new Lab over a new handle on the same directory,
// as a second `charnet -cache DIR` process would. The warm pass must
// render byte-identical text and JSON from measurements rebuilt out of
// the stored entries alone: it simulates nothing and stores nothing.
func TestWarmStoreEqualsCold(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 2000
	cfg.DotNetIndividualLimit = 40
	cfg.CoreSweep = []int{1, 4}
	dir := t.TempDir()

	run := func() (text string, js []byte, tr *obs.Trace) {
		t.Helper()
		store, err := mstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tr = obs.New()
		store.Obs = tr
		lab := NewLab(cfg)
		lab.Obs = tr
		lab.Store = store
		var arts []*artifact.Artifact
		for _, name := range storeServed {
			d, ok := DriverByName(name)
			if !ok {
				t.Fatalf("driver %s is not registered", name)
			}
			res, err := d.Run(context.Background(), lab)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			a := res.Artifact()
			arts = append(arts, a)
			text += artifact.Text(a)
		}
		var b bytes.Buffer
		if err := artifact.WriteJSON(&b, arts); err != nil {
			t.Fatal(err)
		}
		return text, b.Bytes(), tr
	}

	coldText, coldJSON, cold := run()
	if cold.Counter("mstore.puts") == 0 {
		t.Fatal("the cold pass stored nothing")
	}
	warmText, warmJSON, warm := run()
	if warmText != coldText {
		t.Error("warm-store text rendering differs from the cold pass")
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Error("warm-store JSON rendering differs from the cold pass")
	}
	for name, want := range map[string]int64{
		"sim.instructions": 0, "mstore.puts": 0, "mstore.misses": 0, "mstore.corrupt": 0,
		"mstore.hits": cold.Counter("mstore.puts"),
	} {
		if got := warm.Counter(name); got != want {
			t.Errorf("warm pass %s = %d, want %d", name, got, want)
		}
	}
}
