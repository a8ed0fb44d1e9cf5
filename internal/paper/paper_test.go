package paper

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
)

var updatePins = flag.Bool("update-pins", false, "log fresh figure digests instead of checking them")

// tinyConfig is the test horizon: a 1 s ramp and a 1 s measure at seed 1,
// with serial trials, which cost the fewest CPU-seconds (the text is the
// same at any parallelism).
func tinyConfig() experiment.RunConfig {
	cfg := Horizon{time.Second, time.Second, 1}.Config()
	cfg.Parallelism = 1
	return cfg
}

// fullGrid caches each entry's full-grid run at the tiny horizon, shared by
// the digest pins and the reading check.
var fullGrid = map[string]*Data{}

func runFullGrid(t *testing.T, e *Entry) *Data {
	t.Helper()
	if d := fullGrid[e.Name]; d != nil {
		return d
	}
	d, err := e.run(tinyConfig(), &Reading{})
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	fullGrid[e.Name] = d
	return d
}

// TestFigureDigestPins renders every entry at the tiny horizon and pins a
// digest of its `ntier figures` text, so a change to the table or the
// renderers keeps every row. After an intentional change, regenerate with
//
//	go test ./internal/paper -run FigureDigestPins -update-pins -v
//
// and name every changed pin in CHANGES.md.
func TestFigureDigestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure, two Algorithm 1 tunes included")
	}
	pins := map[string]string{
		"ablation": "703ed4c43e51b93f4de65ce6",
		"fig10":    "1b4220101ac7f5070f207f8a",
		"fig2":     "6993fb825b663417bb159176",
		"fig3":     "e46cd92fa8d891a661a6af2d",
		"fig4":     "b70c5c7953e521f21d6d2966",
		"fig5":     "a1d0bd5943bc7cc998d5f742",
		"fig6":     "6e2625e4c63f59dcff42f40c",
		"fig7":     "7e8c7a7e97f69e3d140174f9",
		"fig8":     "e1d057f2044bd2ff8ba94f96",
		"table1":   "bb85683ff6e3d0309cb683ab",
	}
	for _, e := range Table {
		text, err := e.Render(runFullGrid(t, e))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		sum := sha256.Sum256([]byte(text))
		got := fmt.Sprintf("%x", sum[:12])
		if *updatePins {
			t.Logf("pin %q: %q,", e.Name, got)
		} else if got != pins[e.Name] {
			t.Errorf("%s: digest %s, pinned %s", e.Name, got, pins[e.Name])
		}
	}
}

// TestTableInvariants checks the table's declarations without running a
// trial: one entry per results/<name>.txt, each reading's workloads and
// sizes on its series' grids, and unique reading and number names.
func TestTableInvariants(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want, names []string
	for _, f := range files {
		want = append(want, strings.TrimSuffix(filepath.Base(f), ".txt"))
	}
	readings := map[string]bool{}
	for _, e := range Table {
		names = append(names, e.Name)
		for s, sr := range e.Series {
			if _, err := sr.config(tinyConfig()); err != nil {
				t.Errorf("%s series %d: %v", e.Name, s, err)
			}
			if !slices.IsSorted(sr.Users) || len(slices.Compact(slices.Clone(sr.Users))) != len(sr.Users) {
				t.Errorf("%s series %d: grid %v is not strictly ascending", e.Name, s, sr.Users)
			}
		}
		numbers := map[string]bool{}
		for _, r := range e.Readings {
			if readings[r.Name] {
				t.Errorf("%s: reading %s declared twice", e.Name, r.Name)
			}
			readings[r.Name] = true
			series := r.Series
			if series == nil {
				for s := range e.Series {
					series = append(series, s)
				}
			}
			for _, s := range series {
				if s < 0 || s >= len(e.Series) {
					t.Errorf("%s/%s: no series %d", e.Name, r.Name, s)
					continue
				}
				sr := e.Series[s]
				for _, u := range r.Users {
					if !slices.Contains(sr.Users, u) {
						t.Errorf("%s/%s: workload %d is off series %d's grid %v", e.Name, r.Name, u, s, sr.Users)
					}
				}
				if r.Sizes != nil && sr.Vary == nil {
					t.Errorf("%s/%s: sizes on series %d, which varies no pool", e.Name, r.Name, s)
				}
				for _, n := range r.Sizes {
					if !slices.Contains(sr.Sizes, n) {
						t.Errorf("%s/%s: size %d is off series %d's sizes %v", e.Name, r.Name, n, s, sr.Sizes)
					}
				}
			}
			for _, n := range r.Numbers {
				if numbers[n.Name] {
					t.Errorf("%s: number %s declared twice", e.Name, n.Name)
				}
				numbers[n.Name] = true
			}
		}
	}
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	if !slices.Equal(sorted, want) {
		t.Errorf("entry names %v, want one per results file %v", names, want)
	}
}

// TestReadingsMatchFullGrid checks that a number reads declared workloads
// only: for the ablation entry, every number of every reading is the same
// from a reading-only run as from the full-grid run at the same horizon.
func TestReadingsMatchFullGrid(t *testing.T) {
	e := Table[slices.IndexFunc(Table, func(e *Entry) bool { return e.Name == "ablation" })]
	full := runFullGrid(t, e)
	for _, r := range e.Readings {
		_, alone, err := Read(tinyConfig(), r.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range r.Numbers {
			if a, b := n.Of(full), n.Of(alone); a != b {
				t.Errorf("%s %s: full grid %v, reading alone %v", r.Name, n.Name, a, b)
			}
		}
	}
}
