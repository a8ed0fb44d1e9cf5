// TrialObs files: one JSON snapshot per trial, written next to a sweep's
// journals (the -obs directory) and consumed by `ntier report`.

package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// TrialObs is the observability snapshot of one trial: identification,
// the analyzer summary, and the recorded series.
type TrialObs struct {
	Hardware string  `json:"hardware"` // "1/2/1/2"
	Soft     string  `json:"soft"`     // "400-15-6"
	Workload int     `json:"workload"`
	Seed     uint64  `json:"seed"`
	Start    float64 `json:"start"`    // measurement start, simulated seconds
	Interval float64 `json:"interval"` // effective seconds per stored sample

	Summary TrialSummary `json:"summary"`
	Series  []Series     `json:"series"`
}

// Label identifies the trial's configuration group ("1/2/1/2 400-15-6").
func (t *TrialObs) Label() string { return t.Hardware + " " + t.Soft }

// FindSeries returns the named series, or nil.
func (t *TrialObs) FindSeries(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// FileName returns the snapshot's file name within an obs directory,
// derived from the configuration ("obs-1x2x1x2-400-15-6-n6000.json") so a
// re-run of the same trial overwrites its own snapshot.
func (t *TrialObs) FileName() string {
	hw := strings.ReplaceAll(t.Hardware, "/", "x")
	return fmt.Sprintf("obs-%s-%s-n%d.json", hw, t.Soft, t.Workload)
}

// WriteFile stores the snapshot in dir (created if missing), atomically:
// written to a temporary name and renamed into place, so readers never see
// a torn snapshot.
func WriteFile(dir string, t *TrialObs) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, t.FileName())
	tmp, err := os.CreateTemp(dir, "."+t.FileName()+".tmp-")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadDir loads every obs-*.json snapshot in dir, sorted by configuration
// label then workload — the order sweeps ramp in.
func ReadDir(dir string) ([]*TrialObs, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "obs-*.json"))
	if err != nil {
		return nil, err
	}
	var out []*TrialObs
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var t TrialObs
		if err := json.Unmarshal(data, &t); err != nil {
			return nil, fmt.Errorf("obs: %s: %w", path, err)
		}
		out = append(out, &t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label() != out[j].Label() {
			return out[i].Label() < out[j].Label()
		}
		return out[i].Workload < out[j].Workload
	})
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: no obs-*.json snapshots in %s (run a sweep with -obs %s first)", dir, dir)
	}
	return out, nil
}

// Group is one configuration's ramp: every trial sharing a hardware + soft
// allocation, sorted by workload.
type Group struct {
	Label  string
	Trials []*TrialObs
}

// GroupTrials splits snapshots into per-configuration groups (insertion
// order of the sorted input preserved).
func GroupTrials(trials []*TrialObs) []Group {
	var groups []Group
	idx := make(map[string]int)
	for _, t := range trials {
		i, ok := idx[t.Label()]
		if !ok {
			i = len(groups)
			idx[t.Label()] = i
			groups = append(groups, Group{Label: t.Label()})
		}
		groups[i].Trials = append(groups[i].Trials, t)
	}
	return groups
}

// Summaries extracts the group's trial summaries in workload order.
func (g Group) Summaries() []TrialSummary {
	out := make([]TrialSummary, len(g.Trials))
	for i, t := range g.Trials {
		out[i] = t.Summary
	}
	return out
}
