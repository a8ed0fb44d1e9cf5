package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
)

// plantedSweep runs a workload sweep's campaign — WorkloadSweep's journal
// kind, axes, keys and curve — with every trial run through RunDisturbed
// under d(users), and counts the trials it simulated.
func plantedSweep(base RunConfig, users []int, d func(users int) Disturbance, runs *atomic.Int64) (*Curve, []bool, error) {
	cfgs := make([]RunConfig, len(users))
	for i, u := range users {
		cfgs[i] = base
		cfgs[i].Users = u
	}
	cells, err := RunCampaign(base, Campaign[*Result]{
		Kind: "workload",
		Axes: []string{fmt.Sprint(users)},
		N:    len(cfgs),
		Key:  func(i int) string { return trialKey(cfgs[i]) },
		Run: func(i int) (*Result, error) {
			runs.Add(1)
			res, _, err := RunDisturbed(cfgs[i], d(cfgs[i].Users))
			return res, err
		},
	})
	if err != nil {
		return nil, nil, err
	}
	c := &Curve{Label: "planted", Users: users}
	c.Results, c.Errs = resultsOf(cells)
	restored := make([]bool, len(cells))
	for i, cell := range cells {
		restored[i] = cell.Restored
	}
	return c, restored, nil
}

// TestAuditViolationFailsTrial: a trial whose books do not balance at its
// horizon fails deterministically, as a panic does. The disturbance hook
// plants the violation in one trial of a workload sweep: at the horizon it
// lowers the middleware's upstream connection count below the connections
// checked out, which the testbed's any-instant audit must flag. The sweep
// shows that trial as an error row, the failure is journaled, and a resumed
// sweep restores it without simulating anything.
func TestAuditViolationFailsTrial(t *testing.T) {
	const planted = 3000
	users := []int{300, planted}
	base := fastSweepConfig(1)
	horizon := base.RampUp + base.Measure
	var tripped atomic.Bool
	d := func(u int) Disturbance {
		if u != planted {
			return Disturbance{}
		}
		return Disturbance{Arm: func(tb *testbed.Testbed) error {
			tb.Env.At(horizon, func() {
				c := tb.CJDBCs[0]
				tripped.Store(c.Busy() >= 2)
				c.SetUpstreamConns(c.Busy() - 1)
			})
			return nil
		}}
	}

	dir := filepath.Join(t.TempDir(), "run")
	const fp = "audit-violation"
	sweep := func(resume bool) (*Curve, []bool, int64, []byte) {
		t.Helper()
		st, err := OpenState(dir, fp, resume)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg := base
		cfg.State = st
		var runs atomic.Int64
		c, restored, err := plantedSweep(cfg, users, d, &runs)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := c.WriteCSV(&csv, sla.StandardThresholds); err != nil {
			t.Fatal(err)
		}
		return c, restored, runs.Load(), csv.Bytes()
	}

	c, _, runs, csv1 := sweep(false)
	if !tripped.Load() {
		t.Fatal("fewer than two connections checked out at the horizon: the plant is vacuous")
	}
	if runs != 2 || c.Errs[0] != nil || c.Results[0] == nil {
		t.Fatalf("%d trials ran; clean trial err = %v", runs, c.Errs[0])
	}
	var pe *PanicError
	var ae *AuditError
	if !errors.As(c.Errs[1], &pe) || !IsTrialFailure(c.Errs[1]) || c.Results[1] != nil {
		t.Fatalf("planted trial: err = %v, want a contained *PanicError and no result", c.Errs[1])
	}
	if ae, _ = pe.Value.(*AuditError); ae == nil || !strings.Contains(ae.Error(), "upstream") {
		t.Fatalf("planted trial's panic value = %v, want an *AuditError naming the upstream connections", pe.Value)
	}
	rows := strings.Split(strings.TrimSpace(string(csv1)), "\n")
	if len(rows) != 3 || !strings.HasPrefix(rows[2], fmt.Sprint(planted)+",") || !strings.Contains(rows[2], "audit at the horizon") {
		t.Fatalf("planted trial's CSV row is not an error row:\n%s", csv1)
	}

	c, restored, runs, csv2 := sweep(true)
	if runs != 0 || !restored[0] || !restored[1] {
		t.Fatalf("resumed sweep simulated %d trials (restored %v), want 0 and every trial restored", runs, restored)
	}
	if !errors.As(c.Errs[1], &pe) || pe.Value != fmt.Sprint(ae) {
		t.Fatalf("resumed planted trial: err = %v, want the journaled audit failure", c.Errs[1])
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("resumed sweep CSV differs:\n%s\nvs\n%s", csv1, csv2)
	}
}
