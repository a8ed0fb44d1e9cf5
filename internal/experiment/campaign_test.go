package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
)

// squares is a synthetic campaign — cell i outputs i*i, no simulation —
// whose Run counts its calls and fails wherever fail says so.
func squares(n int, runs *atomic.Int64, fail func(i int) error) Campaign[int] {
	return Campaign[int]{
		Kind: "squares",
		N:    n,
		Key:  func(i int) string { return fmt.Sprintf("cell=%d", i) },
		Run: func(i int) (int, error) {
			runs.Add(1)
			if fail != nil {
				if err := fail(i); err != nil {
					return 0, err
				}
			}
			return i * i, nil
		},
	}
}

// stateAt opens the campaign-test state directory at dir.
func stateAt(t *testing.T, dir string, resume bool) *State {
	t.Helper()
	st, err := OpenState(dir, "campaign-test", resume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestRunCampaignRestoresWithoutRunning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	var runs atomic.Int64
	if _, err := RunCampaign(RunConfig{State: stateAt(t, dir, false)}, squares(5, &runs, nil)); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 5 {
		t.Fatalf("first pass ran %d cells, want 5", runs.Load())
	}

	runs.Store(0)
	cells, err := RunCampaign(RunConfig{State: stateAt(t, dir, true)}, squares(5, &runs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Errorf("resume ran %d cells, want 0", runs.Load())
	}
	for i, c := range cells {
		if !c.Restored || c.Out != i*i || c.Err != nil {
			t.Errorf("cell %d = %+v, want restored output %d", i, c, i*i)
		}
	}
}

func TestRunCampaignReplaysJournaledPanic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	var runs atomic.Int64
	poison := func(i int) error {
		if i == 2 {
			return &PanicError{Value: "boom", Stack: "stack"}
		}
		return nil
	}
	st := stateAt(t, dir, false)
	cells, err := RunCampaign(RunConfig{State: st}, squares(4, &runs, poison))
	if err != nil {
		t.Fatalf("a contained panic aborted the campaign: %v", err)
	}
	var pe *PanicError
	if !errors.As(cells[2].Err, &pe) || cells[3].Out != 9 {
		t.Fatalf("cells = %+v, want a panic at 2 and the rest run", cells)
	}
	if st.completed() != 4 {
		t.Fatalf("journaled %d cells, want 4 (the panic included)", st.completed())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	runs.Store(0)
	cells, err = RunCampaign(RunConfig{State: stateAt(t, dir, true)}, squares(4, &runs, poison))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Errorf("resume ran %d cells, want 0 (the panic replays)", runs.Load())
	}
	if !errors.As(cells[2].Err, &pe) || pe.Value != "boom" || pe.Stack != "stack" || !cells[2].Restored {
		t.Errorf("replayed cell = %+v, want the journaled *PanicError", cells[2])
	}
	if _, err := Outs(cells, nil); !errors.As(err, &pe) || !strings.Contains(err.Error(), "cell=2") {
		t.Errorf("Outs err = %v, want the panic labeled with its key", err)
	}
}

func TestRunCampaignRetriesTimeouts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	var runs atomic.Int64
	st := stateAt(t, dir, false)
	cells, err := RunCampaign(RunConfig{State: st}, squares(3, &runs, func(i int) error {
		if i == 1 {
			return &TimeoutError{Timeout: time.Nanosecond}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var te *TimeoutError
	if !errors.As(cells[1].Err, &te) {
		t.Fatalf("cell 1 err = %v, want *TimeoutError", cells[1].Err)
	}
	if st.completed() != 2 {
		t.Fatalf("journaled %d cells, want 2 (timeouts are not journaled)", st.completed())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	runs.Store(0)
	cells, err = RunCampaign(RunConfig{State: stateAt(t, dir, true)}, squares(3, &runs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || cells[1].Restored || cells[1].Out != 1 {
		t.Errorf("resume ran %d cells, cell 1 = %+v; want only the timed-out cell re-run", runs.Load(), cells[1])
	}
}

func TestRunCampaignCancellationIsJournalClean(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int64
	st := stateAt(t, dir, false)
	_, err := RunCampaign(RunConfig{State: st, Ctx: ctx, Parallelism: 1}, squares(5, &runs, func(i int) error {
		if i == 2 {
			cancel() // interrupted mid-trial, as a signal would
			return ctx.Err()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs.Load() != 3 || st.completed() != 2 {
		t.Fatalf("ran %d and journaled %d cells, want 3 and 2", runs.Load(), st.completed())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	runs.Store(0)
	cells, err := RunCampaign(RunConfig{State: stateAt(t, dir, true)}, squares(5, &runs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 3 || !cells[1].Restored || cells[2].Restored {
		t.Errorf("resume ran %d cells (cell 1 restored %v, cell 2 restored %v), want the 3 unfinished",
			runs.Load(), cells[1].Restored, cells[2].Restored)
	}
}

func TestRunCampaignIndexOrdered(t *testing.T) {
	for _, p := range []int{1, 4} {
		var runs atomic.Int64
		c := squares(12, &runs, nil)
		run := c.Run
		c.Run = func(i int) (int, error) {
			time.Sleep(time.Duration(12-i) * 100 * time.Microsecond) // finish out of order
			return run(i)
		}
		cells, err := RunCampaign(RunConfig{Parallelism: p}, c)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := Outs(cells, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			if out != i*i || cells[i].Key != fmt.Sprintf("cell=%d", i) {
				t.Errorf("parallelism %d: cell %d = %+v, want %d", p, i, cells[i], i*i)
			}
		}
	}
}

func TestRunCampaignLowestIndexErrorWins(t *testing.T) {
	bad := map[int]error{3: errors.New("bad 3"), 6: errors.New("bad 6")}
	var runs atomic.Int64
	_, err := RunCampaign(RunConfig{Parallelism: 4}, squares(8, &runs, func(i int) error {
		if i == 1 {
			return &PanicError{Value: "contained"} // a trial failure never aborts
		}
		return bad[i]
	}))
	if !errors.Is(err, bad[3]) || !strings.Contains(err.Error(), "cell=3") {
		t.Fatalf("err = %v, want index 3's error labeled with its key", err)
	}
}

// Nothing a campaign's trials used outlives it: the engine storage their
// Envs hand on to each other is dropped when RunCampaign returns, on
// success and on an aborting error alike.
func TestRunCampaignDropsEngineStorage(t *testing.T) {
	for _, abort := range []bool{false, true} {
		var runs atomic.Int64
		c := squares(6, &runs, func(i int) error {
			env := des.NewEnv()
			env.After(time.Second, func() {})
			env.Run(2 * time.Second)
			env.Shutdown()
			if abort && i == 5 {
				return errors.New("abort")
			}
			return nil
		})
		if _, err := RunCampaign(RunConfig{Parallelism: 2}, c); (err != nil) != abort {
			t.Fatalf("abort=%v: err = %v", abort, err)
		}
		if n := des.DropStorage(); n != 0 {
			t.Errorf("abort=%v: %d sets of engine storage kept after RunCampaign returned, want 0", abort, n)
		}
	}
}

// A state directory written before the record layout changed — format 1
// before every output moved into the record's data, format 2 before
// Result carried its request buckets — is refused with the format error
// rather than silently re-simulated.
func TestOldFormatStateRefused(t *testing.T) {
	if journalFormat != 3 {
		t.Fatalf("journalFormat = %d: name the formats it refuses here", journalFormat)
	}
	for _, format := range []int{1, 2} {
		dir := filepath.Join(t.TempDir(), "old")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		meta := fmt.Sprintf(`{"format":%d,"fingerprint":"fp"}`, format)
		if err := os.WriteFile(filepath.Join(dir, stateMetaFile), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenState(dir, "fp", true)
		if want := fmt.Sprintf("state format %d, want %d", format, journalFormat); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
}
