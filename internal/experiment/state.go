// Run-state directories: the on-disk home of crash-safe campaigns. A
// State wraps one atomically-created directory holding a meta.json (the
// command-level fingerprint, so a resumed invocation is refused when its
// flags differ) and one write-ahead journal per sweep. Sweeps ask for
// their journal by kind and per-sweep fingerprint; the first crash-free
// principle is that a journal is only ever matched to the exact
// configuration that wrote it.

package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// stateMetaFile identifies a directory as a run-state directory.
const stateMetaFile = "meta.json"

// stateMeta is the content of meta.json.
type stateMeta struct {
	Format      int    `json:"format"`
	Fingerprint string `json:"fingerprint"`
}

// State manages one run-state directory. It is safe for concurrent use by
// sweep workers.
type State struct {
	dir string

	mu   sync.Mutex
	open map[string]*Journal
}

// OpenState creates or reopens the run-state directory at dir for the
// invocation identified by fingerprint (hash every flag that changes the
// results). A new directory is created atomically — populated and fsynced
// under a temporary name, then renamed into place — so a crash never
// leaves a half-initialized state dir behind. An existing directory must
// carry the same fingerprint and requires resume=true: restarting a
// campaign without asking to resume it is treated as an operator mistake,
// not silently continued.
func OpenState(dir, fingerprint string, resume bool) (*State, error) {
	meta, err := readStateMeta(dir)
	switch {
	case err == nil:
		if meta.Fingerprint != fingerprint {
			return nil, fmt.Errorf("%w: %s", ErrFingerprintMismatch, dir)
		}
		if !resume {
			return nil, fmt.Errorf("experiment: state dir %s already holds a run; pass -resume to continue it or choose a fresh directory", dir)
		}
	case errors.Is(err, os.ErrNotExist):
		if _, serr := os.Stat(dir); serr == nil {
			return nil, fmt.Errorf("experiment: %s exists but is not a run-state directory (no %s)", dir, stateMetaFile)
		}
		if cerr := createStateDir(dir, fingerprint); cerr != nil {
			return nil, cerr
		}
	default:
		return nil, err
	}
	return &State{dir: dir, open: make(map[string]*Journal)}, nil
}

// readStateMeta loads dir's meta.json.
func readStateMeta(dir string) (stateMeta, error) {
	var meta stateMeta
	data, err := os.ReadFile(filepath.Join(dir, stateMetaFile))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("experiment: %s/%s: %w", dir, stateMetaFile, err)
	}
	if meta.Format != journalFormat {
		return meta, fmt.Errorf("experiment: %s: state format %d, want %d", dir, meta.Format, journalFormat)
	}
	return meta, nil
}

// createStateDir builds the directory under a temporary name and renames
// it into place, syncing file and directories so the rename is the commit
// point.
func createStateDir(dir, fingerprint string) error {
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, "."+filepath.Base(dir)+".tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // no-op once the rename succeeds

	data, err := json.Marshal(stateMeta{Format: journalFormat, Fingerprint: fingerprint})
	if err != nil {
		return err
	}
	metaPath := filepath.Join(tmp, stateMetaFile)
	f, err := os.OpenFile(metaPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return syncDir(parent)
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable (ignored where directories cannot be opened for sync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// Dir returns the state directory path.
func (s *State) Dir() string { return s.dir }

// Journal opens (or returns the already-open) journal for one sweep,
// identified by a short kind ("workload", "alloc", "tune") and the sweep's
// fingerprint. Distinct sweeps of one campaign get distinct journal files;
// re-running the same sweep reattaches to its journal.
func (s *State) Journal(kind, fingerprint string) (*Journal, error) {
	name := fmt.Sprintf("%s-%s.journal", kind, fingerprint)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.open[name]; ok {
		return j, nil
	}
	j, err := OpenJournal(filepath.Join(s.dir, name), fingerprint)
	if err != nil {
		return nil, err
	}
	s.open[name] = j
	return j, nil
}

// Completed sums the journaled trial counts across the open journals.
func (s *State) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.open {
		n += j.Len()
	}
	return n
}

// Close flushes and closes every open journal.
func (s *State) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, j := range s.open {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.open, name)
	}
	return first
}

// Fingerprint hashes the trial-determining parts of a configuration plus
// the given sweep axes into a short stable identifier. Execution-only
// knobs (Parallelism, Ctx, TrialTimeout, State, OnTrial, and the
// non-perturbing ObsDir/Obs recorder) and the workload axis (Users) are
// excluded: they change how a campaign runs, not what a trial measures.
func Fingerprint(base RunConfig, extra ...string) string {
	h := sha256.New()
	io.WriteString(h, base.fingerprintBase())
	for _, e := range extra {
		io.WriteString(h, "\x00")
		io.WriteString(h, e)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprintBase renders the outcome-determining configuration as a
// canonical string. Tuning hooks are closures and cannot be hashed; their
// presence is recorded so a tuned run at least never matches an untuned
// journal. All other fields are plain values with deterministic %v
// renderings.
func (c RunConfig) fingerprintBase() string {
	c.applyDefaults()
	o := c.Testbed
	var b strings.Builder
	fmt.Fprintf(&b, "hw=%v soft=%v seed=%d node=%+v lat=%d clink=%g",
		o.Hardware, o.Soft, o.Seed, o.NodeSpec, int64(o.LinkLatency), o.ClientLinkMbps)
	fmt.Fprintf(&b, " tuneA=%t tuneT=%t tuneC=%t", o.TuneApache != nil, o.TuneTomcat != nil, o.TuneCJDBC != nil)
	if o.Resilience != nil {
		fmt.Fprintf(&b, " res=%s", o.Resilience.Fingerprint())
	}
	fmt.Fprintf(&b, " nogc=%t nofin=%t", o.DisableGC, o.DisableFinWait)
	mix := sha256.Sum256([]byte(fmt.Sprintf("%+v", *c.Mix)))
	fmt.Fprintf(&b, " mix=%s think=%d clients=%d ramp=%d measure=%d th=%v",
		hex.EncodeToString(mix[:8]), int64(c.ThinkMean), c.ClientNodes,
		int64(c.RampUp), int64(c.Measure), c.Thresholds)
	fmt.Fprintf(&b, " timeline=%t window=%t traceEvery=%d traceKeep=%d",
		c.Timeline, c.WindowUtil, c.TraceEvery, c.TraceKeep)
	// Open-system fields are appended only when present, so every
	// closed-loop fingerprint (and its journals) predating them is
	// unchanged.
	if c.Arrivals != nil {
		fmt.Fprintf(&b, " arr=%s deadline=%d", c.Arrivals, int64(c.Deadline))
	}
	return b.String()
}
