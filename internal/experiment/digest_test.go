package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/pins.txt instead of checking it")

// pinsFile holds a "pin field digest" line per top-level field of each pin.
const pinsFile = "testdata/pins.txt"

// pins are the campaign outputs pinned at full precision, each by its
// whole image (see image): the trials the bottleneck analyzer decides, the
// windowed trials, the fleet trials, and the bytes of the timeline CSV
// writers. The shared trials are the ones other tests read too.
var pins = []struct {
	name  string
	value func(t *testing.T) (any, error)
}{
	{"elastic-topjob-day", func(t *testing.T) (any, error) { return pinElasticDay(t), nil }},
	// The noisy-neighbor consolidation under PACKED, with the far victim
	// starved of pools so the three tenants cover a soft verdict and two
	// hardware ones.
	{"fleet-packed-3", func(*testing.T) (any, error) {
		cfg := consolidationConfig(3000)
		cfg.Fleet.Tenants[0].Soft = testbed.SoftAlloc{WebThreads: 10, AppThreads: 1, AppConns: 1}
		cfg.Fleet.Tenants[0].Users = 800
		return RunFleet(cfg, fleet.PlacementPacked, 3, 1)
	}},
	{"scenario-brownout-cjdbc", namedScenario("brownout-cjdbc")},
	{"scenario-crash-tomcat", namedScenario("crash-tomcat")},
	{"scenario-leak-conns", namedScenario("leak-conns")},
	{"scenario-netspike", namedScenario("netspike")},
	{"scenario-retry-storm", namedScenario("retry-storm")},
	// A brown-out under the TOP_JOB controller, whose 5s period puts its
	// ticks on the fault's apply and revert instants: the tie whose push
	// order the runner must keep.
	{"scenario-elastic-brownout", func(*testing.T) (any, error) {
		base := pinScenarioBase()
		base.Testbed.Soft = testbed.SoftAlloc{WebThreads: 200, AppThreads: 4, AppConns: 4}
		base.Users = 900
		base.Measure = 60 * time.Second
		base.Testbed.Resilience = defaultScenarioResilience()
		return RunScenario(ScenarioConfig{
			Run:     base,
			Elastic: &adaptive.ElasticConfig{Policy: adaptive.PolicyTopJob, Interval: 5 * time.Second},
			Plan: fault.Plan{Events: []fault.Event{
				fault.Brownout("tomcat2", 20*time.Second, 40*time.Second, 0.4),
			}},
		})
	}},
	{"scenario-overload-shed", func(t *testing.T) (any, error) { return pinShedScenario(t), nil }},
	{"flash-crowd", func(t *testing.T) (any, error) { return pinFlashCrowd(t), nil }},
	{"elastic-obs-snapshot", func(t *testing.T) (any, error) { return elasticObsSnapshot(t), nil }},
	// A GREEDY fleet of two closed tenants and one Poisson-driven tenant.
	{"fleet-open-tenant", func(*testing.T) (any, error) {
		cfg := smallFleet()
		cfg.Fleet.Tenants = append(cfg.Fleet.Tenants, fleet.TenantSpec{Name: "o",
			Hardware: testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1},
			Soft:     testbed.SoftAlloc{WebThreads: 50, AppThreads: 5, AppConns: 3},
			Arrivals: trace.Poisson(120)})
		return RunFleet(cfg, fleet.PlacementGreedy, 3, 1.5)
	}},
	{"fleet-interference", func(*testing.T) (any, error) {
		cfg := smallFleet()
		cfg.Fleet.Nodes = 4
		return FleetInterference(cfg, fleet.PlacementPacked, 3)
	}},
	// A SPREAD fleet trial's obs snapshots, keyed by file name.
	{"fleet-obs-snapshot", func(t *testing.T) (any, error) {
		cfg := smallFleet()
		cfg.Run.ObsDir = t.TempDir()
		if _, err := RunFleet(cfg, fleet.PlacementSpread, 2, 1); err != nil {
			return nil, err
		}
		snaps, err := obs.ReadDir(cfg.Run.ObsDir)
		files := map[string]*obs.TrialObs{}
		for _, s := range snaps {
			files[s.FileName()] = s
		}
		return files, err
	}},
	{"scenario-timeline-csv", func(t *testing.T) (any, error) { return pinShedScenario(t).WriteTimelineCSV, nil }},
	{"flash-timeline-csv", func(t *testing.T) (any, error) { return pinFlashCrowd(t).WriteTimelineCSV, nil }},
	{"elastic-timeline-csv", func(t *testing.T) (any, error) { return pinElasticDay(t).WriteTimelineCSV, nil }},
	{"apache-timeline", func(t *testing.T) (any, error) { return timelineRun(t), nil }},
}

// TestDigestPins checks each pin's image against testdata/pins.txt, one
// digest per top-level field, so a refactor that keeps every output keeps
// every line, and a moved pin names the fields that moved. The file's
// header names the model epoch it was written under.
//
// After an intentional behaviour change, bump modelEpoch and rewrite the
// file with
//
//	go test ./internal/experiment -run DigestPins -update-pins
//
// and name every changed pin in CHANGES.md: `git diff` shows the moved
// fields.
func TestDigestPins(t *testing.T) {
	data, err := os.ReadFile(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(string(data), "\n")
	epoch, err := strconv.Atoi(strings.TrimPrefix(header, "epoch "))
	if err != nil {
		t.Fatalf("%s header %q: %v", pinsFile, header, err)
	}
	if epoch != modelEpoch && !*updatePins {
		t.Errorf("%s was written under model epoch %d, not %d: rewrite it with -update-pins", pinsFile, epoch, modelEpoch)
	}
	pinned := map[string][]string{}
	for _, l := range strings.Split(strings.TrimSpace(body), "\n") {
		pin, _, _ := strings.Cut(l, " ")
		pinned[pin] = append(pinned[pin], l)
	}
	var all, moved []string
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			v, err := p.value(t)
			if err != nil {
				t.Fatal(err)
			}
			if _, csv := v.(func(io.Writer) error); !csv && !slices.Contains(pinnedTypes, reflect.TypeOf(v)) {
				t.Errorf("%T is not in pinnedTypes: no test checks that its image carries every field", v)
			}
			got := imageLines(t, p.name, v)
			if *updatePins {
				if pinMoved(pinned[p.name], got) {
					moved = append(moved, p.name)
				}
				pinned[p.name] = got
			} else if !slices.Equal(got, pinned[p.name]) {
				t.Errorf("image moved; now\n%s\npinned\n%s", strings.Join(got, "\n"), strings.Join(pinned[p.name], "\n"))
			}
		})
		all = append(all, pinned[p.name]...)
	}
	if *updatePins {
		if err := epochCheck(epoch, modelEpoch, moved); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("epoch %d\n%s\n", modelEpoch, strings.Join(all, "\n"))
		if err := os.WriteFile(pinsFile, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// epochCheck refuses to rewrite moved pins under the epoch the pins were
// written under: outputs that move come from another model, and only a
// bumped epoch makes every fingerprint refuse the journals of the old one.
func epochCheck(written, model int, moved []string) error {
	if len(moved) > 0 && written == model {
		return fmt.Errorf("pins %s moved under model epoch %d: bump modelEpoch so that journals of the old model are refused",
			strings.Join(moved, ", "), model)
	}
	return nil
}

// pinMoved reports whether a pin's rewritten lines move it: one of its
// old lines changed or vanished. A pin whose image only gained fields
// keeps every old line, and a new pin has none, so neither moved.
func pinMoved(old, got []string) bool {
	for _, l := range old {
		if !slices.Contains(got, l) {
			return true
		}
	}
	return false
}

// TestEpochCheck: a pin with a changed or vanished line is refused under
// the epoch the pins were written under and accepted under a bumped one;
// a pin that only gained lines, or a new one, is accepted under either.
func TestEpochCheck(t *testing.T) {
	const a, b, c = "flash-crowd Goodput 0a", "flash-crowd Goodput 0b", "flash-crowd Shed 0c"
	cases := []struct {
		name     string
		old, got []string
		model    int
		refused  bool
	}{
		{"unchanged", []string{a, c}, []string{a, c}, 3, false},
		{"changed line", []string{a, c}, []string{b, c}, 3, true},
		{"changed line, bumped epoch", []string{a, c}, []string{b, c}, 4, false},
		{"vanished line", []string{a, c}, []string{a}, 3, true},
		{"gained line", []string{a}, []string{a, c}, 3, false},
		{"new pin", nil, []string{a, c}, 3, false},
	}
	for _, tc := range cases {
		var moved []string
		if pinMoved(tc.old, tc.got) {
			moved = append(moved, "flash-crowd")
		}
		err := epochCheck(3, tc.model, moved)
		if refused := err != nil; refused != tc.refused || refused && !strings.Contains(err.Error(), "flash-crowd") {
			t.Errorf("%s: err = %v, want refused %v naming the pin", tc.name, err, tc.refused)
		}
	}
}

// imageLines hashes each top-level field of v's image into a sorted
// "pin field digest" line.
func imageLines(t *testing.T, pin string, v any) []string {
	t.Helper()
	img, err := image(v)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for f, b := range img {
		sum := sha256.Sum256(b)
		lines = append(lines, fmt.Sprintf("%s %s %x", pin, f, sum[:12]))
	}
	sort.Strings(lines)
	return lines
}

// outsideImage lists the fields of pinned types that their images leave
// out, each with the reason.
var outsideImage = map[string]string{
	"Result.Config":           "the trial's input: the state fingerprints cover it, and its hooks do not marshal",
	"Result.Obs":              "pinned apart, from the file the trial writes, by the obs-snapshot pins",
	"ScenarioResult.Config":   "the trial's input, as Result.Config",
	"FlashCrowdResult.Config": "the trial's input, as Result.Config",
}

// image is v's JSON image split by top-level key: each visible field of a
// struct, promoted ones included, or each entry of a map. Fields tagged
// json:"-" and the outsideImage fields are left out. The bytes a CSV
// writer writes are the one key "csv". encoding/json writes a float64 in
// its shortest round-trip form, so an image is as exact as the float's
// bits, and a NaN or an Inf fails it.
func image(v any) (map[string][]byte, error) {
	if write, ok := v.(func(io.Writer) error); ok {
		var b bytes.Buffer
		err := write(&b)
		return map[string][]byte{"csv": b.Bytes()}, err
	}
	out := map[string][]byte{}
	put := func(key string, x reflect.Value) (err error) {
		out[key], err = json.Marshal(x.Interface())
		return err
	}
	rv := reflect.Indirect(reflect.ValueOf(v))
	if rv.Kind() == reflect.Map {
		for _, k := range rv.MapKeys() {
			if err := put(k.String(), rv.MapIndex(k)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for _, f := range reflect.VisibleFields(rv.Type()) {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous || !f.IsExported() || key == "-" || outsideImage[ownField(rv.Type(), f)] != "" {
			continue
		}
		if key == "" {
			key = f.Name
		}
		if err := put(key, rv.FieldByIndex(f.Index)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ownField names a visible field of t after the struct that declares it,
// so a promoted field keeps its own type's name: "Result.Obs".
func ownField(t reflect.Type, f reflect.StructField) string {
	if n := len(f.Index); n > 1 {
		t = t.FieldByIndex(f.Index[:n-1]).Type
	}
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name() + "." + f.Name
}

// pinnedTypes are the types the pins image; TestDigestPins refuses a pin
// of any other type.
var pinnedTypes = []reflect.Type{
	reflect.TypeFor[*ElasticResult](), reflect.TypeFor[*FleetResult](),
	reflect.TypeFor[*InterferenceMatrix](), reflect.TypeFor[*ScenarioResult](),
	reflect.TypeFor[*FlashCrowdResult](), reflect.TypeFor[*Result](),
	reflect.TypeFor[obsFile](), reflect.TypeFor[map[string]*obs.TrialObs](),
}

// TestPinImagesCoverEveryLeaf sets each exported leaf of each pinned type,
// one at a time, from a first value to a second and checks that the
// type's image moves. So a field a pin does not carry is pinned apart and
// listed in outsideImage with its reason.
func TestPinImagesCoverEveryLeaf(t *testing.T) {
	for _, typ := range pinnedTypes {
		v := reflect.New(typ).Elem()
		leaves := fill(t, v, typ.String())
		want, err := image(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leaves {
			l.set(true)
			img, err := image(v.Interface())
			if err != nil {
				t.Fatalf("%s: %v", l.path, err)
			}
			if reflect.DeepEqual(img, want) {
				t.Errorf("%s is outside the image of %s", l.path, typ)
			}
			l.set(false)
		}
	}
}

// leaf is a settable scalar within a value, with the path that reaches it.
type leaf struct {
	path string
	set  func(second bool)
}

// fill gives v a value behind every pointer, one element in every slice
// and map, and a first value in every exported leaf outside outsideImage,
// and returns those leaves.
func fill(t *testing.T, v reflect.Value, path string) []leaf {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fill(t, v.Elem(), path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return fill(t, v.Index(0), path+"[0]")
	case reflect.Map:
		// The pinned maps hold slices and pointers, so their leaves stay
		// reachable after the element is stored.
		e := reflect.New(v.Type().Elem()).Elem()
		leaves := fill(t, e, path+"[k]")
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.New(v.Type().Key()).Elem(), e)
		return leaves
	case reflect.Struct:
		var leaves []leaf
		for _, f := range reflect.VisibleFields(v.Type()) {
			fv := v.FieldByIndex(f.Index) // an embedded pointer is set before its promoted fields
			if f.Anonymous {
				if fv.Kind() == reflect.Pointer {
					fv.Set(reflect.New(fv.Type().Elem()))
				}
				continue
			}
			if f.IsExported() && outsideImage[ownField(v.Type(), f)] == "" {
				leaves = append(leaves, fill(t, fv, path+"."+f.Name)...)
			}
		}
		return leaves
	}
	l := leaf{path, func(second bool) {
		if v.Kind() == reflect.Bool {
			v.SetBool(second)
			return
		}
		n := 1
		if second {
			n = 2
		}
		v.Set(reflect.ValueOf(n).Convert(v.Type())) // panics on a kind an int does not convert to
	}}
	l.set(false)
	return []leaf{l}
}

// sharedTrial runs a trial at most once per test binary for every pin and
// test that reads it. run must not stop the test: it may only mark itself
// a helper.
func sharedTrial[T any](run func(t *testing.T) (T, error)) func(t *testing.T) T {
	var (
		once sync.Once
		v    T
		err  error
	)
	return func(t *testing.T) T {
		t.Helper()
		once.Do(func() { v, err = run(t) })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// pinElasticDay is a TOP_JOB trial over elasticBase's compressed day,
// started under-allocated and driven harder so the controller both shrinks
// idle pools and grows the pool it blames for a soft bottleneck.
var pinElasticDay = sharedTrial(func(t *testing.T) (*ElasticResult, error) {
	cfg := elasticBase(t)
	cfg.Run.Testbed.Soft = testbed.SoftAlloc{WebThreads: 20, AppThreads: 2, AppConns: 1}
	cfg.Traces[0].Spec = trace.Diurnal(60, 240, 2*time.Minute)
	return RunElastic(cfg, adaptive.PolicyTopJob, cfg.Traces[0])
})

// pinScenarioBase is the small fault-trial base the scenario pins share:
// 1/2/1/2 under moderate closed load, measured long enough for the named
// scenarios' 30s..90s fault window and its recovery.
func pinScenarioBase() RunConfig {
	return RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     testbed.SoftAlloc{WebThreads: 200, AppThreads: 10, AppConns: 5},
			Seed:     3,
		},
		Users:   700,
		RampUp:  5 * time.Second,
		Measure: 100 * time.Second,
	}
}

// namedScenario runs one built-in fault scenario through its Configure on
// pinScenarioBase.
func namedScenario(name string) func(*testing.T) (any, error) {
	return func(*testing.T) (any, error) {
		sc, err := ScenarioByName(name)
		if err != nil {
			return nil, err
		}
		return RunScenario(sc.Configure(pinScenarioBase()))
	}
}

// pinShedScenario overloads a protected 1/1/1/1 through a Tomcat
// brown-out and a short database crash, so its windows hold shed
// rejections and error responses both.
var pinShedScenario = sharedTrial(func(*testing.T) (*ScenarioResult, error) {
	run := smallOverloadConfig()
	run.Users = 1200
	run.Measure = 30 * time.Second
	run.RampUp = 5 * time.Second
	run.Testbed.Resilience = OverloadProtection()
	return RunScenario(ScenarioConfig{
		Run: run,
		Plan: fault.Plan{Events: []fault.Event{
			fault.Brownout("tomcat1", 10*time.Second, 20*time.Second, 0.3),
			fault.Crash("mysql1", 22*time.Second, 23*time.Second),
		}},
	})
})

// pinFlashCrowd is a protected 1/1/1/1 absorbing a 6x spike under a
// 250ms deadline.
var pinFlashCrowd = sharedTrial(func(*testing.T) (*FlashCrowdResult, error) {
	run := smallOverloadConfig()
	run.Deadline = 250 * time.Millisecond
	return RunFlashCrowd(FlashCrowdConfig{
		Run:        run,
		BaseRate:   80,
		SpikeMult:  6,
		SpikeStart: 5 * time.Second,
		SpikeDur:   5 * time.Second,
	})
})

// smallFleet is a light two-tenant 1/1/1/1 fleet on a six-node pool, short
// enough for the fleet pins.
func smallFleet() FleetSweepConfig {
	hw := testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	return FleetSweepConfig{
		Run: RunConfig{RampUp: 5 * time.Second, Measure: 15 * time.Second},
		Fleet: fleet.Options{
			Nodes: 6, SlotsPerNode: 2, Seed: 9,
			Tenants: []fleet.TenantSpec{
				{Name: "a", Hardware: hw, Soft: testbed.SoftAlloc{WebThreads: 40, AppThreads: 4, AppConns: 3}, Users: 700},
				{Name: "b", Hardware: hw, Soft: testbed.SoftAlloc{WebThreads: 60, AppThreads: 6, AppConns: 2},
					Users: 900, ThinkMean: 3 * time.Second, SLO: 500 * time.Millisecond},
			},
		},
	}
}
