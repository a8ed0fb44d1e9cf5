package experiment_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/softres/ntier/internal/chaos"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/trace"
)

// fingerprinted are the configurations that fingerprint a campaign, each
// with the fingerprint its journals carry.
var fingerprinted = []struct {
	typ         reflect.Type
	fingerprint func(v reflect.Value) string
}{
	{reflect.TypeFor[experiment.RunConfig](), func(v reflect.Value) string {
		return experiment.Fingerprint(v.Interface().(experiment.RunConfig))
	}},
	{reflect.TypeFor[experiment.ElasticSweepConfig](), func(v reflect.Value) string {
		return v.Interface().(experiment.ElasticSweepConfig).Fingerprint()
	}},
	{reflect.TypeFor[experiment.FleetSweepConfig](), func(v reflect.Value) string {
		return v.Interface().(experiment.FleetSweepConfig).Fingerprint()
	}},
	{reflect.TypeFor[chaos.CampaignConfig](), func(v reflect.Value) string {
		return v.Interface().(chaos.CampaignConfig).Fingerprint()
	}},
}

// samples give an interface-typed leaf its second value. The arrival spec
// is a pointer, so its own fields stay settable leaves.
var samples = map[reflect.Type]func() any{
	reflect.TypeFor[trace.ArrivalSpec](): func() any { return &trace.ScheduleSpec{} },
	reflect.TypeFor[context.Context]():   func() any { return context.Background() },
}

// TestFingerprintsCoverEveryLeaf sets each exported leaf of each
// fingerprinted configuration, one at a time, from a first value to a
// second: an outcome leaf must move the configuration's fingerprint, and
// a leaf declared execution-only must not. So a new field either reaches
// the fingerprint or is declared, with its reason, in executionOnly.
func TestFingerprintsCoverEveryLeaf(t *testing.T) {
	visited := map[string]bool{}
	for _, f := range fingerprinted {
		v := reflect.New(f.typ).Elem()
		leaves := fillLeaves(t, v, f.typ.String(), true, visited)
		want := f.fingerprint(v)
		for _, l := range leaves {
			l.set(true)
			moved := f.fingerprint(v) != want
			l.set(false)
			switch {
			case l.outcome && !moved:
				t.Errorf("%s is outside the fingerprint of %s", l.path, f.typ)
			case !l.outcome && moved:
				t.Errorf("%s is declared execution-only but moves the fingerprint of %s", l.path, f.typ)
			}
		}
	}
	for field := range experiment.ExecutionOnly {
		if !visited[field] {
			t.Errorf("executionOnly declares %s, which no fingerprinted configuration has", field)
		}
	}
}

// fpLeaf is a settable leaf of a configuration, with the path that
// reaches it and whether it determines outcomes.
type fpLeaf struct {
	path    string
	outcome bool
	set     func(second bool)
}

// fillLeaves gives v a value behind every outcome pointer and interface,
// one element in every slice and array, and a first value in every leaf,
// and returns those leaves. A pointer, closure or interface declared
// execution-only is one leaf: nil, then set. visited collects the
// declared fields it meets.
func fillLeaves(t *testing.T, v reflect.Value, path string, outcome bool, visited map[string]bool) []fpLeaf {
	switch v.Kind() {
	case reflect.Struct:
		var leaves []fpLeaf
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			key := v.Type().String() + "." + f.Name
			declared := experiment.ExecutionOnly[key] != ""
			visited[key] = visited[key] || declared
			leaves = append(leaves, fillLeaves(t, v.Field(i), path+"."+f.Name, outcome && !declared, visited)...)
		}
		return leaves
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return fillLeaves(t, v.Index(0), path+"[0]", outcome, visited)
	case reflect.Array:
		return fillLeaves(t, v.Index(0), path+"[0]", outcome, visited)
	case reflect.Pointer:
		if outcome {
			v.Set(reflect.New(v.Type().Elem()))
			return fillLeaves(t, v.Elem(), path, outcome, visited)
		}
		return []fpLeaf{{path, outcome, func(second bool) {
			v.Set(reflect.Zero(v.Type()))
			if second {
				v.Set(reflect.New(v.Type().Elem()))
			}
		}}}
	case reflect.Interface:
		sample := samples[v.Type()]
		if sample == nil {
			t.Fatalf("%s: no sample %s", path, v.Type())
		}
		if outcome {
			p := reflect.ValueOf(sample())
			v.Set(p)
			return fillLeaves(t, p.Elem(), path, outcome, visited)
		}
		return []fpLeaf{{path, outcome, func(second bool) {
			v.Set(reflect.Zero(v.Type()))
			if second {
				v.Set(reflect.ValueOf(sample()))
			}
		}}}
	case reflect.Func:
		return []fpLeaf{{path, outcome, func(second bool) {
			v.Set(reflect.Zero(v.Type()))
			if second {
				v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
			}
		}}}
	}
	l := fpLeaf{path, outcome, func(second bool) {
		n := 1
		if second {
			n = 2
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(second)
		case reflect.String:
			v.SetString(string(rune('0' + n)))
		default:
			v.Set(reflect.ValueOf(n).Convert(v.Type())) // panics on a kind an int does not convert to
		}
	}}
	l.set(false)
	return []fpLeaf{l}
}

// TestFingerprintSortsMapKeys: a map's image does not depend on its
// iteration order.
func TestFingerprintSortsMapKeys(t *testing.T) {
	m := map[string]int{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8}
	want := experiment.FingerprintOf(m)
	for range 20 {
		if got := experiment.FingerprintOf(m); got != want {
			t.Fatalf("fingerprint %s, then %s", want, got)
		}
	}
	if experiment.FingerprintOf(map[string]int{"a": 2, "b": 1}) == experiment.FingerprintOf(map[string]int{"a": 1, "b": 2}) {
		t.Error("a map's values are outside its fingerprint")
	}
}
