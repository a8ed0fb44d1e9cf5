// Configuration fingerprints: the identifiers that tie a state directory
// and each of its journals to the configuration that wrote them. A
// fingerprint hashes the model epoch and the canonical image of every
// outcome-determining field, so a resume under any other setting, or
// under another model, is refused instead of restoring foreign trials.

package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strconv"
)

// modelEpoch names the simulation model that trial outcomes come from. It
// enters every fingerprint, so a bump refuses every journal written under
// an earlier model. A change that moves a digest pin bumps it:
// `go test ./internal/experiment -run DigestPins -update-pins` refuses to
// rewrite a moved pin under the epoch testdata/pins.txt was written under.
const modelEpoch = 2

// executionOnly lists the configuration fields that change how a campaign
// runs, not what its trials measure, keyed "package.Type.Field", each with
// its reason. The image leaves them out; every other exported field is an
// outcome field.
var executionOnly = map[string]string{
	"experiment.RunConfig.Parallelism":  "output is byte-identical at every parallelism",
	"experiment.RunConfig.Ctx":          "a canceled trial is never journaled",
	"experiment.RunConfig.TrialTimeout": "a timed-out trial is never journaled",
	"experiment.RunConfig.State":        "the journals themselves",
	"experiment.RunConfig.OnTrial":      "observes resolved trials",
	"experiment.RunConfig.ObsDir":       "the recorder only reads: results are byte-identical without it",
	"experiment.RunConfig.Obs":          "the recorder's settings, as ObsDir",
	"experiment.RunConfig.Users":        "an axis: trial keys name each trial's population",
	"testbed.Options.Env":               "the engine a build borrows, not a setting",
	"chaos.CampaignConfig.OnVerdict":    "observes resolved trials",
	"chaos.CampaignConfig.Seeds":        "an axis: trial keys name each trial's seed",
	"chaos.CampaignConfig.PlansPerSeed": "an axis: trial keys name each trial's plan",
}

// Fingerprint identifies a campaign of trials built on base, with base's
// defaults applied, and the given axes: the settings the campaign varies
// or adds beyond base.
func Fingerprint(base RunConfig, extra ...string) string {
	base.applyDefaults()
	return FingerprintOf(base, extra...)
}

// FingerprintOf hashes modelEpoch, cfg's image and the given axes into a
// short stable identifier.
func FingerprintOf(cfg any, extra ...string) string {
	b := fmt.Appendf(nil, "epoch=%d ", modelEpoch)
	b = appendImage(b, reflect.ValueOf(cfg))
	for _, e := range extra {
		b = append(append(b, 0), e...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// appendImage appends the canonical image of v to b: a struct's exported
// fields outside executionOnly by name, a pointer's pointee, an
// interface's dynamic type and value, a closure by its presence, a float
// in its shortest exact form, and a map in key order. Integers are
// decimal at every word width, so an image is the same on 32-bit targets.
func appendImage(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, v.Type().Bits())
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	case reflect.Func:
		return strconv.AppendBool(b, !v.IsNil())
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		return appendImage(b, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		return appendImage(append(b, v.Elem().Type().String()...), v.Elem())
	case reflect.Slice, reflect.Array:
		b = append(b, '[')
		for i := range v.Len() {
			b = append(appendImage(b, v.Index(i)), ' ')
		}
		return append(b, ']')
	case reflect.Map:
		entries := make([][]byte, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			e := append(appendImage(nil, it.Key()), ':')
			entries = append(entries, appendImage(e, it.Value()))
		}
		slices.SortFunc(entries, bytes.Compare)
		b = append(b, "map["...)
		for _, e := range entries {
			b = append(append(b, e...), ' ')
		}
		return append(b, ']')
	case reflect.Struct:
		t := v.Type()
		b = append(b, '{')
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() || executionOnly[t.String()+"."+f.Name] != "" {
				continue
			}
			b = append(append(b, f.Name...), ':')
			b = append(appendImage(b, v.Field(i)), ' ')
		}
		return append(b, '}')
	}
	panic(fmt.Sprintf("experiment: no fingerprint image for %s", v.Type()))
}
