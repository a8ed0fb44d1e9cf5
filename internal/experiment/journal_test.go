package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func openTestJournal(t *testing.T, path, fp string) *Journal {
	t.Helper()
	j, err := OpenJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j := openTestJournal(t, path, "fp")
	recs := []*TrialRecord{
		{Key: "soft 400-15-6 workload 300", Data: []byte(`{"Errors":1}`)},
		{Key: "soft 400-15-6 workload 500", Err: "boom", Stack: "stack"},
	}
	for _, r := range recs {
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j = openTestJournal(t, path, "fp")
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("Len() = %d after reopen, want 2", j.Len())
	}
	got, ok := j.Lookup("soft 400-15-6 workload 500")
	if !ok || got.Err != "boom" || got.Stack != "stack" {
		t.Fatalf("Lookup failure record = %+v, %v", got, ok)
	}
	got, ok = j.Lookup("soft 400-15-6 workload 300")
	if !ok || string(got.Data) != `{"Errors":1}` {
		t.Fatalf("Lookup result record = %+v, %v", got, ok)
	}
}

func TestJournalTornTailTruncatedOnOpen(t *testing.T) {
	last, err := json.Marshal(&TrialRecord{Key: "c", Data: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record as a crash during append would: mid-payload,
	// between the header and payload writes, and mid-header.
	for _, cut := range []int{3, len(last), len(last) + recordHeaderSize - 3} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) { testTornTail(t, int64(cut)) })
	}
}

func testTornTail(t *testing.T, cut int64) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j := openTestJournal(t, path, "fp")
	for _, key := range []string{"a", "b", "c"} {
		if err := j.Record(&TrialRecord{Key: key, Data: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-cut); err != nil {
		t.Fatal(err)
	}
	j = openTestJournal(t, path, "fp")
	if j.Len() != 2 {
		t.Fatalf("Len() = %d after torn-tail open, want 2 salvaged", j.Len())
	}
	if j.SalvagedBytes() == 0 {
		t.Error("SalvagedBytes() = 0, want the torn bytes counted")
	}
	if _, ok := j.Lookup("c"); ok {
		t.Error("torn record still visible after recovery")
	}
	for _, key := range []string{"a", "b"} {
		if _, ok := j.Lookup(key); !ok {
			t.Errorf("intact record %q lost in recovery", key)
		}
	}
	// The truncated journal must accept appends again.
	if err := j.Record(&TrialRecord{Key: "c", Data: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j = openTestJournal(t, path, "fp")
	defer j.Close()
	if j.Len() != 3 {
		t.Fatalf("Len() = %d after re-append, want 3", j.Len())
	}
}

func TestJournalChecksumMismatchTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j := openTestJournal(t, path, "fp")
	if err := j.Record(&TrialRecord{Key: "keep", Data: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(&TrialRecord{Key: "corrupt", Data: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the last record's payload: framing intact, CRC not.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j = openTestJournal(t, path, "fp")
	defer j.Close()
	if _, ok := j.Lookup("corrupt"); ok {
		t.Error("record with bad checksum survived")
	}
	if _, ok := j.Lookup("keep"); !ok {
		t.Error("intact record lost")
	}
}

func TestJournalRefusesForeignFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j := openTestJournal(t, path, "fp-one")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, "fp-two"); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
}

// TestTrialRecordsFromEncodingJSONRestore: testdata/trial_records.jsonl
// holds two journal payloads of one saturated trial (the second after a
// percentile query sorted its sample), written when encoding/json still
// encoded metrics.Sample. They must restore, and re-encoding the restored
// Result must give the same bytes, so journals written before the
// hand-written encoder resume unchanged. testdata/elastic_record.jsonl
// holds one elastic-sweep cell, a TOP_JOB day whose timeline carries its
// soft units as integers, written when each result kind had its own
// timeline point type; it must restore and re-encode the same way.
func TestTrialRecordsFromEncodingJSONRestore(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "trial_records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d records, want 2", len(lines))
	}
	for i, line := range lines {
		var rec TrialRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		var res *Result
		if err := json.Unmarshal(rec.Data, &res); err != nil {
			t.Fatal(err)
		}
		rts := res.SLA.ResponseTimes()
		if rts.Count() == 0 || sort.Float64sAreSorted(rts.Values()) != (i == 1) {
			t.Fatalf("record %d restored %d response times, sorted=%v", i, rts.Count(), sort.Float64sAreSorted(rts.Values()))
		}
		again, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, rec.Data) {
			t.Errorf("record %d: re-encoded Result differs:\n%s\nwant\n%s", i, again, rec.Data)
		}
		if reline, err := json.Marshal(&TrialRecord{Key: rec.Key, Data: again}); err != nil || !bytes.Equal(reline, line) {
			t.Errorf("record %d: re-encoded TrialRecord differs (%v)", i, err)
		}
	}

	line, err := os.ReadFile(filepath.Join("testdata", "elastic_record.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	var rec TrialRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	var er *ElasticResult
	if err := json.Unmarshal(rec.Data, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Timeline) != 12 || len(er.Decisions) != 4 {
		t.Fatalf("elastic record restored %d windows and %d decisions, want 12 and 4", len(er.Timeline), len(er.Decisions))
	}
	again, err := json.Marshal(er)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, rec.Data) {
		t.Errorf("re-encoded ElasticResult differs:\n%s\nwant\n%s", again, rec.Data)
	}
	if reline, err := json.Marshal(&TrialRecord{Key: rec.Key, Data: again}); err != nil || !bytes.Equal(reline, line) {
		t.Errorf("re-encoded elastic TrialRecord differs (%v)", err)
	}
}
