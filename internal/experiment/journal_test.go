package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/sla"
)

func openTestJournal(t *testing.T, path, fp string) *Journal {
	t.Helper()
	j, err := OpenJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// journaled reports whether j holds a record for key, restoring it.
func journaled(t *testing.T, j *Journal, key string) bool {
	t.Helper()
	var data json.RawMessage
	ok, err := j.Restore(key, &data)
	var pe *PanicError
	if err != nil && !errors.As(err, &pe) {
		t.Fatalf("Restore(%q): %v", key, err)
	}
	return ok
}

// bigResult is a Result whose response-time sample holds n values.
func bigResult(n int) *Result {
	c := sla.NewCollector(sla.StandardThresholds)
	rt := time.Duration(0)
	for range n {
		rt = (rt*7919 + 104729*time.Microsecond) % (3 * time.Second)
		c.Observe(rt)
	}
	c.SetElapsed(60 * time.Second)
	return &Result{SLA: c, Errors: 3}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j := openTestJournal(t, path, "fp")
	if err := j.Record("soft 400-15-6 workload 300", json.RawMessage(`{"Errors":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("soft 400-15-6 workload 500", &PanicError{Value: "boom", Stack: "stack"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j = openTestJournal(t, path, "fp")
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("Len() = %d after reopen, want 2", j.Len())
	}
	var data json.RawMessage
	ok, err := j.Restore("soft 400-15-6 workload 500", &data)
	var pe *PanicError
	if !ok || !errors.As(err, &pe) || pe.Value != "boom" || pe.Stack != "stack" || data != nil {
		t.Fatalf("Restore of failure record = %v, %v, data %s", ok, err, data)
	}
	ok, err = j.Restore("soft 400-15-6 workload 300", &data)
	if !ok || err != nil || string(data) != `{"Errors":1}` {
		t.Fatalf("Restore of result record = %v, %v, data %s", ok, err, data)
	}
	if ok, err := j.Restore("soft 400-15-6 workload 700", &data); ok || err != nil {
		t.Fatalf("Restore of absent key = %v, %v", ok, err)
	}
}

func TestJournalTornTailTruncatedOnOpen(t *testing.T) {
	last, err := json.Marshal(&TrialRecord{Key: "c", Data: json.RawMessage(`{}`)})
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
		if err := j.Record(key, json.RawMessage(`{}`)); err != nil {
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
	if j.salvagedBytes == 0 {
		t.Error("salvagedBytes = 0, want the torn bytes counted")
	}
	if journaled(t, j, "c") {
		t.Error("torn record still visible after recovery")
	}
	for _, key := range []string{"a", "b"} {
		if !journaled(t, j, key) {
			t.Errorf("intact record %q lost in recovery", key)
		}
	}
	// The truncated journal must accept appends again.
	if err := j.Record("c", json.RawMessage(`{}`)); err != nil {
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
	if err := j.Record("keep", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("corrupt", json.RawMessage(`{}`)); err != nil {
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
	if journaled(t, j, "corrupt") {
		t.Error("record with bad checksum survived")
	}
	if !journaled(t, j, "keep") {
		t.Error("intact record lost")
	}
}

// TestJournalForgedLengthIsTorn: a tail header whose length field claims
// 512 MiB, as a corrupted length would, is longer than the file left
// behind it. The open drops it as a torn tail without sizing a buffer by
// it.
func TestJournalForgedLengthIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j := openTestJournal(t, path, "fp")
	if err := j.Record("keep", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var forged [recordHeaderSize + 16]byte
	binary.LittleEndian.PutUint32(forged[:4], 1<<29)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(forged[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j = openTestJournal(t, path, "fp")
	runtime.ReadMemStats(&after)
	defer j.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("opening the journal allocated %d bytes, want under 1 MiB", got)
	}
	if j.salvagedBytes != int64(len(forged)) || j.Len() != 1 || !journaled(t, j, "keep") {
		t.Errorf("after open: %d salvaged bytes, %d records; want %d and the one intact record",
			j.salvagedBytes, j.Len(), len(forged))
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

// testdataRecord decodes one line of a testdata .jsonl file: a TrialRecord
// with its data kept raw.
func testdataRecord(t *testing.T, line []byte) (string, json.RawMessage) {
	t.Helper()
	var data json.RawMessage
	rec := TrialRecord{Data: &data}
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Key, data
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
		key, data := testdataRecord(t, line)
		var res *Result
		if err := json.Unmarshal(data, &res); err != nil {
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
		if !bytes.Equal(again, data) {
			t.Errorf("record %d: re-encoded Result differs:\n%s\nwant\n%s", i, again, data)
		}
		if reline, err := json.Marshal(&TrialRecord{Key: key, Data: res}); err != nil || !bytes.Equal(reline, line) {
			t.Errorf("record %d: re-encoded TrialRecord differs (%v)", i, err)
		}
	}

	line, err := os.ReadFile(filepath.Join("testdata", "elastic_record.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	key, data := testdataRecord(t, line)
	var er *ElasticResult
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Timeline) != 12 || len(er.Decisions) != 4 {
		t.Fatalf("elastic record restored %d windows and %d decisions, want 12 and 4", len(er.Timeline), len(er.Decisions))
	}
	again, err := json.Marshal(er)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("re-encoded ElasticResult differs:\n%s\nwant\n%s", again, data)
	}
	if reline, err := json.Marshal(&TrialRecord{Key: key, Data: er}); err != nil || !bytes.Equal(reline, line) {
		t.Errorf("re-encoded elastic TrialRecord differs (%v)", err)
	}
}

// goldenTrial is one outcome of testdata/two_pass.journal.
type goldenTrial struct {
	key string
	out any // *Result, *ElasticResult or *PanicError
}

// goldenTrials returns, in the order testdata/two_pass.journal records
// them, the two trial_records.jsonl results, a panic, and the
// elastic_record.jsonl result. The journal file was written by the
// two-pass encoder: json.Marshal of the output, then of a TrialRecord
// holding those bytes as its data.
func goldenTrials(t *testing.T) []goldenTrial {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "trial_records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var trials []goldenTrial
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		key, data := testdataRecord(t, line)
		var res *Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			key += " sorted"
		}
		trials = append(trials, goldenTrial{key, res})
	}
	trials = append(trials, goldenTrial{"soft 50-6-3 workload 3000", &PanicError{
		Value: "planted <panic> & co",
		Stack: "goroutine 7 [running]:\nmain.trial()\n\t/src/trial.go:12 +0x1d\n",
	}})
	line, err := os.ReadFile(filepath.Join("testdata", "elastic_record.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	key, data := testdataRecord(t, bytes.TrimSuffix(line, []byte("\n")))
	var er *ElasticResult
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	return append(trials, goldenTrial{key, er})
}

// twoPassPayload is the record payload the two-pass encoder wrote for tr.
func twoPassPayload(t *testing.T, tr goldenTrial) []byte {
	t.Helper()
	rec := &TrialRecord{Key: tr.key}
	if pe, ok := tr.out.(*PanicError); ok {
		rec.Err, rec.Stack = fmt.Sprint(pe.Value), pe.Stack
	} else {
		data, err := json.Marshal(tr.out)
		if err != nil {
			t.Fatal(err)
		}
		rec.Data = json.RawMessage(data)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestJournalRecordMatchesTwoPassEncoding: Record encodes a record in one
// pass, output inline, and must write the payloads the two-pass encoder
// wrote, so the journal file is byte-identical to
// testdata/two_pass.journal.
func TestJournalRecordMatchesTwoPassEncoding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j := openTestJournal(t, path, "golden")
	trials := goldenTrials(t)
	for _, tr := range trials {
		if err := j.Record(tr.key, tr.out); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for i := -1; i < len(trials); i++ {
		payload, err := readRecord(f, off, info.Size(), nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += recordHeaderSize + int64(len(payload))
		if i < 0 {
			continue // the journal header
		}
		if want := twoPassPayload(t, trials[i]); !bytes.Equal(payload, want) {
			t.Errorf("record %d (%s): payload differs from the two-pass encoding:\n%.300s\nwant\n%.300s", i, trials[i].key, payload, want)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "two_pass.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal file (%d bytes) differs from testdata/two_pass.journal (%d bytes)", len(got), len(want))
	}
}

// TestJournalRestoresTwoPassFile: a journal written by the two-pass
// encoder opens, and each record restores to an output that re-encodes to
// its data, or to its *PanicError.
func TestJournalRestoresTwoPassFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "two_pass.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trials.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, path, "golden")
	defer j.Close()
	trials := goldenTrials(t)
	if j.Len() != len(trials) || j.salvagedBytes != 0 {
		t.Fatalf("opened %d records, salvaged %d bytes; want %d and 0", j.Len(), j.salvagedBytes, len(trials))
	}
	for _, tr := range trials {
		var (
			ok  bool
			err error
			out any
		)
		switch want := tr.out.(type) {
		case *PanicError:
			var res *Result
			ok, err = j.Restore(tr.key, &res)
			var pe *PanicError
			if !ok || !errors.As(err, &pe) || pe.Value != want.Value || pe.Stack != want.Stack || res != nil {
				t.Errorf("%s: restored %v, %v; want its *PanicError", tr.key, ok, err)
			}
			continue
		case *Result:
			var res *Result
			ok, err = j.Restore(tr.key, &res)
			out = res
		case *ElasticResult:
			var er *ElasticResult
			ok, err = j.Restore(tr.key, &er)
			out = er
		}
		if !ok || err != nil {
			t.Fatalf("%s: restored %v, %v", tr.key, ok, err)
		}
		got, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(tr.out); !bytes.Equal(got, want) {
			t.Errorf("%s: restored output re-encodes differently:\n%.300s\nwant\n%.300s", tr.key, got, want)
		}
	}
}

// TestJournalRestoresRecordOfSameProcess: a campaign run a second time on
// the same State gets the journal that State cached, and restores the
// records its first run wrote, read back from the file.
func TestJournalRestoresRecordOfSameProcess(t *testing.T) {
	st := stateAt(t, filepath.Join(t.TempDir(), "run"), false)
	camp := Campaign[*Result]{
		Kind: "big",
		N:    3,
		Key:  func(i int) string { return fmt.Sprintf("cell=%d", i) },
		Run:  func(i int) (*Result, error) { return bigResult(1000 * (i + 1)), nil },
	}
	first, err := RunCampaign(RunConfig{State: st}, camp)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCampaign(RunConfig{State: st}, camp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		got, _ := json.Marshal(second[i].Out)
		want, _ := json.Marshal(first[i].Out)
		if !second[i].Restored || second[i].Out == first[i].Out || !bytes.Equal(got, want) {
			t.Errorf("cell %d: restored=%v, same object=%v, same bytes=%v; want a restored copy",
				i, second[i].Restored, second[i].Out == first[i].Out, bytes.Equal(got, want))
		}
	}
}

// TestJournalConcurrentRestoreAndRecord: four workers restore different
// records of one journal while a fifth appends.
func TestJournalConcurrentRestoreAndRecord(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "trials.journal"), "fp")
	defer j.Close()
	const readers = 4
	for i := range readers {
		if err := j.Record(fmt.Sprintf("old%d", i), bigResult(500*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				var res *Result
				ok, err := j.Restore(fmt.Sprintf("old%d", i), &res)
				if !ok || err != nil || res.SLA.Total() != uint64(500*(i+1)) {
					errs <- fmt.Errorf("restore of old%d: %v, %v", i, ok, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range 10 {
			if err := j.Record(fmt.Sprintf("new%d", k), bigResult(200)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if j.Len() != readers+10 {
		t.Errorf("Len() = %d, want %d", j.Len(), readers+10)
	}
}

// leastAllocedBytes returns the least of ten readings of the bytes one
// call of op allocates. Allocations elsewhere in the process only ever
// add bytes, and so does an op that finds encoding/json's pooled encode
// buffer gone, as the race detector's sync.Pool does at random; the least
// reading is op's own figure. The readings run on one P: each runs in a
// new goroutine, and sync.Pool keeps a P's last Put in a slot no other P
// reads, so with two Ps a reading that lands on the other P than the one
// before it regrows the buffer, and under CPU contention all ten can.
func leastAllocedBytes(t *testing.T, op func(b *testing.B)) int64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Set(old)
	bench := func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			op(b)
		}
	}
	got := testing.Benchmark(bench).AllocedBytesPerOp()
	for range 9 {
		got = min(got, testing.Benchmark(bench).AllocedBytesPerOp())
	}
	return got
}

// TestJournalRecordAllocatesUnderPayload: once encoding/json's pooled
// encode buffer has grown, recording a 50,000-value Result allocates a
// few hundred bytes (200 measured), whatever its payload: the encoder
// writes the record straight into the file. Marshaling the output and
// then the record holding it allocated about twice the payload.
func TestJournalRecordAllocatesUnderPayload(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "trials.journal"), "fp")
	defer j.Close()
	res := bigResult(50000)
	payload, err := json.Marshal(&TrialRecord{Key: "big", Data: res})
	if err != nil {
		t.Fatal(err)
	}
	got := leastAllocedBytes(t, func(b *testing.B) {
		if err := j.Record("big", res); err != nil {
			b.Fatal(err)
		}
	})
	t.Logf("%d bytes allocated to record a %d-byte payload", got, len(payload))
	if limit := int64(1 << 10); got > limit {
		t.Errorf("Record allocated %d bytes for a %d-byte payload, want at most %d", got, len(payload), limit)
	}
}

// pieces writes each buffer it is given to w in pieces of at most n
// bytes, as an encoder that flushes as it goes would.
type pieces struct {
	w io.Writer
	n int
}

func (p pieces) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		k := min(p.n, len(rest))
		if _, err := p.w.Write(rest[:k]); err != nil {
			return 0, err
		}
		rest = rest[k:]
	}
	return len(b), nil
}

// A journal whose encoder hands its records over in pieces writes the
// same file as one that hands each over whole: the record writer frames
// the bytes it is given, whatever the pieces, and leaves off the newline
// only at the end of the value.
func TestJournalRecordWrittenInPieces(t *testing.T) {
	records := []struct {
		key string
		out any
	}{
		{"one", bigResult(40)},
		{"two", &PanicError{Value: "boom", Stack: "stack\n"}},
		{"three", []float64{1, 2.5}},
	}
	write := func(name string, n int) []byte {
		path := filepath.Join(t.TempDir(), name)
		j := openTestJournal(t, path, "fp")
		if n > 0 {
			j.enc = json.NewEncoder(pieces{&j.w, n})
		}
		for _, r := range records {
			if err := j.Record(r.key, r.out); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := write("whole.journal", 0)
	for _, n := range []int{1, 2, 7, 64} {
		name := fmt.Sprintf("pieces%d.journal", n)
		if got := write(name, n); !bytes.Equal(got, want) {
			t.Errorf("records written in pieces of %d bytes: %d-byte file, want the %d bytes written whole", n, len(got), len(want))
		}
	}
	path := filepath.Join(t.TempDir(), "reopened.journal")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, path, "fp")
	defer j.Close()
	var got []float64
	if ok, err := j.Restore("three", &got); !ok || err != nil || len(got) != 2 || got[1] != 2.5 {
		t.Errorf("Restore(three) = %v, %v, %v; want [1 2.5]", ok, err, got)
	}
}

// TestJournalRestoreAllocatesDecodedValues: restoring a 50,000-value
// Result reads its record into a reused buffer, so it allocates the
// decoded response times plus a small constant, not a copy of the
// payload.
func TestJournalRestoreAllocatesDecodedValues(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "trials.journal"), "fp")
	defer j.Close()
	const n = 50000
	if err := j.Record("big", bigResult(n)); err != nil {
		t.Fatal(err)
	}
	got := leastAllocedBytes(t, func(b *testing.B) {
		var res *Result
		if ok, err := j.Restore("big", &res); !ok || err != nil {
			b.Fatal(ok, err)
		}
	})
	values := int64(8 * n)
	t.Logf("%d bytes allocated to restore %d bytes of values", got, values)
	if limit := values + 32<<10; got > limit {
		t.Errorf("Restore allocated %d bytes for %d bytes of decoded values, want at most %d", got, values, limit)
	}
}

// BenchmarkJournalRoundTrip records and restores a Result of 50,000
// response times.
func BenchmarkJournalRoundTrip(b *testing.B) {
	j, err := OpenJournal(filepath.Join(b.TempDir(), "trials.journal"), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	res := bigResult(50000)
	b.ReportAllocs()
	for range b.N {
		if err := j.Record("big", res); err != nil {
			b.Fatal(err)
		}
		var got *Result
		if ok, err := j.Restore("big", &got); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}
