// Write-ahead results journal: the durability layer behind crash-safe
// experiment campaigns. Every completed trial is appended as one
// length-prefixed, checksummed JSON record and fsynced before the sweep
// moves on, so a killed process loses at most the trials still in flight.
// On reopen a torn tail (a record cut mid-write by a crash) is detected by
// the length/checksum framing and truncated away; everything before it is
// salvaged. A fingerprint in the journal header ties the file to the sweep
// configuration that produced it — resume against a different
// configuration is refused rather than silently mixing incompatible
// results.
//
// A record is encoded in one encoding/json pass, output inline, and the
// journal's index keeps where each record lies in the file, not its bytes:
// a restore reads the record back and decodes its output in place.

package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// journalFormat versions the record payload schema. Format 2 keeps every
// trial output, *Result included, in TrialRecord.Data (format 1 gave
// Results a field of their own) and keys RunTrials records by
// "soft ... workload ..."; format 3 adds Result.Requests, and journals a
// failed horizon audit as a panic. A state directory of an older format
// is refused.
const journalFormat = 3

// recordHeaderSize is the framing prefix: 4-byte little-endian payload
// length followed by 4-byte IEEE CRC32 of the payload.
const recordHeaderSize = 8

// maxRecordSize bounds a single record.
const maxRecordSize = 1 << 30

// ErrFingerprintMismatch reports a resume attempt against a journal
// written by a different configuration.
var ErrFingerprintMismatch = errors.New("experiment: journal fingerprint mismatch (state dir belongs to a different configuration)")

// journalHeader is the first record of every journal.
type journalHeader struct {
	Format      int    `json:"format"`
	Fingerprint string `json:"fingerprint"`
}

// TrialRecord is the JSON image of one journaled trial outcome. Either
// Data holds the trial's output or Err describes a deterministic per-trial
// failure (a panicking simulation) that resume must not retry. Transient
// failures — cancellation, watchdog timeouts — are never journaled, so
// they re-run. Journal.Record encodes it with the output inline, and
// Journal.Restore decodes Data into the output's own type.
type TrialRecord struct {
	Key   string `json:"key"`
	Err   string `json:"err,omitempty"`
	Stack string `json:"stack,omitempty"`
	Data  any    `json:"data,omitempty"`
}

// recordRef indexes one journaled record: a failure's text, and where the
// record's payload lies in the file. The payload itself stays on disk.
type recordRef struct {
	err, stack string
	off        int64 // payload offset in the file
	n          int   // payload length
}

// Journal is an append-only record of completed trials, safe for
// concurrent appends and restores from sweep workers.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64 // end of the last intact record, where the next one goes
	done map[string]recordRef

	// enc encodes each appended record through w, straight into the file.
	// free holds the read buffers of restores not in progress; a new one
	// takes the length of the longest payload indexed, largest, so each
	// lasts the campaign.
	w       recordWriter
	enc     *json.Encoder
	free    [][]byte
	largest int

	// salvagedBytes counts torn-tail bytes truncated at open (diagnostic).
	salvagedBytes int64
}

// OpenJournal opens or creates the journal at path for the configuration
// identified by fingerprint. An existing journal is scanned: intact
// records are indexed, a torn tail is truncated, and a header written by
// a different configuration returns ErrFingerprintMismatch.
func OpenJournal(path, fingerprint string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, done: make(map[string]recordRef)}
	j.enc = json.NewEncoder(&j.w)
	if err := j.load(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load scans the journal from the start, keeping the last intact-record
// boundary, and truncates anything past it. An empty file gets a fresh
// header; a populated one must carry a matching fingerprint. Every record
// is read into one buffer, and only its head is decoded.
func (j *Journal) load(fingerprint string) error {
	info, err := j.f.Stat()
	if err != nil {
		return err
	}
	var (
		size    = info.Size()
		buf     []byte
		sawHead bool
	)
	for j.size < size {
		payload, err := readRecord(j.f, j.size, size, buf)
		if err == errTornRecord {
			break
		}
		if err != nil {
			return fmt.Errorf("experiment: journal %s: %w", j.path, err)
		}
		buf = payload
		off := j.size + recordHeaderSize
		if !sawHead {
			var h journalHeader
			if jerr := json.Unmarshal(payload, &h); jerr != nil {
				return fmt.Errorf("experiment: journal %s: bad header: %w", j.path, jerr)
			}
			if h.Format != journalFormat {
				return fmt.Errorf("experiment: journal %s: format %d, want %d", j.path, h.Format, journalFormat)
			}
			if h.Fingerprint != fingerprint {
				return fmt.Errorf("%w: journal %s", ErrFingerprintMismatch, j.path)
			}
			sawHead = true
		} else {
			key, ref, jerr := decodeHead(payload)
			if jerr != nil {
				return fmt.Errorf("experiment: journal %s: bad record at %d: %w", j.path, off, jerr)
			}
			ref.off, ref.n = off, len(payload)
			j.done[key] = ref
			j.largest = max(j.largest, ref.n)
		}
		j.size = off + int64(len(payload))
	}
	if buf != nil {
		j.free = append(j.free, buf) // the first restore reads into it
	}

	if size > j.size {
		// A crash mid-append left a torn tail; drop it.
		j.salvagedBytes = size - j.size
		if err := j.f.Truncate(j.size); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	if !sawHead {
		_, err := j.append(&journalHeader{Format: journalFormat, Fingerprint: fingerprint})
		return err
	}
	return nil
}

// errTornRecord marks an incomplete or corrupted tail record.
var errTornRecord = errors.New("torn record")

// readRecord reads the payload of the framed record at offset, in a file
// of size bytes, into buf. A buffer too short is replaced by one of at
// least twice its capacity, so a scan of growing records reallocates only
// a few times. A short header, a length longer than the bytes left in the
// file, or a checksum mismatch reports errTornRecord, so a corrupted
// length field never sizes the buffer.
func readRecord(f *os.File, offset, size int64, buf []byte) ([]byte, error) {
	var header [recordHeaderSize]byte
	if size-offset < recordHeaderSize {
		return nil, errTornRecord
	}
	if _, err := f.ReadAt(header[:], offset); err != nil {
		return nil, err
	}
	length := int64(binary.LittleEndian.Uint32(header[:4]))
	sum := binary.LittleEndian.Uint32(header[4:8])
	if length == 0 || length > maxRecordSize || length > size-offset-recordHeaderSize {
		return nil, errTornRecord
	}
	if int64(cap(buf)) < length {
		buf = make([]byte, 0, max(length, 2*int64(cap(buf))))
	}
	buf = buf[:length]
	if _, err := f.ReadAt(buf, offset+recordHeaderSize); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, errTornRecord
	}
	return buf, nil
}

// decodeHead decodes what a record holds ahead of its data: the key, and
// a failure's err and stack. It stops at the data, so opening a journal
// does not scan the trial outputs.
func decodeHead(payload []byte) (key string, ref recordRef, err error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	if t, _ := dec.Token(); t != json.Delim('{') {
		return "", ref, errors.New("not a JSON object")
	}
	for dec.More() {
		name, err := dec.Token()
		if err != nil {
			return "", ref, err
		}
		if name == "data" {
			break
		}
		t, err := dec.Token()
		s, ok := t.(string)
		if err != nil || !ok {
			return "", ref, fmt.Errorf("field %v is not a string (%v)", name, err)
		}
		switch name {
		case "key":
			key = s
		case "err":
			ref.err = s
		case "stack":
			ref.stack = s
		}
	}
	return key, ref, nil
}

// append encodes v as one record at the end of the journal and fsyncs
// it. The encoder writes the payload straight into the file, past the
// record's header (recordWriter), and the header goes in after it, so the
// payload is never staged or copied; a crash before the header is written
// leaves a record whose length or checksum does not hold, which load
// drops as a torn tail. Writes go to explicit offsets, so a failed write
// is overwritten by the next record. The caller holds the mutex, or is
// load.
func (j *Journal) append(v any) (recordRef, error) {
	ref := recordRef{off: j.size + recordHeaderSize}
	j.w = recordWriter{f: j.f, off: ref.off}
	if err := j.enc.Encode(v); err != nil {
		return recordRef{}, err
	}
	var header [recordHeaderSize]byte
	ref.n = j.w.n
	binary.LittleEndian.PutUint32(header[:4], uint32(ref.n))
	binary.LittleEndian.PutUint32(header[4:8], j.w.sum)
	if _, err := j.f.WriteAt(header[:], j.size); err != nil {
		return recordRef{}, err
	}
	if err := j.f.Sync(); err != nil {
		return recordRef{}, err
	}
	j.size = ref.off + int64(ref.n)
	return ref, nil
}

// recordWriter takes a record's payload from the journal's encoder and
// writes it into the file from off on, keeping its length n and its CRC32
// sum as it goes. The encoder ends each value with a newline, which is not
// part of the payload. encoding/json escapes every newline inside a value,
// so a newline that ends a Write is that one, however the encoder splits
// its output.
type recordWriter struct {
	f   *os.File
	off int64
	n   int
	sum uint32
}

func (w *recordWriter) Write(b []byte) (int, error) {
	p := bytes.TrimSuffix(b, []byte{'\n'})
	if w.n+len(p) > maxRecordSize {
		return 0, fmt.Errorf("record exceeds the %d-byte limit", maxRecordSize)
	}
	if _, err := w.f.WriteAt(p, w.off+int64(w.n)); err != nil {
		return 0, err
	}
	w.n += len(p)
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p)
	return len(b), nil
}

// Record durably appends one trial outcome and indexes it for Restore:
// out, the trial's output, inline as the record's data, or, when out is a
// *PanicError, the failure's value and stack.
func (j *Journal) Record(key string, out any) error {
	rec := &TrialRecord{Key: key, Data: out}
	if pe, ok := out.(*PanicError); ok {
		rec = &TrialRecord{Key: key, Err: fmt.Sprint(pe.Value), Stack: pe.Stack}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ref, err := j.append(rec)
	if err != nil {
		return fmt.Errorf("experiment: journal %s: %w", j.path, err)
	}
	ref.err, ref.stack = rec.Err, rec.Stack
	j.done[key] = ref
	j.largest = max(j.largest, ref.n)
	return nil
}

// Restore reports whether key is journaled and, if so, decodes its output
// into out, a pointer to the output's type, reading the record back from
// the file. A journaled failure returns as its *PanicError. Restores read
// and decode outside the journal's lock, so workers restore in parallel.
func (j *Journal) Restore(key string, out any) (bool, error) {
	j.mu.Lock()
	ref, ok := j.done[key]
	f, largest := j.f, j.largest
	var buf []byte
	if n := len(j.free); ok && ref.err == "" && n > 0 {
		buf, j.free = j.free[n-1], j.free[:n-1]
	}
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if ref.err != "" {
		return true, &PanicError{Value: ref.err, Stack: ref.stack}
	}
	if cap(buf) < ref.n {
		buf = make([]byte, largest)
	}
	buf = buf[:ref.n]
	_, err := f.ReadAt(buf, ref.off)
	if err == nil {
		err = json.Unmarshal(buf, &TrialRecord{Data: out})
	}
	j.mu.Lock()
	j.free = append(j.free, buf)
	j.mu.Unlock()
	if err != nil {
		return true, fmt.Errorf("experiment: journal %s: %w", j.path, err)
	}
	return true, nil
}

// Len returns the number of journaled trials.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
