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

package experiment

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// journalFormat versions the record payload schema. Format 2 keeps every
// trial output, *Result included, in TrialRecord.Data (format 1 gave
// Results a field of their own) and keys RunTrials records by
// "soft ... workload ..."; a format-1 state directory is refused.
const journalFormat = 2

// recordHeaderSize is the framing prefix: 4-byte little-endian payload
// length followed by 4-byte IEEE CRC32 of the payload.
const recordHeaderSize = 8

// maxRecordSize bounds a single record (a corrupted length field must not
// drive a multi-gigabyte allocation).
const maxRecordSize = 1 << 30

// ErrFingerprintMismatch reports a resume attempt against a journal
// written by a different configuration.
var ErrFingerprintMismatch = errors.New("experiment: journal fingerprint mismatch (state dir belongs to a different configuration)")

// journalHeader is the first record of every journal.
type journalHeader struct {
	Format      int    `json:"format"`
	Fingerprint string `json:"fingerprint"`
}

// TrialRecord is one journaled trial outcome. Either Data holds the
// trial's JSON-encoded output or Err describes a deterministic per-trial
// failure (a panicking simulation) that resume must not retry. Transient
// failures — cancellation, watchdog timeouts — are never journaled, so
// they re-run. RunCampaign writes and reads every record.
type TrialRecord struct {
	Key   string          `json:"key"`
	Err   string          `json:"err,omitempty"`
	Stack string          `json:"stack,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Journal is an append-only record of completed trials, safe for
// concurrent appends from sweep workers.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	done map[string]*TrialRecord

	// salvagedBytes counts torn-tail bytes truncated at open (diagnostic).
	salvagedBytes int64
}

// OpenJournal opens or creates the journal at path for the configuration
// identified by fingerprint. An existing journal is scanned: intact
// records load into memory, a torn tail is truncated, and a header written
// by a different configuration returns ErrFingerprintMismatch.
func OpenJournal(path, fingerprint string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, done: make(map[string]*TrialRecord)}
	if err := j.load(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load scans the journal from the start, keeping the last intact-record
// boundary, and truncates anything past it. An empty file gets a fresh
// header; a populated one must carry a matching fingerprint.
func (j *Journal) load(fingerprint string) error {
	var (
		offset  int64
		header  [recordHeaderSize]byte
		sawHead bool
	)
	for {
		payload, n, err := readRecord(j.f, offset, header[:])
		if err == errTornRecord {
			break
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("experiment: journal %s: %w", j.path, err)
		}
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
			var rec TrialRecord
			if jerr := json.Unmarshal(payload, &rec); jerr != nil {
				return fmt.Errorf("experiment: journal %s: bad record: %w", j.path, jerr)
			}
			j.done[rec.Key] = &rec
		}
		offset += int64(n)
	}

	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size > offset {
		// A crash mid-append left a torn tail; drop it.
		j.salvagedBytes = size - offset
		if err := j.f.Truncate(offset); err != nil {
			return err
		}
		if _, err := j.f.Seek(offset, io.SeekStart); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	if !sawHead {
		return j.append(journalHeader{Format: journalFormat, Fingerprint: fingerprint})
	}
	return nil
}

// errTornRecord marks an incomplete or corrupted tail record.
var errTornRecord = errors.New("torn record")

// readRecord reads one framed record at offset, returning its payload and
// total on-disk length. A short header, short payload, oversized length,
// or checksum mismatch reports errTornRecord.
func readRecord(f *os.File, offset int64, header []byte) ([]byte, int, error) {
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, 0, err
	}
	if _, err := io.ReadFull(f, header); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, 0, errTornRecord
		}
		return nil, 0, err
	}
	length := binary.LittleEndian.Uint32(header[:4])
	sum := binary.LittleEndian.Uint32(header[4:8])
	if length == 0 || length > maxRecordSize {
		return nil, 0, errTornRecord
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(f, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, errTornRecord
		}
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errTornRecord
	}
	return payload, recordHeaderSize + int(length), nil
}

// append frames, writes, and fsyncs one record. The header and the
// payload go out as two writes, so the payload (a trial's whole output) is
// not copied behind the header; a crash between them leaves a short
// payload, which load drops as a torn tail. The caller holds no lock
// during load; Record takes the mutex for concurrent sweep workers.
func (j *Journal) append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("experiment: journal record of %d bytes exceeds limit", len(payload))
	}
	var header [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := j.f.Write(header[:]); err != nil {
		return err
	}
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	return j.f.Sync()
}

// Record durably appends one trial outcome and indexes it for Lookup.
func (j *Journal) Record(rec *TrialRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(rec); err != nil {
		return fmt.Errorf("experiment: journal %s: %w", j.path, err)
	}
	j.done[rec.Key] = rec
	return nil
}

// Lookup returns the journaled outcome for a trial key, if present.
func (j *Journal) Lookup(key string) (*TrialRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.done[key]
	return rec, ok
}

// Len returns the number of journaled trials.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// SalvagedBytes reports how many torn-tail bytes were truncated at open.
func (j *Journal) SalvagedBytes() int64 { return j.salvagedBytes }

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
