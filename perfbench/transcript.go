package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"syslogdigest/internal/core"
	"syslogdigest/internal/event"
)

// records is one ordered record stream, kept as per-record hashes of the
// JSON lines so a multi-megabyte stream costs a few bytes per record to
// hold and compare.
type records struct {
	Hash []uint64 `json:"hash"`
	// At is the push index during which the record surfaced; len(feed)
	// stands for the closing Flush.
	At []int32 `json:"at"`
	// First marks first-signal records: the rev-0 provisional update, or
	// every final event when the provisional tier is off.
	First []bool `json:"first"`
	// LogLag is, for first-signal records, the streamer watermark when the
	// record surfaced minus the event's last message time (seconds).
	LogLag []float64 `json:"log_lag"`
	// Wall is when each record was written, in ns since the pass began
	// (workload passes only; the reference has no clock).
	Wall []int64 `json:"-"`
}

func (rs *records) len() int { return len(rs.Hash) }

// transcript is what one pass published: the tier-tagged update stream
// and the final event stream. Each is byte-identical to the serial
// engine's; how the two interleave is not (the sharded engines hand
// updates and events to different Push calls).
type transcript struct {
	Updates records `json:"updates"`
	Events  records `json:"events"`

	Bytes   int64 `json:"bytes"`
	Members int64 `json:"members"` // member messages over non-superseded updates
	Fed     int64 `json:"fed"`     // member messages over final events
}

func (t *transcript) streams() [2]*records { return [2]*records{&t.Updates, &t.Events} }

// sink is the JSON-lines record sink every workload writes to: each
// Update and Event is encoded as one line and hashed. The hash stands in
// for the write so the benchmark measures encoding, not a disk.
type sink struct {
	prov    bool
	t       *transcript
	buf     bytes.Buffer
	enc     *json.Encoder
	start   time.Time
	written int
	corrupt int // 1-based record to corrupt (self-test); 0 = none
	// onWrite, when set, observes each record write (traced runs).
	onWrite func(start, end time.Time)
}

func newSink(prov bool, start time.Time) *sink {
	s := &sink{prov: prov, t: &transcript{}, start: start}
	s.enc = json.NewEncoder(&s.buf)
	return s
}

// add writes every record of res, stamping each with push index at and
// the streamer watermark wm; clock stamps the write time as well.
func (s *sink) add(res *core.DigestResult, at int, wm time.Time, clock bool) error {
	if res == nil {
		return nil
	}
	for i := range res.Updates {
		u := &res.Updates[i]
		if u.Status != event.StatusSuperseded {
			s.t.Members += int64(len(u.Event.MessageSeqs))
		}
		first := u.Status == event.StatusProvisional && u.Revision == 0
		if err := s.write(&s.t.Updates, u, first, at, wm, u.Event.End, clock); err != nil {
			return err
		}
	}
	for i := range res.Events {
		e := &res.Events[i]
		s.t.Fed += int64(len(e.MessageSeqs))
		if err := s.write(&s.t.Events, e, !s.prov, at, wm, e.End, clock); err != nil {
			return err
		}
	}
	return nil
}

func (s *sink) write(rs *records, rec any, first bool, at int, wm, end time.Time, clock bool) error {
	var t0 time.Time
	if s.onWrite != nil {
		t0 = time.Now()
	}
	s.buf.Reset()
	if err := s.enc.Encode(rec); err != nil {
		return fmt.Errorf("sink: %w", err)
	}
	s.written++
	if s.written == s.corrupt {
		s.buf.Bytes()[0] ^= 1
	}
	h := fnv.New64a()
	h.Write(s.buf.Bytes())
	rs.Hash = append(rs.Hash, h.Sum64())
	rs.At = append(rs.At, int32(at))
	rs.First = append(rs.First, first)
	s.t.Bytes += int64(s.buf.Len())
	lag := 0.0
	if first {
		lag = wm.Sub(end).Seconds()
	}
	rs.LogLag = append(rs.LogLag, lag)
	if clock {
		now := time.Now()
		rs.Wall = append(rs.Wall, now.Sub(s.start).Nanoseconds())
		if s.onWrite != nil {
			s.onWrite(t0, now)
		}
	}
	return nil
}

// errMismatch marks a transcript that differs from the reference.
var errMismatch = errors.New("record stream differs from the serial reference")

// check compares a workload transcript with the serial reference: both
// record streams must be byte-identical and in the same order, and no
// record may surface at an earlier push than the reference emitted it.
func (t *transcript) check(ref *transcript) error {
	names := [2]string{"update", "event"}
	for s, rs := range t.streams() {
		want := ref.streams()[s]
		if rs.len() != want.len() {
			return fmt.Errorf("%w: %d %s records, reference %d", errMismatch, rs.len(), names[s], want.len())
		}
		for k := range rs.Hash {
			if rs.Hash[k] != want.Hash[k] {
				return fmt.Errorf("%w: %s record %d", errMismatch, names[s], k)
			}
			if rs.At[k] < want.At[k] {
				return fmt.Errorf("%s record %d surfaced at push %d, before the reference's %d", names[s], k, rs.At[k], want.At[k])
			}
		}
	}
	if t.Fed != ref.Fed {
		return fmt.Errorf("%w: final events hold %d messages, reference %d", errMismatch, t.Fed, ref.Fed)
	}
	return nil
}

// reference is the cached serial-engine result for one feed.
type reference struct {
	Messages int         `json:"messages"`
	Digest   int         `json:"digest_events"` // Digester.Digest final-event count
	T        *transcript `json:"transcript"`
}

func (r *reference) save(path string) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
