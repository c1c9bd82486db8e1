package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/temporal"
)

// GroupConfig is the grouping configuration a Hello ships: everything a
// shard needs to build its RouterLocal identically to an in-process one.
// The knowledge itself (location dictionary, rule base) is NOT shipped —
// the shard loads the same KB file and the fingerprint check catches a
// mismatch.
type GroupConfig struct {
	Temporal      temporal.Params `json:"temporal"`
	RuleWindowNs  int64           `json:"rule_window_ns"`
	CrossWindowNs int64           `json:"cross_window_ns"`
	MaxScan       int             `json:"max_scan"`
	LinearScan    bool            `json:"linear_scan,omitempty"`
	OnlyTemporal  bool            `json:"only_temporal,omitempty"`
	TemporalRules bool            `json:"temporal_rules,omitempty"`
}

// ConfigFrom flattens a grouping.Config for the wire.
func ConfigFrom(cfg grouping.Config) GroupConfig {
	return GroupConfig{
		Temporal:      cfg.Temporal,
		RuleWindowNs:  int64(cfg.RuleWindow),
		CrossWindowNs: int64(cfg.CrossWindow),
		MaxScan:       cfg.MaxScan,
		LinearScan:    cfg.LinearScan,
		OnlyTemporal:  cfg.OnlyTemporal,
		TemporalRules: cfg.TemporalAndRules,
	}
}

// GroupingConfig rebuilds the grouping.Config on the shard side.
func (gc GroupConfig) GroupingConfig() grouping.Config {
	return grouping.Config{
		Temporal:         gc.Temporal,
		RuleWindow:       time.Duration(gc.RuleWindowNs),
		CrossWindow:      time.Duration(gc.CrossWindowNs),
		MaxScan:          gc.MaxScan,
		LinearScan:       gc.LinearScan,
		OnlyTemporal:     gc.OnlyTemporal,
		TemporalAndRules: gc.TemporalRules,
	}
}

// Fingerprint is a weak structural signature of the grouping knowledge:
// enough to catch a shard pointed at the wrong KB file, cheap enough to
// check on every Hello.
func Fingerprint(dict *locdict.Dictionary, rb *rules.RuleBase) string {
	nr := 0
	if rb != nil {
		nr = rb.Len()
	}
	nl, ns, np := 0, 0, 0
	if dict != nil {
		nl, ns, np = len(dict.Links()), len(dict.Sessions()), len(dict.Paths())
	}
	routers := 0
	if dict != nil {
		routers = dict.Routers()
	}
	return fmt.Sprintf("v1:r%d:l%d:s%d:p%d:rules%d", routers, nl, ns, np, nr)
}

// Hello opens a session.
type Hello struct {
	Shard      int         `json:"shard"`   // shard index, for logs/metrics
	Workers    int         `json:"workers"` // total shard count
	MaxStreams int         `json:"max_streams"`
	KBSig      string      `json:"kb_sig"`
	Config     GroupConfig `json:"config"`
}

// Welcome accepts or rejects a Hello.
type Welcome struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Restore re-seeds a shard session before a replay: the dictionary prefix
// as of the seed snapshot, the RouterLocal part, and the batch sequence
// the seed reflects (replayed batches follow with higher sequences).
type Restore struct {
	BatchSeq uint64                  `json:"batch_seq"`
	Dict     []string                `json:"dict"`
	Part     grouping.LocalPartState `json:"part"`
}

// BatchHeader is the fixed head of a Batch frame.
type BatchHeader struct {
	Seq     uint64
	PunctNs int64
	Drain   bool
	Count   int
}

// appendBatch appends a Batch frame payload: header, then each message
// with Seq/time as deltas and strings as dictionary references.
func appendBatch(b []byte, d *encDict, seq uint64, punctNs int64, drain bool, msgs []*grouping.Pending) []byte {
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendVarint(b, punctNs)
	var flags byte
	if drain {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	prevSeq, prevNs := uint64(0), int64(0)
	for _, p := range msgs {
		m := p.Msg()
		s := uint64(m.Seq)
		b = binary.AppendUvarint(b, s-prevSeq)
		prevSeq = s
		ns := m.Time.UnixNano()
		b = binary.AppendVarint(b, ns-prevNs)
		prevNs = ns
		b = d.appendSym(b, m.Router)
		b = binary.AppendVarint(b, int64(m.Template))
		b = appendLoc(b, d, m.Loc)
		b = binary.AppendUvarint(b, uint64(len(m.AllLocs)))
		for _, loc := range m.AllLocs {
			b = appendLoc(b, d, loc)
		}
		b = binary.AppendUvarint(b, uint64(len(m.Peers)))
		for _, peer := range m.Peers {
			b = d.appendSym(b, peer)
		}
		b = binary.AppendUvarint(b, m.Raw)
	}
	return b
}

func appendLoc(b []byte, d *encDict, loc locdict.Location) []byte {
	b = d.appendSym(b, loc.Router)
	b = binary.AppendUvarint(b, uint64(loc.Level))
	return d.appendSym(b, loc.Name)
}

// batchDecoder streams the messages of a Batch payload.
type batchDecoder struct {
	r       wireReader
	d       *decDict
	left    int
	prevSeq uint64
	prevNs  int64
}

// decodeBatch parses the header and positions a decoder at the first
// message. The decoder aliases payload; both are valid until the next
// frame read.
func decodeBatch(payload []byte, d *decDict) (BatchHeader, batchDecoder, error) {
	bd := batchDecoder{r: wireReader{b: payload}, d: d}
	var h BatchHeader
	var err error
	if h.Seq, err = bd.r.uvarint(); err != nil {
		return h, bd, err
	}
	if h.PunctNs, err = bd.r.varint(); err != nil {
		return h, bd, err
	}
	flags, err := bd.r.u8()
	if err != nil {
		return h, bd, err
	}
	h.Drain = flags&1 != 0
	n, err := bd.r.uvarint()
	if err != nil {
		return h, bd, err
	}
	if n > MaxFrameBytes {
		return h, bd, fmt.Errorf("%w: %d messages", ErrFrameSize, n)
	}
	h.Count = int(n)
	bd.left = h.Count
	return h, bd, nil
}

// next decodes one message into m. Returns false when the batch is
// exhausted. Strings alias the connection dictionary (interned once);
// AllLocs/Peers allocate only when present.
func (bd *batchDecoder) next(m *grouping.Message) (bool, error) {
	if bd.left == 0 {
		return false, nil
	}
	bd.left--
	ds, err := bd.r.uvarint()
	if err != nil {
		return false, err
	}
	bd.prevSeq += ds
	dns, err := bd.r.varint()
	if err != nil {
		return false, err
	}
	bd.prevNs += dns
	m.Seq = int(bd.prevSeq)
	m.Time = time.Unix(0, bd.prevNs).UTC()
	if m.Router, err = bd.d.readSym(&bd.r); err != nil {
		return false, err
	}
	tpl, err := bd.r.varint()
	if err != nil {
		return false, err
	}
	m.Template = int(tpl)
	if m.Loc, err = bd.readLoc(); err != nil {
		return false, err
	}
	nl, err := bd.r.uvarint()
	if err != nil {
		return false, err
	}
	if nl > uint64(len(bd.r.b)) {
		return false, ErrTruncated
	}
	m.AllLocs = nil
	if nl > 0 {
		m.AllLocs = make([]locdict.Location, nl)
		for i := range m.AllLocs {
			if m.AllLocs[i], err = bd.readLoc(); err != nil {
				return false, err
			}
		}
	}
	np, err := bd.r.uvarint()
	if err != nil {
		return false, err
	}
	if np > uint64(len(bd.r.b)) {
		return false, ErrTruncated
	}
	m.Peers = nil
	if np > 0 {
		m.Peers = make([]string, np)
		for i := range m.Peers {
			if m.Peers[i], err = bd.d.readSym(&bd.r); err != nil {
				return false, err
			}
		}
	}
	if m.Raw, err = bd.r.uvarint(); err != nil {
		return false, err
	}
	return true, nil
}

func (bd *batchDecoder) readLoc() (locdict.Location, error) {
	var loc locdict.Location
	var err error
	if loc.Router, err = bd.d.readSym(&bd.r); err != nil {
		return loc, err
	}
	lvl, err := bd.r.uvarint()
	if err != nil {
		return loc, err
	}
	loc.Level = locdict.Level(lvl)
	loc.Name, err = bd.d.readSym(&bd.r)
	return loc, err
}

// DecisionItem is one message's join decisions: the temporal predecessor
// as a Seq delta (0: none) and a range into the batch's rule-delta arena.
type DecisionItem struct {
	Temporal uint64
	RS, RE   int32
}

// DecisionBatch completes one batch: one item per message stepped (a
// prefix of the batch when the shard errored mid-batch), the shard's
// cumulative local stats, and the shard-side error if any.
type DecisionBatch struct {
	Seq      uint64
	Items    []DecisionItem
	Rules    []uint64
	Stats    grouping.LocalStats
	ShardErr string
}

// appendDecisions appends a Decisions frame payload.
func appendDecisions(b []byte, seq uint64, items []DecisionItem, ruleArena []uint64, stats grouping.LocalStats, shardErr string) []byte {
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(stats.Streams))
	b = binary.AppendUvarint(b, uint64(stats.Evictions))
	b = binary.AppendUvarint(b, stats.RuleCandidates)
	b = binary.AppendUvarint(b, stats.RulePairs)
	b = binary.AppendUvarint(b, uint64(len(shardErr)))
	b = append(b, shardErr...)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendUvarint(b, it.Temporal)
		b = binary.AppendUvarint(b, uint64(it.RE-it.RS))
		for _, d := range ruleArena[it.RS:it.RE] {
			b = binary.AppendUvarint(b, d)
		}
	}
	return b
}

// decodeDecisions parses a Decisions payload into db, reusing its slices.
func decodeDecisions(payload []byte, db *DecisionBatch) error {
	r := wireReader{b: payload}
	var err error
	if db.Seq, err = r.uvarint(); err != nil {
		return err
	}
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	db.Stats.Streams = int(u)
	if u, err = r.uvarint(); err != nil {
		return err
	}
	db.Stats.Evictions = int(u)
	if db.Stats.RuleCandidates, err = r.uvarint(); err != nil {
		return err
	}
	if db.Stats.RulePairs, err = r.uvarint(); err != nil {
		return err
	}
	en, err := r.uvarint()
	if err != nil {
		return err
	}
	eb, err := r.bytes(en)
	if err != nil {
		return err
	}
	db.ShardErr = string(eb)
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(payload)) {
		return fmt.Errorf("%w: %d items", ErrFrameSize, n)
	}
	db.Items = db.Items[:0]
	db.Rules = db.Rules[:0]
	for i := uint64(0); i < n; i++ {
		var it DecisionItem
		if it.Temporal, err = r.uvarint(); err != nil {
			return err
		}
		nr, err := r.uvarint()
		if err != nil {
			return err
		}
		if nr > uint64(len(payload)) {
			return fmt.Errorf("%w: %d rule joins", ErrFrameSize, nr)
		}
		it.RS = int32(len(db.Rules))
		for j := uint64(0); j < nr; j++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			db.Rules = append(db.Rules, d)
		}
		it.RE = int32(len(db.Rules))
		db.Items = append(db.Items, it)
	}
	return nil
}

// appendStateReq / decodeStateReq carry just the request token.
func appendStateReq(b []byte, token uint64) []byte {
	return binary.AppendUvarint(b, token)
}

func decodeStateReq(payload []byte) (uint64, error) {
	r := wireReader{b: payload}
	return r.uvarint()
}

// appendState appends a State payload: the echoed token, the dictionary
// length the snapshot reflects, then the JSON part.
func appendState(b []byte, token uint64, part *grouping.LocalPartState) ([]byte, error) {
	raw, err := json.Marshal(part)
	if err != nil {
		return b, err
	}
	b = binary.AppendUvarint(b, token)
	return append(b, raw...), nil
}

// decodeState parses a State payload.
func decodeState(payload []byte) (uint64, grouping.LocalPartState, error) {
	r := wireReader{b: payload}
	var part grouping.LocalPartState
	token, err := r.uvarint()
	if err != nil {
		return 0, part, err
	}
	if err := json.Unmarshal(r.rest(), &part); err != nil {
		return 0, part, fmt.Errorf("cluster: state payload: %w", err)
	}
	return token, part, nil
}

// marshalJSONFrame / unmarshalJSONFrame wrap the JSON control payloads.
func marshalJSONFrame(v any) ([]byte, error) { return json.Marshal(v) }

func unmarshalJSONFrame(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("cluster: control payload: %w", err)
	}
	return nil
}
