package stream

import (
	"errors"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/temporal"
)

// fakeLink answers every batch through a scripted reply function; a nil
// function models a link whose reply stream has closed.
type fakeLink struct {
	replies chan shardReply
	reply   func(seq uint64) shardReply
}

func newFakeLink(reply func(seq uint64) shardReply) *fakeLink {
	// Buffered past the few batches a case sends, so send never blocks.
	l := &fakeLink{replies: make(chan shardReply, 64), reply: reply}
	if reply == nil {
		close(l.replies)
	}
	return l
}

func (l *fakeLink) send(seq uint64, _ []*grouping.Pending, _ time.Time, _ bool) {
	if l.reply != nil {
		l.replies <- l.reply(seq)
	}
}

func (l *fakeLink) recv() (shardReply, error) {
	r, ok := <-l.replies
	if !ok {
		return shardReply{}, errors.New("fake link: reply stream closed")
	}
	return r, nil
}

func (l *fakeLink) state() (grouping.LocalPartState, error) { return grouping.LocalPartState{}, nil }
func (l *fakeLink) close()                                  {}

// TestMergeFailurePaths drives the merge stage's failure paths through
// scripted links: a reply for the wrong batch, an in-band shard error, and
// a dead reply stream must each fail the engine — the error surfacing on
// the next Observe and from State — while Drain and Close still return.
func TestMergeFailurePaths(t *testing.T) {
	cases := []struct {
		name  string
		reply func(seq uint64) shardReply
		want  string
	}{
		{"wrong-seq", func(seq uint64) shardReply { return shardReply{seq: seq + 1} }, "answered batch 2, expected 1"},
		{"shard-error", func(seq uint64) shardReply { return shardReply{seq: seq, err: errors.New("shard exploded")} }, "shard exploded"},
		{"closed", nil, "reply stream closed"},
	}
	dict, err := locdict.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grouping: grouping.IncrementalConfig{Config: grouping.Config{
		Temporal:     temporal.Params{Alpha: 0.05, Beta: 5, Smin: time.Second, Smax: 30 * time.Second},
		OnlyTemporal: true,
	}}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewSharded(dict, nil, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			local := e.newLink
			e.newLink = func(k int, rl *grouping.RouterLocal) shardLink {
				if k == 1 {
					return newFakeLink(tc.reply)
				}
				return local(k, rl)
			}
			e.SetBatchSize(8)
			done := make(chan struct{})
			go func() {
				defer close(done)
				now := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
				for i := 0; i < 8; i++ { // exactly one batch
					r := []string{"r0", "r1", "r2", "r3"}[i%4]
					if _, err := e.Observe(Message{Seq: i, Time: now, Router: r, Loc: locdict.RouterLoc(r)}); err != nil {
						t.Errorf("observe %d before the failure surfaced: %v", i, err)
						return
					}
				}
				e.Drain()
				_, err := e.Observe(Message{Seq: 8, Time: now, Router: "r0", Loc: locdict.RouterLoc("r0")})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("observe after failure: err %v, want one containing %q", err, tc.want)
				}
				if _, _, _, err := e.State(); err == nil {
					t.Error("State on a failed engine returned no error")
				}
				e.Close()
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("failed engine blocked in Observe, Drain, State or Close")
			}
		})
	}
}
