package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/stream"
)

// startShardServer hosts an in-test shard server over TCP loopback — the
// same wire path a real sdshard serves, minus the process boundary.
func startShardServer(t *testing.T, kb *KnowledgeBase) *cluster.Server {
	t.Helper()
	srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{
		Dict:  kb.Dictionary(),
		Rules: kb.RuleBase,
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// loopbackAddrs points n shard slots at one server: n sessions, n remote
// RouterLocals, one process — the smallest real cluster.
func loopbackAddrs(srv *cluster.Server, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = srv.Addr()
	}
	return addrs
}

// runEngineUpd is runEngine plus the tier-tagged update transcript, for
// provisional-mode differential runs.
func runEngineUpd(t *testing.T, eng streamEngine, plus []PlusMessage, order []int) ([]event.Event, []event.Update) {
	t.Helper()
	var events []event.Event
	var upds []event.Update
	for _, i := range order {
		evs, err := eng.Observe(streamMsg(&plus[i], i))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
		upds = append(upds, eng.TakeUpdates()...)
	}
	events = append(events, eng.Drain()...)
	return events, append(upds, eng.TakeUpdates()...)
}

// diffEvents requires two emitted sequences to match exactly — set, scores,
// labels, IDs, and emission order.
func diffEvents(t *testing.T, label string, got, want []event.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s emitted %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s event %d differs:\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

// diffUpdates requires two update transcripts to match byte-for-byte.
func diffUpdates(t *testing.T, label string, got, want []event.Update) {
	t.Helper()
	var gb, wb bytes.Buffer
	appendUpdates(t, &gb, got)
	appendUpdates(t, &wb, want)
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s update transcript differs (%d vs %d updates)", label, len(got), len(want))
	}
}

// TestClusterMatchesSerial is the PR 10 differential proof and the make
// cluster-equiv gate: on both vendor corpora, the cluster engine over a
// TCP-loopback shard server at shards ∈ {1, 2, 4} must emit the
// byte-identical event sequence — and, in provisional mode, the identical
// tier-tagged update stream — as the serial in-process engine.
func TestClusterMatchesSerial(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		t.Run(fmt.Sprintf("kind%d", kind), func(t *testing.T) {
			kb, ds := learnSmall(t, kind)
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			plus := kb.AugmentAll(ds.Messages)
			order := feedOrder(plus)
			srv := startShardServer(t, kb)

			serial, err := d.newEngine(0, provHorizon)
			if err != nil {
				t.Fatal(err)
			}
			want, wantUpds := runEngineUpd(t, serial, plus, order)
			if len(want) == 0 {
				t.Fatal("serial engine emitted no events; corpus too small to test")
			}
			if len(wantUpds) == 0 {
				t.Fatal("serial engine emitted no updates; horizon too long to test")
			}

			for _, shards := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
					eng, err := stream.NewCluster(kb.Dictionary(), kb.RuleBase,
						d.engineConfig(0, provHorizon), loopbackAddrs(srv, shards))
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					got, gotUpds := runEngineUpd(t, eng, plus, order)
					diffEvents(t, fmt.Sprintf("cluster shards=%d", shards), got, want)
					diffUpdates(t, fmt.Sprintf("cluster shards=%d", shards), gotUpds, wantUpds)
				})
			}
		})
	}
}

// TestClusterStreamerMatchesSerial runs the full front-end (reorder buffer
// + engine selection via StreamerOptions.ShardAddrs) against the serial
// streamer, and reconciles the stream.cluster.* series against the
// stream.shard.* and stream.merge.* series it rides with: every batch sent
// was acked, every punctuation applied exactly once per batch, per-shard
// pushed counts sum to the feed, the merge stage emitted every event, and
// the rule-scan counters equal the serial run's.
func TestClusterStreamerMatchesSerial(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	srv := startShardServer(t, kb)

	run := func(opts StreamerOptions, reg *obs.Registry) []event.Event {
		st := NewStreamerWith(d, opts)
		defer st.Close()
		st.Instrument(reg)
		var events []event.Event
		for _, m := range ds.Messages {
			res, err := st.Push(m)
			if err != nil {
				t.Fatal(err)
			}
			if res != nil {
				events = append(events, res.Events...)
			}
		}
		res, err := st.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			events = append(events, res.Events...)
		}
		if st.Pending() != 0 {
			t.Fatalf("pending after flush = %d", st.Pending())
		}
		return events
	}
	wantReg := obs.NewRegistry()
	want := run(StreamerOptions{}, wantReg)
	wantSnap := wantReg.Snapshot()

	for _, shards := range []int{2, 4} {
		reg := obs.NewRegistry()
		addrs := loopbackAddrs(srv, shards)
		got := run(StreamerOptions{ShardAddrs: addrs}, reg)
		diffEvents(t, fmt.Sprintf("cluster streamer shards=%d", shards), got, want)

		snap := reg.Snapshot()
		sent, acked := snap.Counter("stream.cluster.batches_sent"), snap.Counter("stream.cluster.batches_acked")
		if sent == 0 {
			t.Fatalf("shards=%d: no batches sent", shards)
		}
		if sent != acked {
			t.Fatalf("shards=%d: %v batches sent, %v acked", shards, sent, acked)
		}
		// Each engine batch fans out to every shard (the sync invariant) and
		// is applied by the merge stage exactly once.
		if punct := snap.Counter("stream.cluster.punctuations_applied"); sent != punct*uint64(shards) {
			t.Fatalf("shards=%d: %v batches sent != %v punctuations applied x %d shards",
				shards, sent, punct, shards)
		}
		var shardPushed uint64
		for k := 0; k < shards; k++ {
			shardPushed += snap.Counter(fmt.Sprintf("stream.shard.%d.pushed", k))
		}
		if pushed := snap.Counter("stream.pushed"); shardPushed != pushed {
			t.Fatalf("shards=%d: per-shard pushed sums to %v, streamer pushed %v",
				shards, shardPushed, pushed)
		}
		if em, mem := snap.Counter("stream.emitted"), snap.Counter("stream.merge.emitted"); em != mem || em != uint64(len(want)) {
			t.Fatalf("shards=%d: emitted=%v merge.emitted=%v want %d", shards, em, mem, len(want))
		}
		if snap.Counter("stream.cluster.bytes_out") == 0 || snap.Counter("stream.cluster.bytes_in") == 0 {
			t.Fatalf("shards=%d: wire byte counters did not move", shards)
		}
		if snap.Counter("stream.cluster.reconnects") != 0 {
			t.Fatalf("shards=%d: unexpected reconnects in a quiet run", shards)
		}
		// The rule-scan tallies are router-local, so the remote shards'
		// totals must equal the serial grouper's exactly.
		for _, name := range []string{"group.rule.candidates_scanned", "group.rule.pairs_matched"} {
			if got, w := snap.Counter(name), wantSnap.Counter(name); got != w || w == 0 {
				t.Fatalf("shards=%d: %s = %v, serial %v", shards, name, got, w)
			}
		}
	}
}

// TestClusterKillReconnect injects 10 shard restarts at random points of
// the feed (every live session dropped, exactly like killing the sdshard
// processes) and requires the output — final events and the provisional
// update stream — to stay byte-identical to the serial engine, with the
// reconnect counter accounting for every kill exactly: each kill drops
// all `shards` sessions, and each client redials once.
func TestClusterKillReconnect(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	plus := kb.AugmentAll(ds.Messages)
	order := feedOrder(plus)

	serial, err := d.newEngine(0, provHorizon)
	if err != nil {
		t.Fatal(err)
	}
	want, wantUpds := runEngineUpd(t, serial, plus, order)

	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			srv := startShardServer(t, kb)
			reg := obs.NewRegistry()
			eng, err := stream.NewCluster(kb.Dictionary(), kb.RuleBase,
				d.engineConfig(0, provHorizon), loopbackAddrs(srv, shards))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.SetLogf(t.Logf)
			eng.SetBatchSize(32)
			eng.SetShardedMetrics(stream.ShardedMetrics{Client: cluster.ClientMetrics{
				Reconnects: reg.Counter("reconnects"),
				Replayed:   reg.Counter("replayed"),
			}})

			cuts := killPoints(4242+int64(shards), 10, len(order))
			var got []event.Event
			var gotUpds []event.Update
			next := 0
			for n, i := range order {
				if next < len(cuts) && n == cuts[next] {
					next++
					// Synchronize first: connections are live and quiescent, so
					// the kill drops exactly `shards` established sessions and
					// the redial accounting below is exact.
					eng.Stats()
					srv.KillSessions()
				}
				evs, err := eng.Observe(streamMsg(&plus[i], i))
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, evs...)
				gotUpds = append(gotUpds, eng.TakeUpdates()...)
			}
			got = append(got, eng.Drain()...)
			gotUpds = append(gotUpds, eng.TakeUpdates()...)

			diffEvents(t, "kill/reconnect", got, want)
			diffUpdates(t, "kill/reconnect", gotUpds, wantUpds)

			snap := reg.Snapshot()
			recon, replayed := snap.Counter("reconnects"), snap.Counter("replayed")
			if wantRecon := uint64(len(cuts) * shards); recon != wantRecon {
				t.Fatalf("reconnects = %v, want exactly %v (%d kills x %d shards)",
					recon, wantRecon, len(cuts), shards)
			}
			if replayed == 0 {
				t.Fatal("no batches replayed across reconnects")
			}
		})
	}
}

// TestClusterCheckpointRestore checkpoints a live cluster engine
// mid-stream, restores the snapshot into a fresh cluster at a different
// shard count AND into a serial engine, and requires both continuations to
// finish the stream byte-identically — the snapshot is engine-shape-free,
// and the restored cluster re-seeds its remote shards through the session
// handshake. Every restored engine must hold the open messages the
// snapshotted one held. The second cut is the end of the feed: the
// restored engines see no Observe before their Drain.
func TestClusterCheckpointRestore(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetB)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	plus := kb.AugmentAll(ds.Messages)
	order := feedOrder(plus)
	srv := startShardServer(t, kb)

	serial, err := d.newEngine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := runEngine(t, serial, plus, order)

	// snapshot feeds order[:cut] into eng and checkpoints it, returning the
	// state, the events emitted so far (uncollected carry included), and
	// the open message count.
	snapshot := func(eng streamEngine, cut int) (stream.EngineState, []event.Event, int) {
		t.Helper()
		defer eng.Close() // the snapshot, not the live engine, continues
		var prefix []event.Event
		for _, i := range order[:cut] {
			evs, err := eng.Observe(streamMsg(&plus[i], i))
			if err != nil {
				t.Fatal(err)
			}
			prefix = append(prefix, evs...)
		}
		open := eng.Pending()
		st, carry, _, err := eng.State()
		if err != nil {
			t.Fatal(err)
		}
		return st, append(prefix, carry...), open
	}
	for _, cut := range []int{len(order) / 2, len(order)} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			finish := func(label string, prefix []event.Event, open int, eng streamEngine, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				if got := eng.Pending(); got != open {
					t.Fatalf("%s: restored engine holds %d open messages, snapshot %d", label, got, open)
				}
				got := append([]event.Event(nil), prefix...)
				got = append(got, runEngine(t, eng, plus, order[cut:])...)
				diffEvents(t, label, got, want)
			}
			cfg := d.engineConfig(0, 0)
			eng, err := stream.NewCluster(kb.Dictionary(), kb.RuleBase, cfg, loopbackAddrs(srv, 2))
			if err != nil {
				t.Fatal(err)
			}
			st, prefix, open := snapshot(eng, cut)
			eng4, err := stream.RestoreCluster(kb.Dictionary(), kb.RuleBase, cfg, loopbackAddrs(srv, 4), st)
			finish("cluster->cluster(4)", prefix, open, eng4, err)
			engS, err := stream.RestoreEngine(kb.Dictionary(), kb.RuleBase, cfg, st)
			finish("cluster->serial", prefix, open, engS, err)

			// And the reverse shape change: a sharded in-process snapshot
			// restored into a cluster must continue identically too.
			engSh, err := stream.NewSharded(kb.Dictionary(), kb.RuleBase, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			st2, prefix2, open2 := snapshot(engSh, cut)
			engC, err := stream.RestoreCluster(kb.Dictionary(), kb.RuleBase, cfg, loopbackAddrs(srv, 2), st2)
			finish("sharded->cluster(2)", prefix2, open2, engC, err)
		})
	}
}
