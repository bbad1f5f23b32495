package store

import (
	"reflect"
	"testing"
	"time"

	"chc/internal/simnet"
	"chc/internal/transport"
	"chc/internal/vtime"
)

// recNet wraps a transport to observe one client: every Send with its
// instant, and the number of timers the client arms.
type recNet struct {
	transport.Transport
	schedules int
	sends     []sentMsg
}

type sentMsg struct {
	at  transport.Time
	msg transport.Message
}

func (n *recNet) Schedule(d time.Duration, fn func()) {
	n.schedules++
	n.Transport.Schedule(d, fn)
}

func (n *recNet) Send(m transport.Message) {
	n.sends = append(n.sends, sentMsg{at: n.Now(), msg: m})
	n.Transport.Send(m)
}

// asyncSends returns the instants at which seq went on the wire.
func (n *recNet) asyncSends(seq uint64) []transport.Time {
	var at []transport.Time
	for _, s := range n.sends {
		if op, ok := s.msg.Payload.(AsyncOp); ok && op.Seq == seq {
			at = append(at, s.at)
		}
	}
	return at
}

// outboundRig is one client on a recording transport talking to one store
// server per shard name.
type outboundRig struct {
	sim     *vtime.Sim
	net     *simnet.Network
	rec     *recNet
	servers map[string]*Server
	client  *Client
}

func newOutboundRig(t *testing.T, shards []string, tweak func(*ClientConfig)) *outboundRig {
	t.Helper()
	sim := vtime.NewSim(1)
	net := simnet.New(sim, simnet.LinkConfig{Latency: testLat})
	r := &outboundRig{sim: sim, net: net, rec: &recNet{Transport: net}, servers: make(map[string]*Server)}
	for _, name := range shards {
		srv := NewServer(net, name, DefaultServerConfig())
		srv.Declare(1, counterDecl)
		srv.Start()
		r.servers[name] = srv
	}
	cfg := ClientConfig{
		Vertex: 1, Instance: 1, Endpoint: "nfa", Shards: shards,
		Mode: ModeEOCNA, Decls: counterDecl,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r.client = NewClient(r.rec, cfg)
	ep := net.Endpoint("nfa")
	sim.Spawn("nfa.loop", func(p *vtime.Proc) {
		for {
			r.client.HandleMessage(ep.Recv(p).Payload)
		}
	})
	return r
}

// TestRetransmitScanDeadlines: an op lost on the client→store link is
// re-sent at exactly send+AckTimeout and send+2·AckTimeout, and the scan
// stops re-sending once the op is acked.
func TestRetransmitScanDeadlines(t *testing.T) {
	r := newOutboundRig(t, []string{"store0"}, nil)
	ack := r.client.cfg.AckTimeout
	r.net.SetLink("nfa", "store0", simnet.LinkConfig{Latency: testLat, LossProb: 1.0})
	// Heal the link between the second retransmission and the third.
	r.sim.Schedule(2*ack+ack/2, func() {
		r.net.SetLink("nfa", "store0", simnet.LinkConfig{Latency: testLat})
	})
	r.sim.Spawn("test", func(p *vtime.Proc) {
		r.client.Update(p, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(9), Clock: 1})
	})
	r.sim.RunFor(20 * ack)

	at := r.rec.asyncSends(1)
	if len(at) == 0 {
		t.Fatal("op never sent")
	}
	s := at[0]
	want := []transport.Time{s, s.Add(ack), s.Add(2 * ack), s.Add(3 * ack)}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("send instants = %v, want %v (send + k·AckTimeout, stopping once acked)", at, want)
	}
	if r.client.Retransmits != 3 {
		t.Fatalf("Retransmits = %d, want 3", r.client.Retransmits)
	}
	if n := r.client.PendingAcks(); n != 0 {
		t.Fatalf("PendingAcks = %d after the ack, want 0", n)
	}
	if v, _ := r.servers["store0"].Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 9 {
		t.Fatalf("value = %d, want 9", v.Int)
	}
}

// TestRetransmitStopsAtShutdown: after Shutdown neither a sent-but-unacked
// op nor a still-queued one reaches the wire again.
func TestRetransmitStopsAtShutdown(t *testing.T) {
	r := newOutboundRig(t, []string{"store0"}, nil)
	ack := r.client.cfg.AckTimeout
	r.net.SetLink("nfa", "store0", simnet.LinkConfig{Latency: testLat, LossProb: 1.0})
	var down transport.Time
	r.sim.Spawn("test", func(p *vtime.Proc) {
		r.client.Update(p, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 1})
		p.Sleep(ack + ack/2)
		// A merge entry still in the queue when the instance dies.
		r.client.Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 2})
		r.client.Shutdown()
		down = p.Now()
	})
	r.sim.RunFor(20 * ack)

	if len(r.rec.sends) != 2 {
		t.Fatalf("%d sends, want 2 (the op and one retransmission before Shutdown)", len(r.rec.sends))
	}
	for _, s := range r.rec.sends {
		if s.at > down {
			t.Fatalf("send at %v after Shutdown at %v", s.at, down)
		}
	}
	if n := r.client.PendingAcks(); n != 0 {
		t.Fatalf("PendingAcks = %d after Shutdown, want 0", n)
	}
}

// TestRetransmitScanScheduleCount: acked ops cost the retransmission scan
// nothing per op — 1,000 of them arm O(1) timers, not one each.
func TestRetransmitScanScheduleCount(t *testing.T) {
	r := newOutboundRig(t, []string{"store0"}, nil)
	const ops = 1000
	r.sim.Spawn("test", func(p *vtime.Proc) {
		for i := 0; i < ops; i++ {
			r.client.Update(p, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(int64(i)), Clock: uint64(i + 1)})
			p.Sleep(time.Microsecond)
		}
	})
	r.sim.RunFor(time.Second)

	if r.client.AsyncOps != ops || r.client.Retransmits != 0 {
		t.Fatalf("async=%d retransmits=%d, want %d/0", r.client.AsyncOps, r.client.Retransmits, ops)
	}
	if n := r.client.PendingAcks(); n != 0 {
		t.Fatalf("PendingAcks = %d, want 0", n)
	}
	if r.rec.schedules > 4 {
		t.Fatalf("client armed %d timers for %d acked ops, want O(1)", r.rec.schedules, ops)
	}
}

// TestBurstBatchingKeepsWALOrder: with BurstRPC on two shards, each
// shard applies ops in exactly the client's WAL order, and the final state
// equals the unbatched run of the same sequence. The sequence merges
// increments on two keys, puts a Set between them, and overflows the merge
// cap.
func TestBurstBatchingKeepsWALOrder(t *testing.T) {
	shards := []string{"store0", "store1"}
	pm := NewPartitionMap(shards)
	// Two keys per shard.
	var keys []Key
	for sub, per := uint64(0), map[string]int{}; len(keys) < 4; sub++ {
		k := Key{Vertex: 1, Obj: 1, Sub: sub}
		if s := pm.ShardFor(k); per[s] < 2 {
			per[s]++
			keys = append(keys, k)
		}
	}

	type result struct {
		vals    map[Key]int64
		stats   Stats
		applied map[string][]uint64
		wal     map[string][]uint64
	}
	run := func(burst bool) result {
		r := newOutboundRig(t, shards, func(cfg *ClientConfig) { cfg.BurstRPC = burst })
		res := result{vals: map[Key]int64{}, applied: map[string][]uint64{}, wal: map[string][]uint64{}}
		for _, name := range shards {
			name := name
			r.servers[name].Engine().SetHooks(Hooks{OnCommit: func(clock uint64, _ uint16, _ Key) {
				res.applied[name] = append(res.applied[name], clock)
			}})
		}
		c := r.client
		r.sim.Spawn("test", func(p *vtime.Proc) {
			clock := uint64(0)
			op := func(o Op, k Key, v int64) {
				clock++
				c.Update(p, Request{Op: o, Key: k, Arg: IntVal(v), Clock: clock})
			}
			for _, k := range keys {
				op(OpIncr, k, 1)
			}
			op(OpIncr, keys[0], 2)
			op(OpSet, keys[1], 100) // between the increments
			for _, k := range keys {
				op(OpIncr, k, 3)
			}
			c.FlushBurst()
			for i := 0; i < defaultCoalesceMax+8; i++ { // overflows the cap
				op(OpIncr, keys[2], 1)
				op(OpIncr, keys[3], 1)
			}
			op(OpSet, keys[3], 7)
			op(OpIncr, keys[3], 1)
			c.FlushBurst()
			op(OpIncr, keys[0], 5)
			c.Get(p, 1, keys[1].Sub, 0) // a blocking call ships the queue
			op(OpIncr, keys[1], 5)
			c.FlushBurst()
		})
		r.sim.RunFor(time.Second)
		for _, k := range keys {
			v, _ := r.servers[pm.ShardFor(k)].Engine().Get(k)
			res.vals[k] = v.Int
		}
		for _, w := range c.WAL() {
			s := pm.ShardFor(w.Req.Key)
			res.wal[s] = append(res.wal[s], w.Clock)
		}
		res.stats = c.StatsSnapshot()
		if n := c.PendingAcks(); n != 0 {
			t.Fatalf("burst=%v: PendingAcks = %d at the end, want 0", burst, n)
		}
		return res
	}

	plain, batched := run(false), run(true)
	for name, res := range map[string]result{"unbatched": plain, "batched": batched} {
		for _, s := range shards {
			if len(res.wal[s]) == 0 {
				t.Fatalf("%s: no ops for %s", name, s)
			}
			if !reflect.DeepEqual(res.applied[s], res.wal[s]) {
				t.Fatalf("%s %s: applied clocks %v != WAL clocks %v", name, s, res.applied[s], res.wal[s])
			}
		}
	}
	if !reflect.DeepEqual(batched.vals, plain.vals) {
		t.Fatalf("batched values %v != unbatched %v", batched.vals, plain.vals)
	}
	if batched.stats.BurstRPCs == 0 || plain.stats.BurstRPCs != 0 {
		t.Fatalf("BurstRPCs batched=%d unbatched=%d, want >0 / 0", batched.stats.BurstRPCs, plain.stats.BurstRPCs)
	}
	if batched.stats.CoalescedOps == 0 || batched.stats.BatchedSends < 2 {
		t.Fatalf("coalesced=%d batchedSends=%d, want merging and a cap overflow",
			batched.stats.CoalescedOps, batched.stats.BatchedSends)
	}
}
