// Package transporttest is a conformance suite run against every
// transport.Transport implementation (the DES-backed simnet and the
// goroutine-backed livenet). It pins the substrate contract the chain
// runtime depends on: per-link FIFO ordering, loss/duplication injection,
// crash fail-stop semantics, RPC round trips and timeouts (a late reply
// never answers a later call), kill-unwind of blocked and zero-sleeping
// processes, and timer delivery.
package transporttest

import (
	"fmt"
	"testing"
	"time"

	"chc/internal/transport"
)

// step is the per-assertion drive budget: virtual on the DES (instant),
// real in live mode (bounded).
const step = 250 * time.Millisecond

// Run executes the conformance suite; mk must return a fresh transport
// per invocation.
func Run(t *testing.T, mk func() transport.Transport) {
	t.Run("FIFOPerLink", func(t *testing.T) { testFIFO(t, mk()) })
	t.Run("FIFOPerLinkWithLatency", func(t *testing.T) { testFIFOLatency(t, mk()) })
	t.Run("LossInjection", func(t *testing.T) { testLoss(t, mk()) })
	t.Run("DupInjection", func(t *testing.T) { testDup(t, mk()) })
	t.Run("LatencyInjection", func(t *testing.T) { testLatency(t, mk()) })
	t.Run("CrashFailStop", func(t *testing.T) { testCrash(t, mk()) })
	t.Run("RestartCleanInbox", func(t *testing.T) { testRestart(t, mk()) })
	t.Run("CallRoundtrip", func(t *testing.T) { testCall(t, mk()) })
	t.Run("CallTimeout", func(t *testing.T) { testCallTimeout(t, mk()) })
	t.Run("CallLateReplyIgnored", func(t *testing.T) { testCallLateReply(t, mk()) })
	t.Run("KillUnblocksRecv", func(t *testing.T) { testKill(t, mk()) })
	t.Run("KillAtZeroSleep", func(t *testing.T) { testKillAtZeroSleep(t, mk()) })
	t.Run("ScheduleFires", func(t *testing.T) { testSchedule(t, mk()) })
	t.Run("BurstFIFO", func(t *testing.T) { testBurstFIFO(t, mk()) })
	t.Run("BurstFanOut", func(t *testing.T) { testBurstFanOut(t, mk()) })
	t.Run("BurstLoss", func(t *testing.T) { testBurstLoss(t, mk()) })
	t.Run("BurstDup", func(t *testing.T) { testBurstDup(t, mk()) })
	t.Run("BurstLatencyFIFO", func(t *testing.T) { testBurstLatency(t, mk()) })
	t.Run("BurstKillMidBurst", func(t *testing.T) { testBurstKill(t, mk()) })
}

// testFIFO: messages on one link arrive in send order.
func testFIFO(t *testing.T, tr transport.Transport) {
	const n = 200
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < n {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	for i := 0; i < n; i++ {
		tr.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
	}
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d messages (got %d)", n, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: got %d", i, v)
		}
	}
}

// testFIFOLatency: send order survives a nonzero link latency (delayed
// deliveries must be dispatched in order, not raced across timers).
func testFIFOLatency(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{Latency: 2 * time.Millisecond})
	const n = 100
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < n {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	for i := 0; i < n; i++ {
		tr.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
	}
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d delayed messages (got %d)", n, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delayed delivery at %d: got %d", i, v)
		}
	}
}

// testLoss: LossProb=1 drops everything; stats record the drops.
func testLoss(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{LossProb: 1.0})
	for i := 0; i < 10; i++ {
		tr.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
	}
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("lossy link delivered %d messages", n)
	}
	sent, delivered, dropped := tr.LinkStats("a", "b")
	if sent != 10 || delivered != 0 || dropped != 10 {
		t.Fatalf("stats sent=%d delivered=%d dropped=%d, want 10/0/10", sent, delivered, dropped)
	}
}

// testDup: DupProb=1 delivers every message twice.
func testDup(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{DupProb: 1.0})
	tr.Send(transport.Message{From: "a", To: "b", Payload: 7, Size: 8})
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 2 {
		t.Fatalf("dup link delivered %d copies, want 2", n)
	}
}

// testLatency: delivery is delayed by at least the configured latency.
func testLatency(t *testing.T, tr transport.Transport) {
	const lat = 20 * time.Millisecond
	tr.SetLink("a", "b", transport.LinkConfig{Latency: lat})
	done := tr.NewSignal()
	start := tr.Now()
	var arrived transport.Time
	tr.Spawn("rx", func(p transport.Proc) {
		tr.Endpoint("b").Recv(p)
		arrived = p.Now()
		done.Resolve(nil)
	})
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	if !tr.Drive(done, step) {
		t.Fatal("delayed message never arrived")
	}
	// Allow 1ms of scheduling slop under the configured latency (timer
	// granularity in live mode; the DES is exact).
	if got := arrived.Sub(start); got < lat-time.Millisecond {
		t.Fatalf("arrived after %v, want >= %v", got, lat)
	}
}

// testCrash: traffic to a crashed endpoint is dropped, and its queued
// inbox is cleared at crash time (fail-stop, no amnesia resurrection).
func testCrash(t *testing.T, tr transport.Transport) {
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	tr.Crash("b")
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("crash left %d messages queued", n)
	}
	tr.Send(transport.Message{From: "a", To: "b", Payload: 2, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("crashed endpoint received %d messages", n)
	}
	// Traffic FROM a crashed endpoint is dropped too.
	tr.Send(transport.Message{From: "b", To: "a", Payload: 3, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	if n := tr.Endpoint("a").Len(); n != 0 {
		t.Fatalf("crashed endpoint transmitted %d messages", n)
	}
}

// testRestart: a restarted endpoint starts empty and receives again.
func testRestart(t *testing.T, tr transport.Transport) {
	tr.Crash("b")
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	tr.Restart("b")
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("restart resurrected %d messages", n)
	}
	tr.Send(transport.Message{From: "a", To: "b", Payload: 2, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 1 {
		t.Fatalf("restarted endpoint has %d messages, want 1", n)
	}
}

// testCall: an RPC round trip returns the server's reply.
func testCall(t *testing.T, tr transport.Transport) {
	tr.Spawn("server", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			m := ep.Recv(p)
			if cm, ok := m.Payload.(transport.Call); ok {
				cm.Reply(cm.Body().(int)*2, 8)
			}
		}
	})
	done := tr.NewSignal()
	var got any
	var ok bool
	tr.Spawn("client", func(p transport.Proc) {
		got, ok = tr.Call(p, "cli", "srv", 21, 8, step/2)
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("call did not complete")
	}
	if !ok || got.(int) != 42 {
		t.Fatalf("call returned %v ok=%v, want 42 true", got, ok)
	}
}

// testCallTimeout: a call to a crashed server times out with ok=false.
func testCallTimeout(t *testing.T, tr transport.Transport) {
	tr.Crash("srv")
	done := tr.NewSignal()
	var ok bool
	tr.Spawn("client", func(p transport.Proc) {
		_, ok = tr.Call(p, "cli", "srv", 1, 8, 10*time.Millisecond)
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("timed-out call did not return")
	}
	if ok {
		t.Fatal("call to crashed endpoint succeeded")
	}
}

// testCallLateReply: a reply that arrives after its call timed out must not
// answer a later call of the same process. The late reply lands once while
// the process sleeps and once while its next call waits; each later call
// must return its own callee's value.
func testCallLateReply(t *testing.T, tr transport.Transport) {
	// "srv" answers 1 after late; "b" answers 2 after the body's ms. late
	// is ten times the short timeout, so a late reply stays late even when
	// a loaded host wakes the caller past its deadline.
	const timeout, late = 10 * time.Millisecond, 100 * time.Millisecond
	tr.Spawn("slow", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			cm := ep.Recv(p).Payload.(transport.Call)
			p.Sleep(late)
			cm.Reply(1, 8)
		}
	})
	tr.Spawn("prompt", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for {
			cm := ep.Recv(p).Payload.(transport.Call)
			p.Sleep(time.Duration(cm.Body().(int)) * time.Millisecond)
			cm.Reply(2, 8)
		}
	})
	done := tr.NewSignal()
	var errs []string
	check := func(what string, v any, ok, wantOK bool) {
		if ok != wantOK || (ok && v != 2) {
			errs = append(errs, fmt.Sprintf("%s returned %v ok=%v", what, v, ok))
		}
	}
	tr.Spawn("client", func(p transport.Proc) {
		defer done.Resolve(nil)
		v, ok := tr.Call(p, "cli", "srv", 0, 8, timeout)
		check("call 1 (slow, times out)", v, ok, false)
		p.Sleep(late + late/2) // call 1's reply lands here
		v, ok = tr.Call(p, "cli", "b", 0, 8, step)
		check("call 2 (prompt)", v, ok, true)
		v, ok = tr.Call(p, "cli", "srv", 0, 8, timeout)
		check("call 3 (slow, times out)", v, ok, false)
		slowB := int((late + late/2) / time.Millisecond)
		v, ok = tr.Call(p, "cli", "b", slowB, 8, step) // call 3's reply lands mid-wait
		check("call 4 (b delayed)", v, ok, true)
	})
	if !tr.Drive(done, time.Second) {
		t.Fatal("calls did not complete")
	}
	for _, e := range errs {
		t.Error(e)
	}
}

// testKill: killing a process blocked in Recv unwinds it; messages sent
// afterwards stay queued (no receiver consumes them).
func testKill(t *testing.T, tr transport.Transport) {
	received := tr.NewSignal()
	h := tr.Spawn("rx", func(p transport.Proc) {
		tr.Endpoint("b").Recv(p)
		received.Resolve(nil) // must never run
	})
	tr.RunFor(5 * time.Millisecond)
	tr.Kill(h)
	tr.RunFor(5 * time.Millisecond)
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	tr.RunFor(10 * time.Millisecond)
	if received.Resolved() {
		t.Fatal("killed process consumed a message")
	}
	if n := tr.Endpoint("b").Len(); n != 1 {
		t.Fatalf("inbox has %d messages, want 1 (unconsumed)", n)
	}
}

// testKillAtZeroSleep: Sleep(0) is a kill point. A process that only
// ever sleeps for zero (as a worker with zero service time does between
// packets) must unwind once killed. The kill comes from another process,
// so the DES, where the spinner never lets virtual time advance, can run
// it too.
func testKillAtZeroSleep(t *testing.T, tr transport.Transport) {
	spinning := tr.NewSignal()
	exited := tr.NewSignal()
	h := tr.Spawn("spin", func(p transport.Proc) {
		defer exited.Resolve(nil)
		for {
			spinning.Resolve(nil)
			p.Sleep(0)
		}
	})
	tr.Spawn("killer", func(p transport.Proc) {
		if _, ok := spinning.WaitTimeout(p, step); ok {
			tr.Kill(h)
		}
	})
	if !tr.Drive(exited, time.Second) {
		t.Fatal("a process looping on Sleep(0) survived Kill")
	}
}

// burstOf builds k messages a->b with payloads base..base+k-1.
func burstOf(from, to string, base, k int) []transport.Message {
	msgs := make([]transport.Message, k)
	for i := range msgs {
		msgs[i] = transport.Message{From: from, To: to, Payload: base + i, Size: 8}
	}
	return msgs
}

// testBurstFIFO: SendBurst preserves send order within a burst, across
// consecutive bursts, and when interleaved with single Sends — the burst
// path is an optimization of N Sends, never a reordering.
func testBurstFIFO(t *testing.T, tr transport.Transport) {
	const bursts, per = 10, 16
	total := bursts*per + bursts // one plain Send between bursts
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < total {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	next := 0
	for i := 0; i < bursts; i++ {
		transport.SendBurst(tr, burstOf("a", "b", next, per))
		next += per
		tr.Send(transport.Message{From: "a", To: "b", Payload: next, Size: 8})
		next++
	}
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d burst messages (got %d)", total, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order burst delivery at %d: got %d", i, v)
		}
	}
}

// testBurstFanOut: one burst spanning several destinations delivers each
// destination's run in order (the live implementation batches per-mailbox
// runs; the split must not lose or reorder anything).
func testBurstFanOut(t *testing.T, tr transport.Transport) {
	const per = 20
	dsts := []string{"b", "c", "d"}
	var msgs []transport.Message
	for i := 0; i < per; i++ {
		for _, d := range dsts {
			msgs = append(msgs, transport.Message{From: "a", To: d, Payload: i, Size: 8})
		}
	}
	done := make([]transport.Signal, len(dsts))
	got := make([][]int, len(dsts))
	for di, d := range dsts {
		di, d := di, d
		done[di] = tr.NewSignal()
		tr.Spawn("rx."+d, func(p transport.Proc) {
			ep := tr.Endpoint(d)
			for len(got[di]) < per {
				m := ep.Recv(p)
				got[di] = append(got[di], m.Payload.(int))
			}
			done[di].Resolve(nil)
		})
	}
	transport.SendBurst(tr, msgs)
	for di, d := range dsts {
		if !tr.Drive(done[di], step) {
			t.Fatalf("destination %s did not drain its burst share (got %d)", d, len(got[di]))
		}
		for i, v := range got[di] {
			if v != i {
				t.Fatalf("destination %s out of order at %d: got %d", d, i, v)
			}
		}
	}
}

// testBurstLoss: loss applies per message inside a burst, and the link
// stats account each one.
func testBurstLoss(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{LossProb: 1.0})
	transport.SendBurst(tr, burstOf("a", "b", 0, 10))
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("lossy link delivered %d burst messages", n)
	}
	sent, delivered, dropped := tr.LinkStats("a", "b")
	if sent != 10 || delivered != 0 || dropped != 10 {
		t.Fatalf("burst stats sent=%d delivered=%d dropped=%d, want 10/0/10", sent, delivered, dropped)
	}
}

// testBurstDup: duplication applies per message inside a burst.
func testBurstDup(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{DupProb: 1.0})
	transport.SendBurst(tr, burstOf("a", "b", 0, 5))
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 10 {
		t.Fatalf("dup link delivered %d burst copies, want 10", n)
	}
}

// testBurstLatency: a burst over a delayed link keeps its order (delayed
// burst members go through the same ordered-dispatch path as singles).
func testBurstLatency(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{Latency: 2 * time.Millisecond})
	const n = 50
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < n {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	transport.SendBurst(tr, burstOf("a", "b", 0, n))
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d delayed burst messages (got %d)", n, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delayed burst delivery at %d: got %d", i, v)
		}
	}
}

// testBurstKill: killing a receiver that consumed part of a burst leaves
// the unconsumed remainder queued (kill-unwind does not tear the burst).
func testBurstKill(t *testing.T, tr transport.Transport) {
	const n = 8
	firstTwo := tr.NewSignal()
	h := tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		ep.Recv(p)
		ep.Recv(p)
		firstTwo.Resolve(nil)
		for {
			ep.Recv(p)
		}
	})
	transport.SendBurst(tr, burstOf("a", "b", 0, 2))
	if !tr.Drive(firstTwo, step) {
		t.Fatal("receiver did not consume the first burst")
	}
	tr.Kill(h)
	tr.RunFor(5 * time.Millisecond)
	transport.SendBurst(tr, burstOf("a", "b", 2, n))
	tr.RunFor(10 * time.Millisecond)
	if q := tr.Endpoint("b").Len(); q != n {
		t.Fatalf("inbox has %d messages after mid-burst kill, want %d unconsumed", q, n)
	}
}

// testSchedule: timers fire, and a later timer does not fire before an
// earlier one has.
func testSchedule(t *testing.T, tr transport.Transport) {
	// Timer callbacks run concurrently in live mode, so the cross-timer
	// ordering observation goes through signals (which synchronize).
	first := tr.NewSignal()
	order := tr.NewSignal()
	done := tr.NewSignal()
	tr.Schedule(time.Millisecond, func() { first.Resolve(nil) })
	tr.Schedule(10*time.Millisecond, func() {
		if first.Resolved() {
			order.Resolve(nil)
		}
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("timers did not fire")
	}
	if !order.Resolved() {
		t.Fatal("later timer fired before earlier timer")
	}
}
