package livenet

import (
	"testing"
	"time"

	"chc/internal/transport"
)

// replyVal and bodyVal are boxed once, so the measured loops box nothing.
var replyVal, bodyVal any = new(int), new(int)

// TestCallAllocs: a proc-to-proc blocking call whose reply is inline
// (zero-delay link) allocates only its callMsg. The caller's timer and
// wake channel belong to its process and are reused call after call.
func TestCallAllocs(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Shutdown()
	n.Spawn("server", func(p transport.Proc) {
		ep := n.Endpoint("srv")
		for {
			ep.Recv(p).Payload.(transport.Call).Reply(replyVal, 8)
		}
	})
	cli := newProc(n, "cli")
	call := func() {
		if v, ok := n.Call(cli, "cli", "srv", bodyVal, 8, time.Second); !ok || v != replyVal {
			t.Fatalf("call returned %v ok=%v", v, ok)
		}
	}
	for i := 0; i < 10; i++ {
		call() // first use creates the timer and the mailbox arrays
	}
	if a := testing.AllocsPerRun(200, call); a > 1 {
		t.Fatalf("blocking call allocates %.1f times, want <= 1 (the callMsg)", a)
	}
}

// TestSleepAllocs: Sleep re-arms the process's one timer, so after the
// first call it allocates nothing (a periodic flusher sleeping every tick
// costs no garbage).
func TestSleepAllocs(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Shutdown()
	p := newProc(n, "sleeper")
	p.Sleep(time.Microsecond)
	if a := testing.AllocsPerRun(50, func() { p.Sleep(time.Microsecond) }); a != 0 {
		t.Fatalf("Sleep allocates %.1f times after the first call, want 0", a)
	}
}

// TestMailboxSteadyAllocs: a mailbox that empties between bursts, and one
// that carries a standing backlog, both reuse their backing array.
func TestMailboxSteadyAllocs(t *testing.T) {
	msg := transport.Message{From: "a", To: "b", Payload: bodyVal, Size: 8}
	for _, backlog := range []int{0, 3} {
		m := newMailbox()
		for i := 0; i < backlog; i++ {
			m.push(msg)
		}
		cycle := func() {
			for i := 0; i < 4; i++ {
				m.push(msg)
			}
			for i := 0; i < 4; i++ {
				if _, ok := m.pop(); !ok {
					t.Fatal("pop from a non-empty mailbox failed")
				}
			}
		}
		cycle()
		if a := testing.AllocsPerRun(1000, cycle); a != 0 {
			t.Fatalf("backlog %d: steady push/pop allocates %.1f times per cycle, want 0", backlog, a)
		}
		if got := m.len(); got != backlog {
			t.Fatalf("backlog %d: mailbox holds %d messages", backlog, got)
		}
	}
}

// TestMailboxReleasesLargeArray: once a mailbox that held more than
// mailboxKeep messages empties, its array is dropped; a smaller one is
// kept for reuse.
func TestMailboxReleasesLargeArray(t *testing.T) {
	msg := transport.Message{From: "a", To: "b", Payload: bodyVal, Size: 8}
	for _, tc := range []struct {
		n        int
		released bool
	}{{mailboxKeep / 2, false}, {mailboxKeep + 1, true}} {
		m := newMailbox()
		for i := 0; i < tc.n; i++ {
			m.push(msg)
		}
		for i := 0; i < tc.n; i++ {
			if _, ok := m.pop(); !ok {
				t.Fatalf("held %d: pop %d failed", tc.n, i)
			}
		}
		if _, ok := m.pop(); ok {
			t.Fatalf("held %d: pop from an empty mailbox succeeded", tc.n)
		}
		if released := cap(m.q) == 0; released != tc.released {
			t.Fatalf("held %d: array cap %d after emptying, released=%v want %v",
				tc.n, cap(m.q), released, tc.released)
		}
	}
}

// TestMailboxFIFOAcrossCompaction: moving the live tail to the front of a
// full array keeps send order.
func TestMailboxFIFOAcrossCompaction(t *testing.T) {
	m := newMailbox()
	const rounds = 200 // each round leaves one more message queued
	next, want := 0, 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < 3; i++ {
			m.push(transport.Message{Payload: next})
			next++
		}
		for i := 0; i < 2; i++ {
			msg, ok := m.pop()
			if !ok || msg.Payload.(int) != want {
				t.Fatalf("round %d: popped %v ok=%v, want %d", round, msg.Payload, ok, want)
			}
			want++
		}
	}
	if cap(m.q) > 4*rounds {
		t.Fatalf("array grew to %d for a backlog of %d", cap(m.q), rounds)
	}
	for ; want < next; want++ {
		if msg, ok := m.pop(); !ok || msg.Payload.(int) != want {
			t.Fatalf("drain: popped %v ok=%v, want %d", msg.Payload, ok, want)
		}
	}
}

// TestSendBurstBacklogBounded: a mailbox fed by SendBurst that never fully
// empties keeps an array bounded by its backlog, not by the traffic it has
// carried. The burst path appends through the same compaction as push.
func TestSendBurstBacklogBounded(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Shutdown()
	box := n.Endpoint("b").(*Endpoint).box
	const burst, rounds = 32, 1000
	msgs := make([]transport.Message, burst)
	next, want := 0, 0
	send := func() {
		for i := range msgs {
			msgs[i] = transport.Message{From: "a", To: "b", Payload: next}
			next++
		}
		n.SendBurst(msgs)
	}
	send() // the standing backlog: one burst always queued
	for round := 0; round < rounds; round++ {
		send()
		for i := 0; i < burst; i++ {
			msg, ok := box.pop()
			if !ok || msg.Payload.(int) != want {
				t.Fatalf("round %d: popped %v ok=%v, want %d", round, msg.Payload, ok, want)
			}
			want++
		}
		if box.len() == 0 {
			t.Fatalf("round %d: backlog drained", round)
		}
	}
	if c := cap(box.q); c > 8*burst {
		t.Fatalf("array grew to %d after %d messages with a standing backlog of %d",
			c, next, next-want)
	}
}
