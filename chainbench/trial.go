package main

import (
	"fmt"
	goruntime "runtime"
	"syscall"
	"time"

	nfnat "chc/internal/nf/nat"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
)

// drainBudget bounds how long a trial waits for its chain to drain after
// the last injection; packets still in flight then count as failed.
const drainBudget = 60 * time.Second

// trialResult is what one trial — a fresh chain, one open-loop trace,
// then drain — measured.
type trialResult struct {
	offered   int
	completed int // deleted at the root and delivered to the sink once
	setup     time.Duration
	ingest    time.Duration // RunTrace start to return
	drain     time.Duration // last injection to root log empty
	lag       time.Duration // how far RunTrace returned behind schedule
	drained   bool
	cpu       time.Duration // process user+sys CPU over ingest+drain
	mallocs   uint64
	retained  int64 // live heap growth after Stop+GC
	latN      int
	latP50    time.Duration
	latP90    time.Duration
	latP99    time.Duration
	// violation is non-empty when the run must fail outright: a duplicate
	// delivery, or a class whose injected and deleted counts disagree
	// after drain.
	violation string
	chain     *runtime.Chain // stopped; kept for the traced run's readings
}

func (r trialResult) failed() int { return r.offered - r.completed }

// completedPPS is the completion rate over ingest + drain.
func (r trialResult) completedPPS() float64 {
	return float64(r.completed) / (r.ingest + r.drain).Seconds()
}

// perPkt divides a trial total by its completed packets.
func (r trialResult) perPkt(v float64) float64 { return v / float64(max(r.completed, 1)) }

// setupChain times runtime.New + Start + vertex Seed: the chain accepts
// traffic once it returns.
func setupChain(w workload, seed int64, wrap makeWrapper) (*runtime.Chain, time.Duration) {
	t0 := time.Now()
	ch := w.build(seed, wrap)
	return ch, time.Since(t0)
}

// runTrial deploys a fresh chain, offers one open-loop trace, waits for
// the drain and applies the correctness gate. A non-nil tracer instruments
// the trial: it decorates the NFs, starts once the chain is set up and the
// trace built, and stops once the chain has drained.
func runTrial(w workload, seed int64, tc *tracer) trialResult {
	wrap := plainMake
	if tc != nil {
		wrap = tc.wrap
	}
	ch, setup := setupChain(w, seed, wrap)
	tr := openLoop(w.traffic(seed), int(w.pps*w.ingest.Seconds()), w.pps)
	res := trialResult{offered: tr.Len(), setup: setup, chain: ch}
	offeredByClass := make([]int, len(ch.Classes()))
	for _, ev := range tr.Events {
		offeredByClass[ch.ClassOf(ev.Pkt)]++
	}

	if tc != nil {
		tc.start(ch)
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms0)
	cpu0 := processCPU()

	t0 := time.Now()
	ch.RunTrace(tr, 0)
	res.ingest = time.Since(t0)
	res.lag = res.ingest - tr.Duration()
	res.drain, res.drained = awaitDrain(ch, res.offered)
	awaitSinkIdle(ch)

	res.cpu = processCPU() - cpu0
	goruntime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	if tc != nil {
		tc.stop()
	}
	ch.Stop()
	goruntime.GC()
	goruntime.ReadMemStats(&ms1)
	res.retained = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)

	lat := ch.Metrics.Get("total.chain")
	res.latN = lat.N()
	res.latP50, res.latP90, res.latP99 = lat.Percentile(50), lat.Percentile(90), lat.Percentile(99)
	res.completed, res.violation = gate(ch, offeredByClass, tr, res.drained)
	return res
}

// drained reports whether every offered packet was admitted (or dropped)
// by the root and every admitted one finished the Fig 6 delete.
func drained(st runtime.RootStats, offered int) bool {
	return st.Injected+st.Dropped >= uint64(offered) && st.LogSize == 0 && st.Injected == st.Deleted
}

// drainPoll is the step of the drain poll. A steady-state drain takes
// 0.1-3 ms, so a 1 ms step would quantise it to one or two steps, and
// AwaitDrained's 20 ms step to 0.02 s.
const drainPoll = 100 * time.Microsecond

// awaitDrain polls the root from the last injection until the chain has
// drained or the budget is spent.
func awaitDrain(ch *runtime.Chain, offered int) (time.Duration, bool) {
	t0 := time.Now()
	for {
		st, ok := ch.QueryRootStats(time.Second)
		if ok && drained(st, offered) {
			return time.Since(t0), true
		}
		if time.Since(t0) > drainBudget {
			return time.Since(t0), false
		}
		pause(drainPoll)
	}
}

// pause waits d without letting the process go idle, yielding to the
// chain's goroutines meanwhile. An idle Go scheduler sleeps in whole
// milliseconds, so a sub-millisecond time.Sleep there lasts ~1 ms and
// would quantise the drain to 1 ms steps.
func pause(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		goruntime.Gosched()
	}
}

// awaitSinkIdle waits until the sink's mailbox stays empty for two polls a
// millisecond apart. The last instance sends a packet's delete before its
// output, so the root can drain a moment before the sink has consumed the
// final deliveries; Stop would strand them.
func awaitSinkIdle(ch *runtime.Chain) {
	ep := ch.Net().Endpoint(runtime.SinkEndpoint)
	idle := 0
	for deadline := time.Now().Add(time.Second); idle < 2 && time.Now().Before(deadline); {
		if ep.Len() == 0 {
			idle++
		} else {
			idle = 0
		}
		time.Sleep(time.Millisecond)
	}
}

// gate is the correctness check of a stopped chain. It returns how many
// packets completed (deleted at the root and delivered to the sink once,
// per traffic class) and a non-empty violation when the run must fail
// outright rather than report numbers.
func gate(ch *runtime.Chain, offeredByClass []int, tr *trace.Trace, drainedOK bool) (int, string) {
	root, sink := ch.Root, ch.Sink
	if sink.Duplicates != 0 {
		return 0, fmt.Sprintf("sink saw %d duplicate deliveries", sink.Duplicates)
	}
	completed := 0
	for ci, offered := range offeredByClass {
		inj, del := root.InjectedByClass[ci], root.DeletedByClass[ci]
		recv := sink.ReceivedByClass[uint8(ci)]
		if drainedOK && inj != del {
			return 0, fmt.Sprintf("class %s: injected %d != deleted %d after drain", ch.Classes()[ci], inj, del)
		}
		if recv > uint64(offered) {
			return 0, fmt.Sprintf("class %s: sink received %d > offered %d", ch.Classes()[ci], recv, offered)
		}
		completed += min(int(del), int(recv), offered)
	}
	if drainedOK && root.LogSize() != 0 {
		return 0, fmt.Sprintf("root log holds %d clocks after drain", root.LogSize())
	}
	if v := ch.VertexByName("nat"); v != nil && drainedOK {
		// Exactly-once state: the NAT counts every packet it processed
		// into the store, and every TCP packet crosses the NAT once.
		tcp := 0
		for _, ev := range tr.Events {
			if ch.Classes()[ch.ClassOf(ev.Pkt)] == "tcp" {
				tcp++
			}
		}
		got, _ := ch.StoreGet(store.Key{Vertex: v.ID, Obj: nfnat.ObjTotal})
		if got.Int != int64(tcp) {
			return 0, fmt.Sprintf("nat total-packets counter %d != %d TCP packets offered", got.Int, tcp)
		}
	}
	return completed, ""
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
