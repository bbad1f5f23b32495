package runtime

import (
	"testing"
	"time"

	"chc/internal/nf"
	nfnat "chc/internal/nf/nat"
	"chc/internal/store"
	"chc/internal/trace"
)

// liveNATChain deploys a single-NF live chain (real goroutines).
func liveNATChain(t *testing.T, instances int) *Chain {
	t.Helper()
	cfg := LiveChainConfig()
	cfg.Seed = 7
	ch := New(cfg, VertexSpec{
		Name:      "nat",
		Make:      func() nf.NF { return nfnat.New() },
		Instances: instances,
		Backend:   BackendCHC,
		Mode:      store.ModeEOCNA,
	})
	ch.Start()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	return ch
}

func liveTrace(seed int64, flows int) *trace.Trace {
	tr := trace.Generate(trace.Config{
		Seed: seed, Flows: flows, PktsPerFlowMean: 12,
		PayloadMedian: 600, Hosts: 16, Servers: 8,
	})
	tr.Pace(2_000_000_000)
	return tr
}

// TestLiveLinearConservation runs real traffic through a live chain and
// checks the chain-wide invariants the DES pins deterministically:
// conservation (every injected clock completes the Fig 6 delete
// protocol), an empty in-flight log (all XOR vectors balanced), and no
// duplicate deliveries at the sink.
func TestLiveLinearConservation(t *testing.T) {
	ch := liveNATChain(t, 2)
	tr := liveTrace(7, 60)
	ch.RunTrace(tr, 100*time.Millisecond)
	if !ch.AwaitDrained(10 * time.Second) {
		st, _ := ch.QueryRootStats(time.Second)
		t.Fatalf("chain did not drain: injected=%d deleted=%d log=%d",
			st.Injected, st.Deleted, st.LogSize)
	}
	ch.Stop()
	if ch.Root.Injected == 0 {
		t.Fatal("no packets injected")
	}
	if ch.Root.Injected != ch.Root.Deleted {
		t.Fatalf("conservation violated: injected=%d deleted=%d", ch.Root.Injected, ch.Root.Deleted)
	}
	if ch.Root.LogSize() != 0 {
		t.Fatalf("XOR/delete imbalance: %d packets still logged", ch.Root.LogSize())
	}
	if ch.Sink.Duplicates != 0 {
		t.Fatalf("sink saw %d duplicate deliveries", ch.Sink.Duplicates)
	}
	if ch.Sink.Received == 0 {
		t.Fatal("sink received nothing")
	}
}

// TestLiveFailoverReplay crashes an instance mid-stream under live
// concurrency, fails over with root replay, and checks that the chain
// still converges to a balanced state (the §5.4 failover story on real
// goroutines).
func TestLiveFailoverReplay(t *testing.T) {
	ch := liveNATChain(t, 2)
	ch.Root.traceCommits = map[uint64][]store.CommitMsg{}
	tr := liveTrace(11, 80)

	// Crash one instance roughly mid-trace, from a concurrent goroutine —
	// exactly the interleaving the DES cannot produce.
	crashed := make(chan struct{})
	go func() {
		time.Sleep(time.Duration(tr.Duration()) / 2)
		ch.Controller().Failover(ch.Vertices[0].Instances[0])
		close(crashed)
	}()

	ch.RunTrace(tr, 100*time.Millisecond)
	<-crashed
	if !ch.AwaitDrained(15 * time.Second) {
		st, _ := ch.QueryRootStats(time.Second)
		ch.Stop()
		for clk, ent := range ch.Root.log {
			t.Logf("stuck clock=%d gotDelete=%v finalVec=%08x commitXor=%08x proto=%d flags=%02x commits=%v",
				clk, ent.gotDelete, ent.finalVec, ch.Root.commitXor[clk], ent.pkt.Proto, ent.pkt.TCPFlags, ch.Root.traceCommits[clk])
		}
		t.Fatalf("chain did not drain after failover: injected=%d deleted=%d log=%d replayed=%d",
			st.Injected, st.Deleted, st.LogSize, st.Replayed)
	}
	ch.Stop()
	if ch.Root.Injected != ch.Root.Deleted {
		t.Fatalf("conservation violated after failover: injected=%d deleted=%d",
			ch.Root.Injected, ch.Root.Deleted)
	}
	if ch.Sink.Duplicates != 0 {
		t.Fatalf("sink saw %d duplicates (suppression failed under failover)", ch.Sink.Duplicates)
	}
}

// TestFailoverRoutingNeverLosesInstance: a live router resolving flow keys
// while instances fail over must always find an instance. The failover
// swaps the vertex's routing slot and installs the splitter's redirect as
// one step under the splitter's lock; with a gap between the two, a router
// holding the old instance list resolves the crashed ID to nothing.
func TestFailoverRoutingNeverLosesInstance(t *testing.T) {
	ch := liveNATChain(t, 2)
	defer ch.Stop()
	s := ch.Vertices[0].Splitter
	stop := make(chan struct{})
	lost := make(chan uint64, 1)
	go func() {
		defer close(lost)
		for key := uint64(0); ; key++ {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			in := s.instanceFor(key)
			s.mu.Unlock()
			if in == nil {
				lost <- key
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		ch.Controller().Failover(ch.instancesOf(ch.Vertices[0])[0])
	}
	close(stop)
	if key, ok := <-lost; ok {
		t.Fatalf("flow key %d routed to no instance during a failover", key)
	}
}
