package main

import (
	"time"

	"chc/internal/nf"
	nflb "chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	nfps "chc/internal/nf/portscan"
	"chc/internal/packet"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/vtime"
)

// makeWrapper lets the traced run decorate every vertex's NF factory; the
// untraced run passes the factory through unchanged.
type makeWrapper func(vertex string, make func() nf.NF) func() nf.NF

func plainMake(_ string, make func() nf.NF) func() nf.NF { return make }

// workload is one open-loop traffic mix against one chain.
type workload struct {
	name string
	// pps is the fixed offered packet rate; ingest is how long one trial
	// offers it, so a trial offers pps*ingest packets.
	pps    float64
	ingest time.Duration
	// build deploys, starts and seeds a fresh live chain (the set-up the
	// setup_s metric times).
	build func(seed int64, wrap makeWrapper) *runtime.Chain
	// traffic is the trace generator's configuration for a seed.
	traffic func(seed int64) trace.Config
}

var workloads = []workload{
	{
		// The everyday path: cached state plus async +NA writes.
		name: "fork-steady", pps: 5_000, ingest: 500 * time.Millisecond,
		build:   func(seed int64, wrap makeWrapper) *runtime.Chain { return forkChain(seed, store.ModeEOCNA, wrap) },
		traffic: forkTraffic,
	},
	{
		// Every state op a blocking store RPC (the paper's model #1).
		name: "fork-eo", pps: 3_000, ingest: 500 * time.Millisecond,
		build:   func(seed int64, wrap makeWrapper) *runtime.Chain { return forkChain(seed, store.ModeEO, wrap) },
		traffic: forkTraffic,
	},
	{
		// Bare framework forwarding at the smallest packet size.
		name: "pass-64b", pps: 20_000, ingest: 500 * time.Millisecond,
		build:   passChain,
		traffic: passTraffic,
	},
	{
		// The fork-steady chain offered a 20k-packet burst at 1M pps, ~30
		// times its knee (~33k pps on one core), so nearly the whole burst
		// waits at the root and the drain is the chain's time to work off
		// the backlog. That backlog outlasts the store client's 100 ms ack
		// timeout, so retransmission, root-log growth and mailbox backlog
		// all do work, and the chain drains in ~0.6 s. Offered nearer the
		// knee, the drain is the difference of two similar times (backlog
		// work minus ingest), which multiplies the host's noise.
		name: "overload", pps: 1_000_000, ingest: 20 * time.Millisecond,
		build:   func(seed int64, wrap makeWrapper) *runtime.Chain { return forkChain(seed, store.ModeEOCNA, wrap) },
		traffic: forkTraffic,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// forkChain is the `live` experiment's policy DAG: TCP through the NAT,
// UDP through the scan detector, both rejoining at the load balancer.
func forkChain(seed int64, mode store.Mode, wrap makeWrapper) *runtime.Chain {
	cfg := runtime.LiveChainConfig()
	cfg.Seed = seed
	cfg.Topology = &runtime.TopologySpec{
		Paths: []runtime.PathSpec{
			{Class: "tcp", Vertices: []string{"nat", "lb"}},
			{Class: "udp", Vertices: []string{"ids", "lb"}},
		},
	}
	ch := runtime.New(cfg,
		runtime.VertexSpec{Name: "nat", Make: wrap("nat", func() nf.NF { return nfnat.New() }),
			Instances: 2, Backend: runtime.BackendCHC, Mode: mode},
		runtime.VertexSpec{Name: "ids", Make: wrap("ids", func() nf.NF { return nfps.New() }),
			Instances: 1, Backend: runtime.BackendCHC, Mode: mode},
		runtime.VertexSpec{Name: "lb", Make: wrap("lb", func() nf.NF { return nflb.New(8) }),
			Instances: 2, Backend: runtime.BackendCHC, Mode: mode},
	)
	ch.Start()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	ch.Vertices[2].Seed(func(apply func(store.Request)) { nflb.New(8).SeedServers(apply) })
	return ch
}

// forkTraffic is the `live` experiment's mix: 14 data packets per flow on
// average, ~1000 B payloads, 35 % of flows UDP.
func forkTraffic(seed int64) trace.Config {
	return trace.Config{
		Seed: seed, PktsPerFlowMean: 14, PayloadMedian: 1000,
		Hosts: 32, Servers: 16, UDPFrac: 0.35,
	}
}

// passNF forwards every packet untouched and declares no state.
type passNF struct{}

func (passNF) Name() string                                           { return "pass" }
func (passNF) Decls() []store.ObjDecl                                 { return nil }
func (passNF) Process(_ *nf.Ctx, pkt *packet.Packet) []*packet.Packet { return []*packet.Packet{pkt} }

// passChain is two stateless pass-through vertices: root log, Fig 6
// delete, splitters, mailboxes, arena and sink, with no store traffic.
func passChain(seed int64, wrap makeWrapper) *runtime.Chain {
	cfg := runtime.LiveChainConfig()
	cfg.Seed = seed
	mk := func() nf.NF { return passNF{} }
	ch := runtime.New(cfg,
		runtime.VertexSpec{Name: "pass1", Make: wrap("pass1", mk),
			Instances: 1, Backend: runtime.BackendCHC, Mode: store.ModeEOCNA},
		runtime.VertexSpec{Name: "pass2", Make: wrap("pass2", mk),
			Instances: 1, Backend: runtime.BackendCHC, Mode: store.ModeEOCNA},
	)
	ch.Start()
	return ch
}

// passTraffic is all-TCP with 4-8 B payloads: 40-48 B IP packets, the
// minimum Ethernet frame size.
func passTraffic(seed int64) trace.Config {
	return trace.Config{
		Seed: seed, PktsPerFlowMean: 14, PayloadMedian: 6,
		Hosts: 32, Servers: 16,
	}
}

// openLoop generates exactly n packets from cfg and stamps them at a
// constant packet rate, independent of packet size (Trace.Pace fixes the
// bit rate instead). The schedule is open loop: the pacer injects each
// packet when it is due, whether or not the chain kept up.
func openLoop(cfg trace.Config, n int, pps float64) *trace.Trace {
	cfg.Flows = n/15 + 1
	tr := trace.Generate(cfg)
	for len(tr.Events) < n {
		cfg.Flows *= 2
		tr = trace.Generate(cfg)
	}
	tr.Events = tr.Events[:n]
	gap := float64(time.Second) / pps
	for i := range tr.Events {
		tr.Events[i].At = vtime.Time(float64(i) * gap)
	}
	return tr
}
