package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/runtime"
)

// tracedMemProfileRate samples about one allocation per 16 KiB allocated
// during traced trials (the default 512 KiB leaves too few samples per
// layer in a short trial); sampled counts are scaled back up.
const tracedMemProfileRate = 16 << 10

// measureTraced is the traced run. The first half of the budget runs
// untraced trials, the baseline of the tracing overhead; the second half
// runs traced trials. Counters and sampled queues are medians over the
// traced trials; the profiles are pooled over them, as one trial holds
// too few CPU samples per layer.
func measureTraced(w workload, seed int64, budget time.Duration) report {
	base := runTrials(w, seed, budget/2)
	if rep := gateReport(base); !rep.Correct {
		return rep
	}
	baseCPU := iqmOf(base, func(r trialResult) float64 { return r.perPkt(us(r.cpu)) })
	baseLat := iqmOf(base, func(r trialResult) float64 { return us(r.latP50) })

	goruntime.MemProfileRate = tracedMemProfileRate
	var traced []trialResult
	var perTrial []map[string]float64
	cpu := map[string]time.Duration{}
	allocs := map[string]float64{}
	completed := 0
	start := time.Now()
	for i := len(base); ; i++ {
		t0 := time.Now()
		tc := newTracer()
		r := runTrial(w, trialSeed(seed, i), tc)
		logTrial(w.name+" (traced)", r)
		if r.violation == "" {
			m := tc.counters(r)
			m["overhead.cpu_us_per_pkt"] = r.perPkt(us(r.cpu)) - baseCPU
			m["overhead.lat_p50_us"] = us(r.latP50) - baseLat
			perTrial = append(perTrial, m)
			tc.profiles(cpu, allocs)
			completed += r.completed
		}
		r.chain = nil
		traced = append(traced, r)
		if r.violation != "" || time.Since(start)+time.Since(t0) > budget/2 {
			break
		}
	}
	rep := gateReport(append(base, traced...))
	if !rep.Correct {
		return rep
	}
	pooled := map[string]float64{}
	for _, l := range layerNames {
		pooled["cpu."+l+".us_per_pkt"] = us(cpu[l]) / float64(max(completed, 1))
		pooled["allocs."+l+".per_pkt"] = allocs[l] / float64(max(completed, 1))
	}
	for _, pm := range perLayerMetrics() {
		v, ok := pooled[pm.name]
		if !ok {
			var vals []float64
			for _, m := range perTrial {
				if x, ok := m[pm.name]; ok {
					vals = append(vals, x)
				}
			}
			if len(vals) > 0 {
				v = median(vals)
			} // else a vertex this workload's chain lacks: 0
		}
		rep.set(pm.name, pm.unit, v)
	}
	return rep
}

// perLayerMetric names one traced metric and its unit.
type perLayerMetric struct{ name, unit string }

// vertexNames are the vertices of every workload's chain, in a fixed
// order so all workloads report the same metric names (a vertex a chain
// lacks reports zeros).
var vertexNames = []string{"nat", "ids", "lb", "pass1", "pass2"}

// layerNames are the attribution buckets of the CPU and allocation
// profiles (see layerOf).
var layerNames = []string{
	"runtime", "livenet", "store.client", "store.server", "nf", "packet", "transport",
	"chc.other", "bench", "go.gc", "go.sched", "go.other",
}

// perLayerMetrics lists every per-layer metric a traced run prints.
func perLayerMetrics() []perLayerMetric {
	ms := []perLayerMetric{
		{"driver.lag_ms", "ms"},
		{"root.proc_p50_us", "us"}, {"root.queue_max", "count"}, {"root.queue_mean", "count"},
		{"root.log_max", "count"}, {"root.replayed_per_pkt", "count"},
	}
	for _, v := range vertexNames {
		ms = append(ms,
			perLayerMetric{"inst." + v + ".proc_p50_us", "us"},
			perLayerMetric{"inst." + v + ".hop_p50_us", "us"},
			perLayerMetric{"inst." + v + ".queue_max", "count"},
			perLayerMetric{"nf." + v + ".busy_ns_per_pkt", "ns"},
			perLayerMetric{"nf." + v + ".calls", "count"})
	}
	ms = append(ms,
		perLayerMetric{"client.blocking_per_pkt", "count"}, perLayerMetric{"client.async_per_pkt", "count"},
		perLayerMetric{"client.cache_hit_ratio", "ratio"}, perLayerMetric{"client.coalesced_ratio", "ratio"},
		perLayerMetric{"client.ops_per_rpc", "ratio"}, perLayerMetric{"client.retransmits_per_op", "ratio"},
		perLayerMetric{"client.pending_acks_max", "count"},
		perLayerMetric{"store.queue_max", "count"}, perLayerMetric{"store.keys", "count"},
		perLayerMetric{"store.dup_log_clocks", "count"},
		perLayerMetric{"arena.reuse_ratio", "ratio"},
		perLayerMetric{"sink.duplicates", "count"}, perLayerMetric{"sink.replay_filtered", "count"})
	for _, l := range layerNames {
		ms = append(ms, perLayerMetric{"cpu." + l + ".us_per_pkt", "us"})
	}
	for _, l := range layerNames {
		ms = append(ms, perLayerMetric{"allocs." + l + ".per_pkt", "count"})
	}
	return append(ms,
		perLayerMetric{"go.gc_cpu_frac", "ratio"}, perLayerMetric{"go.gc_cycles", "count"},
		perLayerMetric{"go.heap_peak_mb", "MB"},
		perLayerMetric{"lat_p90_us", "us"}, perLayerMetric{"lat_p99_us", "us"},
		perLayerMetric{"lat_samples", "count"},
		perLayerMetric{"overhead.cpu_us_per_pkt", "us"}, perLayerMetric{"overhead.lat_p50_us", "us"})
}

// nfStats accumulates one vertex's NF time across its instances.
type nfStats struct {
	busy  atomic.Int64 // nanoseconds inside Process
	calls atomic.Int64
}

// timedNF decorates an NF, timing each Process call (blocking state
// handles included: their store round trips happen inside Process).
type timedNF struct {
	nf.NF
	st *nfStats
}

func (t timedNF) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	t0 := time.Now()
	out := t.NF.Process(ctx, pkt)
	t.st.busy.Add(int64(time.Since(t0)))
	t.st.calls.Add(1)
	return out
}

// tracer is one traced trial's instrumentation: the NF decorator, the
// queue/counter sampler, and the CPU and allocation profiles.
type tracer struct {
	nfs map[string]*nfStats

	ch      *runtime.Chain
	cpuProf bytes.Buffer
	mem0    map[[32]uintptr]memCount
	gc0     []metrics.Sample // GC counters at start and at stop
	gc1     []metrics.Sample
	done    chan struct{}
	wg      sync.WaitGroup

	// Sampled maxima and sums, written by the sampler goroutines and read
	// after wg.Wait.
	samples                       int
	rootQMax, rootQSum            int
	instQMax                      map[string]int
	storeQMax, pendingMax, logMax int
	heapPeak                      uint64
}

func newTracer() *tracer {
	t := &tracer{nfs: map[string]*nfStats{}, instQMax: map[string]int{}}
	for _, v := range vertexNames {
		t.nfs[v] = &nfStats{}
	}
	return t
}

// wrap is the traced run's makeWrapper: every instance of a vertex shares
// the vertex's nfStats.
func (t *tracer) wrap(vertex string, make func() nf.NF) func() nf.NF {
	st := t.nfs[vertex]
	return func() nf.NF {
		inner := make()
		if _, ok := inner.(nf.CustomOpProvider); ok {
			// The decorator would hide the provider from the runtime.
			panic("chainbench: cannot time an NF with custom store ops")
		}
		return timedNF{NF: inner, st: st}
	}
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGCMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (t *tracer) start(ch *runtime.Chain) {
	t.ch = ch
	// Two cycles publish every allocation made so far (the set-up's) to
	// the profile, so the trial's delta excludes them.
	goruntime.GC()
	goruntime.GC()
	t.mem0 = memSnapshot()
	t.gc0 = readGCMetrics()
	if err := pprof.StartCPUProfile(&t.cpuProf); err != nil {
		panic(fmt.Sprintf("chainbench: start CPU profile: %v", err))
	}
	t.done = make(chan struct{})
	t.wg.Add(2)
	go t.sampleQueues()
	go t.sampleLog()
}

func (t *tracer) stop() {
	close(t.done)
	t.wg.Wait()
	pprof.StopCPUProfile()
	t.gc1 = readGCMetrics()
}

// sampleQueues reads queue depths, pending acks and the heap every
// millisecond until stop.
func (t *tracer) sampleQueues() {
	defer t.wg.Done()
	net := t.ch.Net()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		t.samples++
		q := net.Endpoint(t.ch.Root.Endpoint).Len()
		t.rootQMax = max(t.rootQMax, q)
		t.rootQSum += q
		pending := 0
		for _, v := range t.ch.Vertices {
			for _, in := range v.Instances {
				t.instQMax[v.Spec.Name] = max(t.instQMax[v.Spec.Name], net.Endpoint(in.Endpoint).Len())
				if cl := in.Client(); cl != nil {
					pending += cl.PendingAcks()
				}
			}
		}
		t.pendingMax = max(t.pendingMax, pending)
		for i := range t.ch.Stores {
			t.storeQMax = max(t.storeQMax, net.Endpoint(runtime.ShardEndpoint(i)).Len())
		}
		metrics.Read(heap)
		t.heapPeak = max(t.heapPeak, heap[0].Value.Uint64())
	}
}

// sampleLog reads the root's in-flight log size every 10 ms. The query
// queues behind the root's backlog, so it has its own goroutine.
func (t *tracer) sampleLog() {
	defer t.wg.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		if st, ok := t.ch.QueryRootStats(50 * time.Millisecond); ok {
			t.logMax = max(t.logMax, st.LogSize)
		}
	}
}

// counters turns a finished traced trial's samples and counters into its
// per-layer metrics (all but the profiles').
func (t *tracer) counters(r trialResult) map[string]float64 {
	ch := r.chain
	pkts := float64(r.offered)
	m := map[string]float64{
		"driver.lag_ms":           float64(r.lag) / float64(time.Millisecond),
		"root.proc_p50_us":        us(ch.Metrics.Get("proc.root").Percentile(50)),
		"root.queue_max":          float64(t.rootQMax),
		"root.queue_mean":         float64(t.rootQSum) / float64(max(t.samples, 1)),
		"root.log_max":            float64(t.logMax),
		"root.replayed_per_pkt":   float64(ch.Root.Replayed) / pkts,
		"client.pending_acks_max": float64(t.pendingMax),
		"store.queue_max":         float64(t.storeQMax),
		"sink.duplicates":         float64(ch.Sink.Duplicates),
		"sink.replay_filtered":    float64(ch.Sink.ReplayFiltered),
		"go.heap_peak_mb":         float64(t.heapPeak) / (1 << 20),
		"lat_p90_us":              us(r.latP90),
		"lat_p99_us":              us(r.latP99),
		"lat_samples":             float64(r.latN),
	}
	for _, v := range vertexNames {
		if ch.VertexByName(v) == nil {
			continue
		}
		m["inst."+v+".proc_p50_us"] = us(ch.Metrics.Get("proc." + v).Percentile(50))
		m["inst."+v+".hop_p50_us"] = us(ch.Metrics.Get("total." + v).Percentile(50))
		m["inst."+v+".queue_max"] = float64(t.instQMax[v])
		st := t.nfs[v]
		calls := st.calls.Load()
		m["nf."+v+".calls"] = float64(calls)
		m["nf."+v+".busy_ns_per_pkt"] = float64(st.busy.Load()) / float64(max(calls, 1))
	}

	var blocking, async, hits, misses, retrans, coalesced, wire uint64
	for _, v := range ch.Vertices {
		for _, in := range v.Instances {
			cl := in.Client()
			if cl == nil {
				continue
			}
			s := cl.StatsSnapshot()
			blocking += s.BlockingOps
			async += s.AsyncOps
			hits += s.CacheHits
			misses += s.CacheMisses
			retrans += s.Retransmits
			coalesced += s.CoalescedOps
			for i := range ch.Stores {
				sent, _, _ := ch.Net().LinkStats(in.Endpoint, runtime.ShardEndpoint(i))
				wire += sent
			}
		}
	}
	m["client.blocking_per_pkt"] = float64(blocking) / pkts
	m["client.async_per_pkt"] = float64(async) / pkts
	m["client.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["client.coalesced_ratio"] = ratio(coalesced, async+coalesced)
	m["client.ops_per_rpc"] = ratio(blocking+async+coalesced, wire)
	m["client.retransmits_per_op"] = ratio(retrans, async)

	var keys, dupClocks int
	for _, s := range ch.Stores {
		keys += s.Engine().Len()
		dupClocks += s.Engine().PendingClocks()
	}
	m["store.keys"] = float64(keys)
	m["store.dup_log_clocks"] = float64(dupClocks)
	// The pacer and the root each take one arena buffer per admitted
	// packet (the injected copy and the root-log clone).
	m["arena.reuse_ratio"] = ratio(ch.Arena().Reuses(), 2*ch.Root.Injected)

	gcCPU := t.gc1[0].Value.Float64() - t.gc0[0].Value.Float64()
	allCPU := t.gc1[1].Value.Float64() - t.gc0[1].Value.Float64()
	m["go.gc_cpu_frac"] = gcCPU / max(allCPU, 1e-9)
	m["go.gc_cycles"] = float64(t.gc1[2].Value.Uint64() - t.gc0[2].Value.Uint64())

	return m
}

// profiles adds the trial's CPU time and allocations per layer to the
// pooled totals.
func (t *tracer) profiles(cpu map[string]time.Duration, allocs map[string]float64) {
	c, err := cpuByLayer(t.cpuProf.Bytes())
	if err != nil {
		panic(fmt.Sprintf("chainbench: decode CPU profile: %v", err))
	}
	for l, d := range c {
		cpu[l] += d
	}
	goruntime.GC()
	goruntime.GC()
	for l, n := range allocsByLayer(t.mem0, memSnapshot(), goruntime.MemProfileRate) {
		allocs[l] += n
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
