package runtime

import (
	"fmt"
	"sort"
	"time"

	"chc/internal/store"
	"chc/internal/transport"
)

// VertexManager collects per-instance statistics and runs operator-supplied
// scaling/straggler logic (§3). The logic itself is policy — the paper's
// contribution is correct state management during the resulting actions —
// so the manager exposes hooks and the experiments trigger actions directly.
type VertexManager struct {
	chain  *Chain
	vertex *Vertex
	// Interval between stat collections.
	Interval time.Duration
	// OnStats, if set, receives periodic instance stats.
	OnStats func(stats []InstanceStats)
	proc    transport.Handle
}

// InstanceStats is one instance's periodic report.
type InstanceStats struct {
	ID        uint16
	Processed uint64
	QueueLen  int
	Dead      bool
}

// NewVertexManager builds a manager.
func NewVertexManager(c *Chain, v *Vertex) *VertexManager {
	return &VertexManager{chain: c, vertex: v, Interval: 10 * time.Millisecond}
}

// Start spawns the collection loop (no-op without an OnStats hook).
func (m *VertexManager) Start() {
	if m.OnStats == nil {
		return
	}
	m.proc = m.chain.tr.Spawn(fmt.Sprintf("vmgr-v%d", m.vertex.ID), func(p transport.Proc) {
		for {
			p.Sleep(m.Interval)
			m.OnStats(m.Snapshot())
		}
	})
}

// Snapshot gathers current stats.
func (m *VertexManager) Snapshot() []InstanceStats {
	var out []InstanceStats
	for _, in := range m.chain.instancesOf(m.vertex) {
		out = append(out, InstanceStats{
			ID:        in.ID,
			Processed: in.ProcessedCount(),
			QueueLen:  m.chain.tr.Endpoint(in.Endpoint).Len(),
			Dead:      in.isDead(),
		})
	}
	return out
}

// --- Dynamic actions ---------------------------------------------------------

// addInstance scales the vertex up with a fresh instance (elastic scaling,
// §5.1) without rebalancing. Deployment mutations go through the
// Controller (ApplySpec / AddInstance); this is its internal primitive.
func (c *Chain) addInstance(v *Vertex) *Instance {
	in := c.newInstance(v)
	c.mu.Lock()
	v.Instances = append(v.Instances, in)
	c.mu.Unlock()
	in.Start()
	v.Splitter.notifyExclusivity()
	return in
}

// moveFlows reallocates the given canonical flow hashes to instance to,
// using the Fig 4 handover protocol (Controller.MoveFlows is the public
// entry point).
func (c *Chain) moveFlows(v *Vertex, flowKeys []uint64, to *Instance) {
	v.Splitter.StartMove(flowKeys, to.ID)
}

// scaleOut adds an instance mid-run and rebalances the splitter with
// consistent-hash movement: of the partition keys seen so far, only those
// that remap onto the NEW instance actually move — via Fig 4 handovers, so
// no in-flight flow is reordered — while keys that would merely reshuffle
// among the existing instances are pinned where they are. New keys hash
// across the enlarged instance set immediately.
func (c *Chain) scaleOut(v *Vertex) *Instance {
	plan := v.Splitter.planScaleOut()
	in := c.addInstance(v)
	v.Splitter.applyScaleOut(plan, in.ID)
	return in
}

// scaleIn drains one instance and removes it. Its partition keys hand over
// to the survivors through the move protocol (ordered per flow); the
// splitter stops placing new keys on it immediately; once grace has
// elapsed AND the instance is quiescent, it flushes its caches, any
// per-flow ownership left behind is released at the store tier, and the
// instance stops. Callers drive the simulation past grace (plus drain
// slack under backlog) before relying on the instance being gone.
func (c *Chain) scaleIn(v *Vertex, inst *Instance, grace time.Duration) {
	targets := v.Splitter.planScaleIn(inst.ID)
	keys := make([]uint64, 0, len(targets))
	for key := range targets {
		keys = append(keys, key)
	}
	// Deterministic move/seed order: map iteration order would perturb
	// same-instant message scheduling and break seed reproducibility.
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, key := range keys {
		v.Splitter.StartMove([]uint64{key}, targets[key])
	}
	inst.setDraining(true)
	last := inst.ProcessedCount()
	c.tr.Schedule(grace, func() { c.pollScaleIn(v, inst, last) })
}

// pollScaleIn retires the instance only once it is quiescent: an empty
// inbox, no packet processed since the previous poll, and no outstanding
// async state operations. The poll spacing exceeds the link latency, so
// quiescence across one interval means nothing is in flight toward the
// instance either — the final flush/release/crash then runs atomically
// without dropping a packet. The unacked-op condition matters when the
// drain follows a scale-out under backlog: ops this instance issued for a
// flow whose handover release is still pending sit conflicted-unacked,
// kept alive only by the client's retransmission — crashing now would
// silence the retries and lose the updates (their clocks' Fig 6 vectors
// could never balance).
func (c *Chain) pollScaleIn(v *Vertex, inst *Instance, lastProcessed uint64) {
	idle := c.tr.Endpoint(inst.Endpoint).Len() == 0 && inst.ProcessedCount() == lastProcessed &&
		inst.inFlightCount() == 0 && !inst.holdsParked()
	if inst.client != nil && inst.client.PendingAcks() > 0 {
		idle = false
	}
	if !idle {
		interval := 500 * time.Microsecond
		if m := 4 * c.cfg.LinkLatency; m > interval {
			interval = m
		}
		// Snapshot NOW (not at fire time) so the next poll really compares
		// against this poll's count.
		last := inst.ProcessedCount()
		c.tr.Schedule(interval, func() { c.pollScaleIn(v, inst, last) })
		return
	}
	c.finishScaleIn(v, inst)
}

// finishScaleIn completes a drain: outstanding handovers touching the
// drained instance are force-completed or retargeted (their flows route
// straight to live targets), cached operations flush, residual ownership
// is released on every shard, and the instance fail-stops.
func (c *Chain) finishScaleIn(v *Vertex, inst *Instance) {
	v.Splitter.RetireInstance(inst.ID)
	if inst.client != nil {
		inst.client.FlushAll()
	}
	for _, s := range c.Stores {
		s.Engine().ReassignOwner(inst.ID, 0)
	}
	inst.Crash()
	v.Splitter.notifyExclusivity()
}

// failoverNF replaces a crashed (or about-to-be-crashed) instance: a fresh
// instance takes over its ID space, the datastore manager re-binds per-flow
// state, the splitter redirects, and the root replays logged packets
// (§5.4 "NF Failover").
//
// The replacement takes over the crashed instance's ROUTING SLOT in the
// vertex (in-place, not appended): the splitter partitions by
// hash % len(instances), so growing the list on failover would remap
// every flow mid-replay. A remapped flow's replayed packets then
// re-execute at a DIFFERENT live instance, whose re-applied ops commit
// under that instance's identity while the packet's first-pass XOR vector
// counted them under the crashed instance — a permanently unbalanced
// clock. The DES never surfaced this (its failovers land at quiescent
// instants where every op is already flushed and re-execution is fully
// emulated); live mid-stream crashes hit it immediately.
func (c *Chain) failoverNF(old *Instance) *Instance {
	if !old.isDead() {
		old.Crash()
	}
	v := old.vertex
	nu := c.newInstance(v)
	v.Splitter.Replace(old.ID, nu.ID, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Copy-on-write: concurrent readers hold headers of the old slice
		// (instancesOf), so the slot swap must never mutate it in place.
		insts := append([]*Instance(nil), v.Instances...)
		replaced := false
		for idx, in := range insts {
			if in == old {
				insts[idx] = nu
				replaced = true
				break
			}
		}
		if !replaced {
			insts = append(insts, nu)
		}
		v.Instances = insts
	})
	// Datastore manager associates the failover instance's ID with the
	// failed instance's state, on every shard holding any of it.
	for _, s := range c.Stores {
		s.Engine().ReassignOwner(old.ID, nu.ID)
	}
	c.aliasInstance(nu, old)
	nu.StartReplayTarget()
	nu.Start()
	// Replay brings state up to speed with in-transit packets. In a
	// multi-process deployment every worker executes this verb (SPMD), but
	// only the replacement's home node asks the root to replay — N workers
	// requesting N replays would multiply the replay traffic.
	if c.onNode(nu.Endpoint) {
		c.sendControl(c.Root.Endpoint, ReplayCmd{CloneID: nu.ID})
	}
	return nu
}

// cloneStraggler deploys a clone alongside a straggler (§5.3): the clone is
// initialized from the store (nothing to copy — state is already external),
// replayed packets bring it up to speed, and the splitter replicates
// incoming traffic to both.
func (c *Chain) cloneStraggler(straggler *Instance) *Instance {
	v := straggler.vertex
	clone := c.newInstance(v) // per-instance ExtraDelay is not inherited
	c.aliasInstance(clone, straggler)
	clone.StartReplayTarget()
	c.mu.Lock()
	v.Instances = append(v.Instances, clone)
	c.mu.Unlock()
	clone.Start()
	v.Splitter.Replicate(straggler.ID, clone.ID)
	if c.onNode(clone.Endpoint) {
		c.sendControl(c.Root.Endpoint, ReplayCmd{CloneID: clone.ID})
	}
	return clone
}

// retainFaster ends straggler mitigation keeping the clone: the straggler
// is killed and its traffic redirected.
func (c *Chain) retainFaster(straggler, clone *Instance) {
	v := straggler.vertex
	v.Splitter.StopReplicate(straggler.ID)
	straggler.Crash()
	v.Splitter.Redirect(straggler.ID, clone.ID)
}

// --- Store failover ----------------------------------------------------------

// StoreRecoveryConfig models the costs of rebuilding a store instance.
type StoreRecoveryConfig struct {
	// PerOpCost is the time to decode and re-execute one WAL operation
	// (dominates recovery, Fig 14).
	PerOpCost time.Duration
	// PerClientRTTs is how many round trips fetching each client's WAL,
	// read-log and cached per-flow state costs.
	PerClientRTTs int
}

// DefaultStoreRecoveryConfig mirrors the paper's replay-bound recovery.
func DefaultStoreRecoveryConfig() StoreRecoveryConfig {
	return StoreRecoveryConfig{PerOpCost: 1200 * time.Nanosecond, PerClientRTTs: 2}
}

// RecoverStore fail-stops shard 0 and rebuilds it (the whole store tier in
// single-shard deployments). Kept as the §5.4 entry point fig14 measures.
func (c *Chain) RecoverStore(rcfg StoreRecoveryConfig) (took time.Duration, reexec int) {
	return c.RecoverStoreShard(0, rcfg)
}

// RecoverStoreShard fail-stops shard idx and rebuilds it per §5.4: per-flow
// state from client caches, shared state from the shard's last checkpoint
// plus WAL re-execution with TS selection. Client recovery inputs are
// filtered through the partition map so only the failed shard's keys are
// replayed — surviving shards are untouched. Returns the recovery duration
// and the number of re-executed operations.
func (c *Chain) RecoverStoreShard(idx int, rcfg StoreRecoveryConfig) (took time.Duration, reexec int) {
	old := c.Stores[idx]
	shard := old.Name
	old.Crash()

	done := c.tr.NewSignal()
	c.tr.Spawn("store-recovery", func(p transport.Proc) {
		start := p.Now()
		// Gather recovery inputs from every CHC client; each costs RTTs.
		// Each client's view is restricted to the failed shard's key slice.
		var clients []store.ClientState
		rtt := 2 * c.cfg.LinkLatency
		for _, v := range c.Vertices {
			for _, in := range c.instancesOf(v) {
				if in.client == nil || in.isDead() {
					continue
				}
				p.Sleep(time.Duration(rcfg.PerClientRTTs) * rtt)
				cs := store.ClientState{
					Instance: in.ID,
					WAL:      in.client.WAL(),
					ReadLog:  in.client.ReadLog(),
					PerFlow:  in.client.CachedPerFlow(),
					Dropped:  in.client.WALDropped()[shard],
				}
				clients = append(clients, cs.FilterForShard(c.pmap, shard))
			}
		}
		// Newest checkpoint that passes content-hash verification and
		// decodes; torn (begun-but-uncommitted) and corrupt entries are
		// skipped, falling back to the previous stable checkpoint, or to
		// full-WAL replay when none survives.
		snap, _, _ := old.StableState().LatestVerified()
		eng, n := store.RecoverEngine(store.RecoverInput{
			Checkpoint: snap,
			Clients:    clients,
		})
		reexec = n
		p.Sleep(time.Duration(n) * rcfg.PerOpCost)

		c.tr.Restart(shard)
		scfg := c.cfg.storeServerConfig(c.Root.Endpoint)
		ns := store.NewServerWithEngine(c.tr, shard, scfg, eng)
		// The replacement keeps writing into the crashed instance's durable
		// checkpoint area rather than starting an empty one.
		ns.AdoptStable(old.StableState())
		// The recovered engine covers each client's entire retained WAL
		// (plus the truncated prefix before it); seed the position vector
		// so the replacement's own checkpoints claim at least that much.
		seedPos := make(map[uint16]uint64, len(clients))
		for _, cs := range clients {
			seedPos[cs.Instance] = cs.Dropped + uint64(len(cs.WAL))
		}
		ns.SeedPositions(seedPos)
		for _, v := range c.Vertices {
			ns.Declare(v.ID, v.Spec.Make().Decls())
		}
		ns.Start()
		c.Stores[idx] = ns
		c.registerCustomOps()
		took = p.Now().Sub(start)
		done.Resolve(nil)
	})
	if !c.tr.Drive(done, 5*time.Second) {
		panic("store recovery did not complete")
	}
	return took, reexec
}
