// Package chc is a from-scratch Go reproduction of CHC, the NFV
// state-management framework from "Correctness and Performance for Stateful
// Chained Network Functions" (Khalid & Akella, NSDI 2019).
//
// CHC provides chain output equivalence (COE) for chains of stateful
// network functions: per- and cross-flow state lives in an external store
// with offloaded operations and scope-aware caching, packets carry logical
// clocks assigned at a chain root that also logs in-flight packets, and a
// set of metadata protocols (ownership handover, XOR commit vectors,
// duplicate-suppression logs, checkpoint+WAL recovery) keeps state correct
// through elastic scaling, straggler cloning, and failures of NF instances,
// roots and store instances.
//
// The datastore tier shards across N servers (ChainConfig.StoreShards)
// behind consistent-hash key partitioning, each shard checkpointing and
// recovering independently. Reconfiguration is declarative: the chain's
// Controller reconciles a submitted DeploymentSpec (per-vertex replica
// counts) into the minimal sequence of safe primitives, growing and
// shrinking vertex instance sets mid-run over the Fig 4 handover
// machinery, and Controller.StartAutoscaler drives the same path from a
// per-instance load band (DESIGN.md §5, §8).
//
// This package is the public facade. Typical use:
//
//	cfg := chc.DefaultChainConfig()
//	chain := chc.NewChain(cfg,
//	    chc.VertexSpec{Name: "nat", Make: func() chc.NF { return nat.New() }},
//	)
//	chain.Start()
//	chain.RunTrace(tr, time.Second)
//
// The deployment runs on a deterministic discrete-event simulation of the
// network (see DESIGN.md for the substitution rationale): virtual time,
// configurable link RTTs, and fail-stop crash injection. The store engine
// itself (chc/internal/store) is a real concurrent data structure.
package chc

import (
	"chc/internal/experiments"
	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// Core NF programming model.
type (
	// NF is a network function: state declarations plus per-packet
	// processing.
	NF = nf.NF
	// Ctx is the per-packet processing context handed to NF code.
	Ctx = nf.Ctx
	// Alert is a detection/action event surfaced by an NF.
	Alert = nf.Alert
	// Packet is a parsed packet plus CHC shim metadata.
	Packet = packet.Packet
	// FlowKey is the 5-tuple.
	FlowKey = packet.FlowKey
)

// State model.
type (
	// ObjDecl declares an NF state object: scope + access pattern drive the
	// Table 1 management strategy.
	ObjDecl = store.ObjDecl
	// Value is the store's tagged union value.
	Value = store.Value
	// Request is one offloaded state operation. NF code should not build
	// these directly anymore — declare typed handles instead; the raw form
	// remains for baselines and deployment seeding plumbing.
	Request = store.Request
	// Mode selects the state-management model (EO / EO+C / EO+C+NA).
	Mode = store.Mode
)

// Typed state handles: the declarative NF-facing state API. An NF registers
// each object once through a DeclSet at construction time and uses the
// returned handle in Process — the framework routes every call through the
// configured backend and picks the Table 1 strategy from the declaration.
type (
	// DeclSet accumulates an NF's state-object declarations.
	DeclSet = nf.DeclSet
	// Counter is an integer counter handle (Incr/IncrGet/Value).
	Counter = nf.Counter
	// Gauge is a per-key scalar handle (Set/Get/Delete/CAS).
	Gauge = nf.Gauge
	// Map is a field-table handle (Set/Incr/MinIncr/Snapshot).
	Map = nf.Map
	// Pool is a shared resource-list handle (Push/Pop).
	Pool = nf.Pool
	// NonDet draws replay-stable non-deterministic values (Appendix A).
	NonDet = nf.NonDet
	// Seeder applies raw seeding requests during deployment bring-up.
	Seeder = nf.Seeder
)

// Deployment.
type (
	// ChainConfig tunes a deployment (latencies, thread counts, protocol
	// switches like SyncDelete and XORCheck).
	ChainConfig = runtime.ChainConfig
	// VertexSpec declares one logical NF in the chain.
	VertexSpec = runtime.VertexSpec
	// Chain is a deployed physical chain.
	Chain = runtime.Chain
	// Vertex is a deployed logical NF with its instances and splitter.
	Vertex = runtime.Vertex
	// Instance is one physical NF instance.
	Instance = runtime.Instance
	// Metrics aggregates chain measurements.
	Metrics = runtime.Metrics
	// TopologySpec generalizes the linear chain into a policy DAG: one
	// ordered vertex path per traffic class, with the root's classifier
	// picking each packet's branch. Nil keeps the linear declaration order.
	TopologySpec = runtime.TopologySpec
	// PathSpec routes one traffic class through an ordered vertex subset.
	PathSpec = runtime.PathSpec
	// Trace is a packet trace.
	Trace = trace.Trace
	// TraceConfig drives synthetic trace generation.
	TraceConfig = trace.Config
)

// Execution substrates and multi-process deployment. ChainConfig.Substrate
// selects where the chain runs; on SubstrateNet, ChainConfig.Nodes places
// endpoints on named nodes and ChainConfig.Node makes one OS process host
// one node's share of the chain (DESIGN.md §12).
type (
	// Substrate selects the execution substrate (sim / live / net).
	Substrate = runtime.Substrate
	// NodeSpec declares one node: name, dial address, hosted endpoints.
	NodeSpec = transport.NodeSpec
	// NodeMap resolves endpoints to nodes and nodes to addresses.
	NodeMap = transport.NodeMap
	// WireEnc is the canonical wire encoder handed to payload codecs.
	WireEnc = transport.WireEnc
	// WireDec is the canonical wire decoder handed to payload codecs.
	WireDec = transport.WireDec
)

// Substrates.
const (
	// SubstrateSim is the deterministic DES (the default, the oracle).
	SubstrateSim = runtime.SubstrateSim
	// SubstrateLive is real goroutines + wall-clock in one process.
	SubstrateLive = runtime.SubstrateLive
	// SubstrateNet is real TCP sockets between OS processes.
	SubstrateNet = runtime.SubstrateNet
)

// RegisterWireCodec registers the canonical wire codec for a payload type
// shipped between nodes on SubstrateNet. Every type sent as a message
// payload or call body across nodes must be registered (the wirecodec
// linter enforces this for the framework's own protocol types); tags are
// permanent protocol surface and must never be reused.
func RegisterWireCodec[T any](tag uint16, name string, enc func(*WireEnc, T), dec func(*WireDec) T) {
	transport.RegisterWire[T](tag, name, enc, dec)
}

// NewNodeMap indexes a node declaration list for endpoint resolution.
func NewNodeMap(nodes []NodeSpec) *NodeMap { return transport.NewNodeMap(nodes) }

// Control plane. Reconfiguration is declarative: build a DeploymentSpec
// (per-vertex replica counts), submit it to the chain's Controller, and
// the controller diffs it against the running deployment and emits the
// minimal sequence of safe primitives (consistent-hash scale-out,
// drain-and-retire scale-in, Fig 4 flow handovers) to converge. The raw
// imperative scaling methods on Chain are no longer exported —
// Controller.ApplySpec is the supported mutation path, and failure verbs
// (Failover, CloneStraggler) are controller-mediated.
type (
	// DeploymentSpec declares the desired deployment shape.
	DeploymentSpec = runtime.DeploymentSpec
	// VertexDesire is one vertex's desired replica count (and optional
	// mode restatement, validated immutable).
	VertexDesire = runtime.VertexDesire
	// Controller reconciles DeploymentSpecs against the running chain.
	Controller = runtime.Controller
	// ReconcileAction records one primitive emitted while converging.
	ReconcileAction = runtime.ReconcileAction
	// ControllerStatus is the admin-facing control-plane snapshot.
	ControllerStatus = runtime.ControllerStatus
	// AutoscalerConfig is the metrics-driven scaling policy: a target
	// per-instance load band with hysteresis and cooldown, bounded by
	// min/max replicas.
	AutoscalerConfig = runtime.AutoscalerConfig
	// Autoscaler is a running policy attached to a vertex.
	Autoscaler = runtime.Autoscaler
	// ReplicaSample is one point of an autoscaler's replica trajectory.
	ReplicaSample = runtime.ReplicaSample
)

// Backend kinds.
const (
	// BackendCHC externalizes state to the store (the paper's system).
	BackendCHC = runtime.BackendCHC
	// BackendTraditional keeps state NF-local (baseline "T").
	BackendTraditional = runtime.BackendTraditional
	// BackendLocking is the naive lock-RMW baseline.
	BackendLocking = runtime.BackendLocking
)

// State-management models (Figure 8/10 columns).
var (
	// ModeEO externalizes every operation (model #1).
	ModeEO = store.ModeEO
	// ModeEOC adds the Table 1 caching strategies (model #2).
	ModeEOC = store.ModeEOC
	// ModeEOCNA additionally skips ACK waits on non-blocking ops (model #3).
	ModeEOCNA = store.ModeEOCNA
)

// NewChain builds (but does not start) a chain deployment.
func NewChain(cfg ChainConfig, vertices ...VertexSpec) *Chain {
	return runtime.New(cfg, vertices...)
}

// DefaultChainConfig returns the calibrated defaults from DESIGN.md.
func DefaultChainConfig() ChainConfig { return runtime.DefaultChainConfig() }

// LiveChainConfig returns the calibration for live execution mode: the
// same chain code on real goroutines and wall-clock time instead of the
// deterministic simulation (DESIGN.md §7).
func LiveChainConfig() ChainConfig { return runtime.LiveChainConfig() }

// NetChainConfig returns the live calibration retargeted at real TCP
// sockets (DESIGN.md §12): nodes declares endpoint placement, node names
// the node THIS process hosts ("" runs every node in-process as a
// loopback cluster).
func NetChainConfig(nodes []NodeSpec, node string) ChainConfig {
	return runtime.NetChainConfig(nodes, node)
}

// GenerateTrace builds a synthetic, deterministic packet trace with the
// aggregate properties of the paper's campus-to-EC2 captures.
func GenerateTrace(cfg TraceConfig) *Trace { return trace.Generate(cfg) }

// DefaultTraceConfig mirrors a scaled-down Trace2.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// Experiments exposes the paper's evaluation harness: map of experiment id
// to runner (see DESIGN.md §3 for the per-experiment index).
func Experiments() map[string]func(experiments.Opts) *experiments.Table {
	return experiments.All()
}

// ExperimentOrder is the canonical presentation order of experiment ids.
var ExperimentOrder = experiments.Order

// ExperimentOpts scales experiment runs.
type ExperimentOpts = experiments.Opts

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// SmallScale is the CI-friendly experiment scale.
func SmallScale() ExperimentOpts { return experiments.Small() }

// FullScale is the paper-like experiment scale.
func FullScale() ExperimentOpts { return experiments.Full() }
