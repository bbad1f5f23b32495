// Package livenet implements transport.Transport on real goroutines,
// channels and wall-clock time. It is the live-execution substrate: the
// same chain/runtime/store code that runs on the deterministic DES
// (internal/simnet) runs here under genuine concurrency, so the metadata
// protocols are exercised by real interleavings and the race detector
// covers the actual hot paths.
//
// Semantics mirror simnet's:
//
//   - endpoints are named unbounded FIFO inboxes; delivery order per link
//     is send order (plus injected reorder delay);
//   - links model latency/jitter/bandwidth and loss/duplication
//     probabilistically from a seeded source;
//   - Crash fail-stops an endpoint (traffic dropped, inbox cleared);
//   - Kill fail-stops a process at its next blocking point (recv, sleep
//     including a zero sleep, call wait), exactly like the DES's
//     kill-unwind.
//
// Time is reported as nanoseconds since the transport was created, so
// transport.Time values are comparable across both substrates.
package livenet

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"

	"chc/internal/transport"
)

// killSentinel unwinds killed processes (recovered by the spawn wrapper).
type killSentinel struct{ name string }

// Config tunes a live network.
type Config struct {
	// Seed drives loss/duplication/jitter draws and Intn.
	Seed int64
	// DefaultLink applies to links without an explicit SetLink.
	DefaultLink transport.LinkConfig
}

// link is the state for one directed endpoint pair.
type link struct {
	cfg    transport.LinkConfig
	txFree transport.Time // when the link's transmitter is next idle
	up     bool

	sent, delivered, dropped, duplicated uint64
}

// mailboxKeep is the largest backing array (in messages) a mailbox keeps
// for reuse once it empties. A larger one, left by an overload backlog, is
// dropped so the backlog's memory is not pinned after it drains.
const mailboxKeep = 1024

// mailbox is an unbounded FIFO with a wake channel. Lost-wakeup safety:
// push posts a (coalesced) notify; a consumer that pops while more
// messages remain re-posts it, so coalesced notifies never strand queued
// messages when several consumers share the box.
//
// The queue is q[head:]. Popping advances head; once the box empties its
// backing array is reused from the start (or dropped when larger than
// mailboxKeep), so steady traffic appends into the same array.
type mailbox struct {
	mu     sync.Mutex
	q      []transport.Message
	head   int
	notify chan struct{}
}

func newMailbox() *mailbox { return &mailbox{notify: make(chan struct{}, 1)} }

func (m *mailbox) wake() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// appendLocked queues msg. When the array is full and at least half of it
// is already-popped prefix, the live tail moves to the front instead of
// growing the array, so a box that never quite empties stays bounded by
// twice its backlog.
func (m *mailbox) appendLocked(msg transport.Message) {
	if len(m.q) == cap(m.q) && m.head > 0 && m.head >= len(m.q)/2 {
		n := copy(m.q, m.q[m.head:])
		clear(m.q[n:])
		m.q = m.q[:n]
		m.head = 0
	}
	m.q = append(m.q, msg)
}

func (m *mailbox) push(msg transport.Message) {
	m.mu.Lock()
	m.appendLocked(msg)
	m.mu.Unlock()
	m.wake()
}

func (m *mailbox) pop() (transport.Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.q) {
		return transport.Message{}, false
	}
	msg := m.q[m.head]
	m.q[m.head] = transport.Message{}
	m.head++
	if m.head < len(m.q) {
		m.wake()
		return msg, true
	}
	if cap(m.q) > mailboxKeep {
		m.q = nil
	} else {
		m.q = m.q[:0]
	}
	m.head = 0
	return msg, true
}

func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q) - m.head
}

func (m *mailbox) drain() {
	m.mu.Lock()
	m.q, m.head = nil, 0
	m.mu.Unlock()
}

// Endpoint is a named attachment point.
type Endpoint struct {
	name string
	box  *mailbox
	down bool // guarded by net.mu
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Len reports queued messages.
func (e *Endpoint) Len() int { return e.box.len() }

// Recv suspends p until a message is available. A killed process unwinds.
func (e *Endpoint) Recv(p transport.Proc) transport.Message {
	lp := p.(*Proc)
	for {
		if msg, ok := e.box.pop(); ok {
			return msg
		}
		select {
		case <-e.box.notify:
		case <-lp.killed:
			panic(killSentinel{lp.name})
		}
	}
}

// Proc is a live process: a goroutine with a fail-stop kill channel, plus
// the one timer and one wake channel every wait of the process reuses, so
// Sleep allocates nothing and a call only its callMsg.
type Proc struct {
	net    *Net
	name   string
	killed chan struct{}
	once   sync.Once

	// timer serves every Sleep and wait of this process (only the process's
	// own goroutine touches it). go.mod declares go 1.23, so Stop and Reset
	// discard a pending expiry: a re-armed timer never delivers a stale tick.
	timer *time.Timer
	// wake receives a token when a call of this process is resolved
	// (capacity 1). A token can be stale: left by the late reply to an
	// earlier, timed-out call. Waiters therefore re-check their own call.
	wake chan struct{}
}

func newProc(n *Net, name string) *Proc {
	return &Proc{net: n, name: name, killed: make(chan struct{}), wake: make(chan struct{}, 1)}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns nanoseconds since the transport started.
func (p *Proc) Now() transport.Time { return p.net.Now() }

// Sleep suspends the process for real duration d (interruptible by Kill).
// Sleep(d <= 0) does not block but is still a kill point, as the DES's
// zero sleep (a yield) is.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		select {
		case <-p.killed:
			panic(killSentinel{p.name})
		default:
		}
		return
	}
	t := p.arm(d)
	select {
	case <-t.C:
	case <-p.killed:
		t.Stop()
		panic(killSentinel{p.name})
	}
}

// arm returns the process's timer set to fire after d.
func (p *Proc) arm(d time.Duration) *time.Timer {
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	return p.timer
}

func (p *Proc) kill() { p.once.Do(func() { close(p.killed) }) }

// signal is a one-shot handoff with first-wins Resolve. Resolve wakes the
// waiter through wake: a NewSignal future owns its channel and closes it,
// so any number of waiters see it; a call's signal borrows its caller's
// per-process wake channel and posts a token without blocking.
type signal struct {
	mu       sync.Mutex
	v        any
	resolved bool
	wake     chan struct{}
	owned    bool
}

func (s *signal) Resolve(v any) {
	s.mu.Lock()
	if !s.resolved {
		s.resolved = true
		s.v = v
		if s.owned {
			close(s.wake)
		} else {
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
	s.mu.Unlock()
}

func (s *signal) Resolved() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolved
}

func (s *signal) result() (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v, s.resolved
}

func (s *signal) WaitTimeout(p transport.Proc, d time.Duration) (any, bool) {
	lp, _ := p.(*Proc)
	return s.wait(lp, d)
}

// wait is the one wait for a signal (calls, futures, Drive): it parks on
// s.wake until s resolves, d elapses, or p is killed. A process waits on
// its own timer; a caller that is not a process (p == nil) gets a fresh
// one and cannot be killed. Every wake re-checks s itself, so a stale
// token on a shared wake channel only costs one more loop.
func (s *signal) wait(p *Proc, d time.Duration) (any, bool) {
	var t *time.Timer
	var killed chan struct{} // nil for a non-process caller: never ready
	if p != nil {
		t, killed = p.arm(d), p.killed
	} else {
		t = time.NewTimer(d)
	}
	defer t.Stop()
	for {
		if v, ok := s.result(); ok {
			return v, true
		}
		select {
		case <-s.wake:
		case <-t.C:
			// The timer fired, but a resolution racing the deadline must
			// win (matching the DES, where a reply at the deadline instant
			// is delivered): a dropped reply here would make the caller
			// treat an APPLIED operation as failed, unbalancing its
			// packet's XOR vector.
			return s.result()
		case <-killed:
			panic(killSentinel{p.name})
		}
	}
}

// callMsg is the payload wrapper for live RPCs, and the caller's signal:
// a blocking call allocates nothing else.
type callMsg struct {
	signal
	net     *Net
	from    string
	to      string
	payload any
}

// From returns the calling endpoint's name.
func (c *callMsg) From() string { return c.from }

// Body returns the request payload.
func (c *callMsg) Body() any { return c.payload }

// Reply resolves the caller after the return link's model. Duplicate
// replies are no-ops (Resolve is first-wins). Only a delayed reply
// allocates (its dispatcher closure).
func (c *callMsg) Reply(v any, replySize int) {
	delay, ok, _ := c.net.plan(c.to, c.from, replySize)
	if !ok {
		return
	}
	if delay <= 0 {
		c.deliver(v)
		return
	}
	c.net.scheduleDelivery(delay, func() { c.deliver(v) })
}

// deliver lands a reply: it is dropped when the caller's endpoint is down.
func (c *callMsg) deliver(v any) {
	n := c.net
	n.mu.Lock()
	down := n.endpointLocked(c.from).down || n.stopped
	if !down {
		n.linkLocked(c.to, c.from).delivered++
	}
	n.mu.Unlock()
	if !down {
		c.Resolve(v)
	}
}

// Net is a live network: endpoints, links, timers and processes.
type Net struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*Endpoint
	links     map[[2]string]*link
	def       transport.LinkConfig
	procs     map[*Proc]struct{}
	timers    map[*time.Timer]struct{}
	stopped   bool
	wg        sync.WaitGroup

	// Delayed-delivery dispatcher: a single goroutine executes deliveries
	// in (deadline, enqueue-order) order, mirroring the DES event heap's
	// seq tie-break — per-link FIFO holds even when latency is injected
	// (independent time.AfterFunc callbacks would race equal deadlines).
	dmu      sync.Mutex
	dheap    deliveryHeap
	dseq     uint64
	dkick    chan struct{}
	drunning bool
	dstopped bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New creates a live network.
func New(cfg Config) *Net {
	return &Net{
		start:     time.Now(),
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]*link),
		def:       cfg.DefaultLink,
		procs:     make(map[*Proc]struct{}),
		timers:    make(map[*time.Timer]struct{}),
		dkick:     make(chan struct{}, 1),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
}

// delivery is one pending dispatched action.
type delivery struct {
	at  transport.Time
	seq uint64
	fn  func()
}

type deliveryHeap []delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// scheduleDelivery enqueues fn to run after delay, ordered with every
// other scheduled delivery (lazily starts the dispatcher goroutine).
func (n *Net) scheduleDelivery(delay time.Duration, fn func()) {
	n.dmu.Lock()
	if n.dstopped {
		n.dmu.Unlock()
		return
	}
	heap.Push(&n.dheap, delivery{at: n.Now().Add(delay), seq: n.dseq, fn: fn})
	n.dseq++
	if !n.drunning {
		n.drunning = true
		n.wg.Add(1)
		go n.dispatchLoop()
	}
	n.dmu.Unlock()
	select {
	case n.dkick <- struct{}{}:
	default:
	}
}

func (n *Net) dispatchLoop() {
	defer n.wg.Done()
	for {
		n.dmu.Lock()
		if n.dstopped {
			n.dmu.Unlock()
			return
		}
		if len(n.dheap) == 0 {
			n.dmu.Unlock()
			<-n.dkick
			continue
		}
		next := n.dheap[0]
		wait := next.at.Sub(n.Now())
		if wait <= 0 {
			heap.Pop(&n.dheap)
			n.dmu.Unlock()
			next.fn()
			continue
		}
		n.dmu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-n.dkick:
		}
		t.Stop()
	}
}

// Now returns nanoseconds since the transport started.
func (n *Net) Now() transport.Time { return transport.Time(time.Since(n.start)) }

// Intn draws from the seeded (locked) random source.
func (n *Net) Intn(v int64) int64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Int63n(v)
}

func (n *Net) float64() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64()
}

// Endpoint returns (creating on first use) the named endpoint.
func (n *Net) Endpoint(name string) transport.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpointLocked(name)
}

func (n *Net) endpointLocked(name string) *Endpoint {
	if e, ok := n.endpoints[name]; ok {
		return e
	}
	e := &Endpoint{name: name, box: newMailbox()}
	n.endpoints[name] = e
	return e
}

func (n *Net) linkLocked(from, to string) *link {
	key := [2]string{from, to}
	if l, ok := n.links[key]; ok {
		return l
	}
	l := &link{cfg: n.def, up: true}
	n.links[key] = l
	return l
}

// SetLink configures the directed link from -> to.
func (n *Net) SetLink(from, to string, cfg transport.LinkConfig) {
	n.mu.Lock()
	n.links[[2]string{from, to}] = &link{cfg: cfg, up: true}
	n.mu.Unlock()
}

// SetLinkBoth configures both directions with the same config.
func (n *Net) SetLinkBoth(a, b string, cfg transport.LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// SetLinkUp raises or cuts the directed link from -> to.
func (n *Net) SetLinkUp(from, to string, up bool) {
	n.mu.Lock()
	n.linkLocked(from, to).up = up
	n.mu.Unlock()
}

// LinkStats returns delivery statistics for the directed link.
func (n *Net) LinkStats(from, to string) (sent, delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.linkLocked(from, to)
	return l.sent, l.delivered, l.dropped
}

// Crash marks an endpoint down and clears its inbox. The drain happens
// under the network lock so it is atomic with the down flag: no delivery
// can observe the endpoint up and then push after the drain.
func (n *Net) Crash(name string) {
	n.mu.Lock()
	e := n.endpointLocked(name)
	e.down = true
	e.box.drain()
	n.mu.Unlock()
}

// Restart brings a crashed endpoint back with an empty inbox.
func (n *Net) Restart(name string) {
	n.mu.Lock()
	e := n.endpointLocked(name)
	e.down = false
	e.box.drain()
	n.mu.Unlock()
}

// plan applies the directed link's model to one transmission: it counts
// the send, draws loss, and returns the delivery delay. ok is false when
// the message is dropped (endpoint down, link cut, loss draw). dup
// reports an injected duplicate.
func (n *Net) plan(from, to string, size int) (delay time.Duration, ok, dup bool) {
	n.mu.Lock()
	src := n.endpointLocked(from)
	dst := n.endpointLocked(to)
	l := n.linkLocked(from, to)
	l.sent++
	if src.down || dst.down || !l.up || n.stopped {
		l.dropped++
		n.mu.Unlock()
		return 0, false, false
	}
	cfg := l.cfg
	var txWait time.Duration
	if cfg.BandwidthBps > 0 && size > 0 {
		tx := time.Duration(int64(size) * 8 * int64(time.Second) / cfg.BandwidthBps)
		now := n.Now()
		start := now
		if l.txFree > start {
			start = l.txFree
		}
		l.txFree = start.Add(tx)
		txWait = l.txFree.Sub(now)
	}
	n.mu.Unlock()

	if cfg.LossProb > 0 && n.float64() < cfg.LossProb {
		n.mu.Lock()
		l.dropped++
		n.mu.Unlock()
		return 0, false, false
	}
	delay = cfg.Latency + txWait
	if cfg.Jitter > 0 {
		delay += time.Duration(n.Intn(int64(cfg.Jitter)))
	}
	if cfg.ReorderProb > 0 && n.float64() < cfg.ReorderProb {
		delay += cfg.ReorderDelay
	}
	if cfg.DupProb > 0 && n.float64() < cfg.DupProb {
		dup = true
		n.mu.Lock()
		l.duplicated++
		n.mu.Unlock()
	}
	return delay, true, dup
}

// deliverNow lands one message: liveness re-check, stats and the mailbox
// push all happen under the network lock, so a concurrent Crash (which
// drains under the same lock) can never be interleaved between the
// down-check and the push.
func (n *Net) deliverNow(msg transport.Message) {
	n.mu.Lock()
	dst := n.endpointLocked(msg.To)
	if dst.down || n.stopped {
		n.linkLocked(msg.From, msg.To).dropped++
		n.mu.Unlock()
		return
	}
	n.linkLocked(msg.From, msg.To).delivered++
	dst.box.push(msg)
	n.mu.Unlock()
}

// Send transmits msg, applying the link model. It never blocks; zero-delay
// deliveries happen inline on the sender's goroutine, delayed deliveries
// go through the ordered dispatcher — per-link FIFO is preserved in both
// cases.
func (n *Net) Send(msg transport.Message) {
	delay, ok, dup := n.plan(msg.From, msg.To, msg.Size)
	if !ok {
		return
	}
	if delay <= 0 {
		n.deliverNow(msg)
		if dup {
			n.deliverNow(msg)
		}
		return
	}
	n.scheduleDelivery(delay, func() { n.deliverNow(msg) })
	if dup {
		n.scheduleDelivery(delay, func() { n.deliverNow(msg) })
	}
}

// SendBurst transmits msgs with one network-lock acquisition for the
// whole burst and one mailbox lock/notify per same-destination run,
// instead of one of each per message. The link model (loss, duplication,
// jitter, bandwidth serialization) is still applied per message under the
// seeded source, so a burst is observationally a sequence of Sends: FIFO
// holds within the burst and across consecutive bursts on a link.
// Delayed and duplicated deliveries leave the inline path and go through
// the ordered dispatcher, exactly as in Send.
func (n *Net) SendBurst(msgs []transport.Message) {
	if len(msgs) == 0 {
		return
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	// Zero-delay survivors append to the destination mailbox directly; the
	// box lock is held across a same-destination run and the wake is
	// coalesced to one notify per run.
	var curBox *mailbox
	flush := func() {
		if curBox != nil {
			curBox.mu.Unlock()
			curBox.wake()
			curBox = nil
		}
	}
	for _, msg := range msgs {
		src := n.endpointLocked(msg.From)
		dst := n.endpointLocked(msg.To)
		l := n.linkLocked(msg.From, msg.To)
		l.sent++
		if src.down || dst.down || !l.up {
			l.dropped++
			continue
		}
		cfg := l.cfg
		var txWait time.Duration
		if cfg.BandwidthBps > 0 && msg.Size > 0 {
			tx := time.Duration(int64(msg.Size) * 8 * int64(time.Second) / cfg.BandwidthBps)
			now := n.Now()
			start := now
			if l.txFree > start {
				start = l.txFree
			}
			l.txFree = start.Add(tx)
			txWait = l.txFree.Sub(now)
		}
		// rngMu nests inside n.mu here; no caller takes n.mu while holding
		// rngMu, so the ordering is acyclic.
		if cfg.LossProb > 0 && n.float64() < cfg.LossProb {
			l.dropped++
			continue
		}
		delay := cfg.Latency + txWait
		if cfg.Jitter > 0 {
			delay += time.Duration(n.Intn(int64(cfg.Jitter)))
		}
		if cfg.ReorderProb > 0 && n.float64() < cfg.ReorderProb {
			delay += cfg.ReorderDelay
		}
		dup := false
		if cfg.DupProb > 0 && n.float64() < cfg.DupProb {
			dup = true
			l.duplicated++
		}
		if delay > 0 {
			m := msg
			n.scheduleDelivery(delay, func() { n.deliverNow(m) })
			if dup {
				n.scheduleDelivery(delay, func() { n.deliverNow(m) })
			}
			continue
		}
		if curBox != dst.box {
			flush()
			curBox = dst.box
			curBox.mu.Lock()
		}
		l.delivered++
		curBox.appendLocked(msg)
		if dup {
			l.delivered++
			curBox.appendLocked(msg)
		}
	}
	flush()
	n.mu.Unlock()
}

// Call performs an RPC: the callee receives a transport.Call payload and
// replies; the caller blocks up to timeout on its process's wake channel
// (a fresh one when p is not a live process).
func (n *Net) Call(p transport.Proc, from, to string, payload any, size int, timeout time.Duration) (any, bool) {
	lp, _ := p.(*Proc)
	cm := &callMsg{net: n, from: from, to: to, payload: payload}
	if lp != nil {
		cm.wake = lp.wake
	} else {
		cm.wake = make(chan struct{}, 1)
	}
	n.Send(transport.Message{From: from, To: to, Payload: cm, Size: size})
	return cm.wait(lp, timeout)
}

// NewSignal creates a one-shot handoff.
func (n *Net) NewSignal() transport.Signal {
	return &signal{wake: make(chan struct{}), owned: true}
}

// Spawn starts fn on a new goroutine. A killed process unwinds at its next
// blocking point; the panic sentinel is recovered here.
func (n *Net) Spawn(name string, fn func(transport.Proc)) transport.Handle {
	p := newProc(n, name)
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		p.kill()
		return p
	}
	n.procs[p] = struct{}{}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer func() {
			r := recover()
			n.mu.Lock()
			delete(n.procs, p)
			n.mu.Unlock()
			n.wg.Done()
			if r != nil {
				if _, isKill := r.(killSentinel); !isKill {
					panic(r)
				}
			}
		}()
		fn(p)
	}()
	return p
}

// Kill fail-stops a spawned process at its next blocking point.
func (n *Net) Kill(h transport.Handle) {
	if p, ok := h.(*Proc); ok && p != nil {
		p.kill()
	}
}

// Schedule runs fn once after real delay d (dropped after Shutdown).
func (n *Net) Schedule(d time.Duration, fn func()) { n.afterFunc(d, fn) }

// afterFunc is Schedule with shutdown tracking: Shutdown stops pending
// timers and waits for in-flight callbacks.
func (n *Net) afterFunc(d time.Duration, fn func()) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.wg.Add(1)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		n.mu.Lock()
		delete(n.timers, t)
		stopped := n.stopped
		n.mu.Unlock()
		if !stopped {
			fn()
		}
		n.wg.Done()
	})
	n.timers[t] = struct{}{}
	n.mu.Unlock()
}

// RunFor sleeps d of real time (the goroutines advance themselves).
func (n *Net) RunFor(d time.Duration) { time.Sleep(d) }

// Drive blocks until sig resolves or timeout elapses.
func (n *Net) Drive(sig transport.Signal, timeout time.Duration) bool {
	_, ok := sig.(*signal).wait(nil, timeout)
	return ok
}

// Shutdown fail-stops every process, cancels pending timers, and waits
// for all of them to exit. Component state is safe to read afterwards
// (the join establishes happens-before with every process's writes).
func (n *Net) Shutdown() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.stopped = true
	for t := range n.timers {
		if t.Stop() {
			n.wg.Done()
		}
		delete(n.timers, t)
	}
	procs := make([]*Proc, 0, len(n.procs))
	for p := range n.procs {
		procs = append(procs, p)
	}
	n.mu.Unlock()
	n.dmu.Lock()
	n.dstopped = true
	n.dheap = nil
	n.dmu.Unlock()
	select {
	case n.dkick <- struct{}{}:
	default:
	}
	for _, p := range procs {
		p.kill()
	}
	n.wg.Wait()
}

// Live reports that this is the real-time substrate.
func (n *Net) Live() bool { return true }
