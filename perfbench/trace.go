package main

// The traced run's span recorder. Spans are recorded from this package's
// own wrappers around each layer's public entry points: a transport.Node
// wrapper per simulated node (one span per Deliver or Tick, see charge.go),
// a sm.StateMachine wrapper (kv), a storage.Store wrapper (WAL and
// checkpoint store) and the closed-loop client's calls into core.Client.
// Spans stay in memory and are aggregated and dumped when the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// layer tells a node-level span from the child spans recorded inside it.
type layer uint8

const (
	layerNode    layer = iota // a node's Deliver (kind = message type) or Tick (kind 0)
	layerSubmit               // core.Client.Submit or SubmitRead
	layerKV                   // the kv state machine
	layerStorage              // the WAL and checkpoint store
)

// Child-span kinds.
const (
	kindTick uint8 = 0

	kvExecute uint8 = iota
	kvQuery
	kvCheckpoint
	kvRestore
	stAppend
	stSync  // Sync with nothing pending: no media write
	stFsync // Sync that flushed appended records
	stCheckpoint
	subWrite
	subRead
)

// span is one timed call. start and dur are on the tracer's clock; vt is
// the virtual time the call ran at (zero on tcp). Spans of one operation
// share (client, key) where the message carries a request key: key is the
// request timestamp or read nonce; batch-level spans carry the sequence
// number in key with client zero.
type span struct {
	start, dur int64
	child      int64 // clock nanoseconds covered by child spans
	vt         types.Time
	parent     int32
	node       types.NodeID
	role       types.Role
	layer      layer
	kind       uint8
	client     types.NodeID
	key        uint64
	bytes      int32
	scale      float32 // reference-speed scale in effect (see charge.go)
}

type sendKey struct {
	ptr      *byte
	from, to types.NodeID
}

// tracer records spans. On the simulator every call arrives on the one
// simulation goroutine, spans nest, and the clock is that thread's CPU
// time; on tcp, kv spans arrive from several node goroutines at once, so
// flat disables nesting, mu serializes, and the clock is wall time.
type tracer struct {
	mu    sync.Mutex
	clock func() int64
	on    bool
	flat  bool
	spans []span
	cur   int32
	scale float64 // reference-speed scale for new spans

	net       *transport.SimNet                // virtual clock; nil on tcp
	allowed   func(from, to types.NodeID) bool // physical wiring; nil allows all
	sent      map[sendKey][]types.Time
	transit   map[types.Role][]float64 // virtual µs from send to handler start
	fsyncWall []float64                // wall µs of each Sync that flushed records
	syncs     map[types.NodeID]uint64  // such Syncs by node
	syncCPU   map[types.NodeID]float64 // their thread CPU by node, rescaled
}

func newTracer(flat bool) *tracer {
	t := &tracer{
		flat:    flat,
		cur:     -1,
		scale:   1,
		sent:    make(map[sendKey][]types.Time),
		transit: make(map[types.Role][]float64),
		syncs:   make(map[types.NodeID]uint64),
		syncCPU: make(map[types.NodeID]float64),
		spans:   make([]span, 0, 1<<16),
	}
	if flat {
		epoch := time.Now()
		t.clock = func() int64 { return int64(time.Since(epoch)) }
	} else {
		t.clock = threadCPU
	}
	return t
}

// start turns recording on; stop turns it off. Only spans that begin while
// recording is on are kept.
func (t *tracer) start() {
	if t != nil {
		t.mu.Lock()
		t.on = true
		t.mu.Unlock()
	}
}

func (t *tracer) stop() {
	if t != nil {
		t.mu.Lock()
		t.on = false
		t.mu.Unlock()
	}
}

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(s span) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	s.parent = -1
	if !t.flat {
		s.parent = t.cur
	}
	if t.net != nil {
		s.vt = t.net.Now()
	}
	s.scale = float32(t.scale)
	s.start = t.clock()
	t.spans = append(t.spans, s)
	i := int32(len(t.spans) - 1)
	if !t.flat {
		t.cur = i
	}
	return i
}

// end closes span i (a no-op for -1) and charges its duration to its parent.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.dur = t.clock() - s.start
	if s.parent >= 0 {
		t.spans[s.parent].child += s.dur
	}
	if !t.flat {
		t.cur = s.parent
	}
}

// child opens a child span of the given layer and kind.
func (t *tracer) child(l layer, kind uint8, bytes int) int32 {
	if t == nil {
		return -1
	}
	return t.begin(span{layer: l, kind: kind, bytes: int32(bytes)})
}

// onSend is the SimNet tap: it stamps each send so the receiving node's
// span can measure transit (link delay plus the wait for a busy machine).
func (t *tracer) onSend(from, to types.NodeID, data []byte) {
	if !t.on || len(data) == 0 || (t.allowed != nil && !t.allowed(from, to)) {
		return
	}
	k := sendKey{&data[0], from, to}
	t.sent[k] = append(t.sent[k], t.net.Now())
}

// deliverSpan opens a node span for one delivered message.
func (t *tracer) deliverSpan(id types.NodeID, role types.Role, from types.NodeID, data []byte) int32 {
	if t == nil || !t.on || len(data) == 0 {
		return -1
	}
	k := sendKey{&data[0], from, id}
	if q := t.sent[k]; len(q) > 0 {
		t.transit[role] = append(t.transit[role], float64(t.net.Now()-q[0])/1e3)
		if len(q) == 1 {
			delete(t.sent, k)
		} else {
			t.sent[k] = q[1:]
		}
	}
	s := span{node: id, role: role, layer: layerNode, kind: data[0], bytes: int32(len(data))}
	s.client, s.key = spanKey(data)
	return t.begin(s)
}

// recordSync notes one Sync that flushed records, with its wall latency
// and thread CPU time.
func (t *tracer) recordSync(id types.NodeID, wall time.Duration, cpu int64) {
	if t == nil || !t.on {
		return
	}
	t.syncs[id]++
	t.syncCPU[id] += float64(cpu) * t.scale
	t.fsyncWall = append(t.fsyncWall, float64(wall.Nanoseconds())/1e3)
}

// spanKey reads a message's operation key from its fixed header without a
// full decode: (client, timestamp) for requests, (client, nonce) for read
// probes, and the sequence number for batch-level agreement traffic.
func spanKey(data []byte) (types.NodeID, uint64) {
	r := wire.NewReader(data[1:])
	switch wire.MsgType(data[0]) {
	case wire.TRequest, wire.TReadRequest:
		c := r.Node()
		return c, r.U64()
	case wire.TPrePrepare, wire.TPrepare, wire.TCommit, wire.TOrder:
		r.View()
		return 0, uint64(r.Seq())
	case wire.TExecReply:
		if r.SliceLen() > 0 {
			r.View()
			return 0, uint64(r.Seq())
		}
	}
	return 0, 0
}

// kvApp wraps the kv state machine: each call is a child span, executes are
// counted, and the mutex lets the tcp workload read the final state while
// the node goroutines may still run.
type kvApp struct {
	mu       sync.Mutex
	st       *kv.Store
	tr       *tracer
	executes uint64
}

func newKVApp(tr *tracer) *kvApp { return &kvApp{st: kv.New(), tr: tr} }

func (a *kvApp) Execute(op []byte, nd types.NonDet) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.tr.child(layerKV, kvExecute, len(op))
	out := a.st.Execute(op, nd)
	a.tr.end(i)
	a.executes++
	return out
}

func (a *kvApp) Query(op []byte) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.tr.child(layerKV, kvQuery, len(op))
	out, ok := a.st.Query(op)
	a.tr.end(i)
	return out, ok
}

func (a *kvApp) Checkpoint() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.tr.child(layerKV, kvCheckpoint, 0)
	out := a.st.Checkpoint()
	a.tr.end(i)
	return out
}

func (a *kvApp) Restore(data []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.tr.child(layerKV, kvRestore, len(data))
	err := a.st.Restore(data)
	a.tr.end(i)
	return err
}

// get reads one key of the replica's state.
func (a *kvApp) get(key string) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st.Get(key)
}

func (a *kvApp) executeCount() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.executes
}

// storeCounts are the storage layer's exact counts, plus the thread CPU
// time spent inside flushed syncs, which the compute charge leaves out
// (charge.go).
type storeCounts struct {
	appends, appendBytes, fsyncs uint64
	syncCPU                      int64
}

// tracedStore wraps one node's storage.Store.
type tracedStore struct {
	storage.Store
	id      types.NodeID
	tr      *tracer
	counts  *storeCounts
	pending bool
}

func (s *tracedStore) Append(kind storage.RecordKind, seq types.SeqNum, payload []byte) error {
	i := s.tr.child(layerStorage, stAppend, len(payload))
	err := s.Store.Append(kind, seq, payload)
	s.tr.end(i)
	s.counts.appends++
	s.counts.appendBytes += uint64(len(payload))
	s.pending = true
	return err
}

func (s *tracedStore) Sync() error {
	kind := stSync
	if s.pending {
		kind = stFsync
	}
	i := s.tr.child(layerStorage, kind, 0)
	t0, c0 := time.Now(), threadCPU()
	err := s.Store.Sync()
	cpu, wall := threadCPU()-c0, time.Since(t0)
	s.tr.end(i)
	if s.pending {
		s.counts.fsyncs++
		s.counts.syncCPU += cpu
		s.tr.recordSync(s.id, wall, cpu)
	}
	s.pending = false
	return err
}

func (s *tracedStore) SaveCheckpoint(ck storage.Checkpoint) error {
	i := s.tr.child(layerStorage, stCheckpoint, len(ck.Payload))
	err := s.Store.SaveCheckpoint(ck)
	s.tr.end(i)
	return err
}

// spanName maps a span to the layer operation it is charged to.
func spanName(s *span) string {
	switch s.layer {
	case layerSubmit:
		return "core.submit"
	case layerKV:
		return [...]string{kvExecute: "kv.execute", kvQuery: "kv.query", kvCheckpoint: "kv.checkpoint", kvRestore: "kv.restore"}[s.kind]
	case layerStorage:
		switch s.kind {
		case stAppend:
			return "storage.append"
		case stCheckpoint:
			return "storage.checkpoint"
		default:
			return "storage.sync"
		}
	}
	kind := "tick"
	if s.kind != kindTick {
		kind = strings.ToLower(wire.MsgType(s.kind).String())
	}
	switch s.role {
	case types.RoleAgreement:
		if kind == "exec-reply" || kind == "reply-cert" {
			return "mqueue.exec-reply"
		}
		return "pbft." + kind
	case types.RoleExecution:
		return "execnode." + kind
	case types.RoleFilter:
		if kind == "tick" {
			return "firewall.tick"
		}
		return "firewall"
	default:
		switch kind {
		case "exec-reply", "reply-cert":
			return "replycert.reply"
		case "read-reply":
			return "replycert.read-reply"
		}
		return "client." + kind
	}
}

// traceSummary is what the per-layer report needs from the spans. Times
// are clock nanoseconds in reference-speed units.
type traceSummary struct {
	self     map[string]float64 // self time by spanName
	roleBusy map[types.Role]float64
	nodeBusy map[types.NodeID]float64
	covered  float64 // time inside top-level spans
}

func (t *tracer) summarize() traceSummary {
	sum := traceSummary{
		self:     make(map[string]float64),
		roleBusy: make(map[types.Role]float64),
		nodeBusy: make(map[types.NodeID]float64),
	}
	for i := range t.spans {
		s := &t.spans[i]
		scale := float64(s.scale)
		sum.self[spanName(s)] += float64(s.dur-s.child) * scale
		if s.parent >= 0 {
			continue
		}
		dur := float64(s.dur) * scale
		sum.covered += dur
		if s.layer == layerNode {
			sum.roleBusy[s.role] += dur
			sum.nodeBusy[s.node] += dur
		}
	}
	return sum
}

// dump writes every span as one tab-separated line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tparent\tname\tnode\tclient\tkey\tbytes\tstart_ns\tdur_ns\tself_ns\tscale\tvirtual_ns")
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%d\n",
			i, s.parent, spanName(s), s.node, s.client, s.key, s.bytes, s.start, s.dur, s.dur-s.child, s.scale, s.vt)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
