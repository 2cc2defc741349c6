package main

// The simulated workloads: a core.Cluster on SimNet with MeasureCompute on,
// driven from this one goroutine. Each logical client is a closed loop that
// issues its next operation, as a virtual-time event, the moment the
// previous reply lands.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/core"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// simSpec is one simulated workload.
type simSpec struct {
	name     string
	mode     core.Mode
	clients  int
	durable  bool
	reads    int // certified reads in every cycle of 10 operations
	countOps int // operations per client in the deterministic count pass
	mix      kernelMix
}

var simSpecs = map[string]*simSpec{
	"write":    {name: "write", mode: core.ModeSeparate, clients: 32, durable: true, countOps: 16, mix: kernelMix{ed25519: 0.6}},
	"read":     {name: "read", mode: core.ModeSeparate, clients: 32, durable: true, reads: 9, countOps: 32, mix: kernelMix{ed25519: 0.8}},
	"firewall": {name: "firewall", mode: core.ModeFirewall, clients: 8, countOps: 16, mix: kernelMix{ed25519: 0.1, bigint: 0.75}},
}

const (
	keysPerClient  = 4
	valueSize      = 128
	setupRepeats   = 7
	maxReadRetries = 8
	opTimeout      = types.Time(5e9) // virtual; an op slower than this counts as failed
)

// options is the cluster configuration every pass of a workload uses. The
// mode is set explicitly: the zero core.Mode is BASE.
func (sp *simSpec) options(seed int64, measure bool) core.Options {
	return core.Options{
		F: 1, G: 1, H: 1,
		Clients:       sp.clients,
		Mode:          sp.mode,
		MACAgreement:  true,
		ThresholdBits: 512,
		Seed:          "perfbench",
		NetSeed:       seed,
		Net:           transport.SimNetConfig{MeasureCompute: measure},
	}
}

func (sp *simSpec) describe(seed int64) string {
	o := sp.options(seed, true)
	replies, store := "quorum", "memory"
	if sp.mode == core.ModeFirewall {
		replies = fmt.Sprintf("threshold-%d", o.ThresholdBits)
	}
	if sp.durable {
		store = "wal(fsync=batch)"
	}
	return fmt.Sprintf("workload=%s mode=%v f=%d g=%d h=%d crypto=votes:mac,requests:ed25519,orders:ed25519 replies=%s storage=%s clients=%d keys/client=%d value=%dB reads=%d%% links=50-200us measure_compute=on seed=%d",
		sp.name, o.Mode, o.F, o.G, o.H, replies, store, sp.clients, keysPerClient, valueSize, sp.reads*10, seed)
}

type opKind uint8

const (
	opPut opKind = iota
	opRead
)

type pendingOp struct {
	kind    opKind
	key     string
	value   []byte
	issued  types.Time
	retries int
}

// simRun is one cluster and its closed-loop clients.
type simRun struct {
	sp      *simSpec
	c       *core.Cluster
	tr      *tracer
	clients []*loopClient
	apps    map[types.NodeID]*kvApp
	store   storeCounts
	dir     string

	charging    bool    // simNode charges modelled compute (charge.go)
	scale       float64 // current reference-speed scale
	preloading  int
	setupErr    error
	stopped     bool
	budget      bool // clients stop after countOps operations
	measuring   bool
	outstanding int

	done, failed, readRetries int
	windowOps                 int
	lat                       []float64 // virtual ms, ops completed in the window
}

// loopClient is one logical client's closed loop, registered in place of
// its core.Client.
type loopClient struct {
	r       *simRun
	idx     int
	cl      *core.Client
	rng     *rand.Rand
	keys    []string
	acked   map[string][]byte
	mark    types.SeqNum // session watermark: highest certified seq
	op      *pendingOp
	preload int // keys preloaded so far
	left    int // operations left in a budgeted pass
	n       uint64
	cycle   []bool // kinds left in the current cycle of 10: true is a read
}

// newSimRun builds the cluster and preloads every client's keys.
func newSimRun(sp *simSpec, seed int64, measure bool, tr *tracer, dir string) (*simRun, error) {
	r := &simRun{sp: sp, tr: tr, apps: make(map[types.NodeID]*kvApp), dir: dir}
	opts := sp.options(seed, measure)
	opts.App = func() sm.StateMachine { return newKVApp(tr) }
	if sp.durable {
		opts.Storage = func(id types.NodeID) (storage.Store, error) {
			st, err := storage.Open(filepath.Join(dir, fmt.Sprintf("node-%d", id)), storage.Options{})
			if err != nil {
				return nil, err
			}
			return &tracedStore{Store: st, id: id, tr: tr, counts: &r.store}, nil
		}
	}
	c, err := core.BuildSim(opts)
	if err != nil {
		r.removeDir()
		return nil, fmt.Errorf("building %s cluster: %w", sp.name, err)
	}
	r.c = c
	for id, app := range c.ExecApps {
		r.apps[id] = app.(*kvApp)
	}
	for i, cl := range c.Clients {
		id := c.Top.Clients[i]
		lc := &loopClient{
			r: r, idx: i, cl: cl,
			rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			acked: make(map[string][]byte),
		}
		for k := 0; k < keysPerClient; k++ {
			lc.keys = append(lc.keys, fmt.Sprintf("c%02d/k%d", i, k))
		}
		r.clients = append(r.clients, lc)
		c.Net.Swap(id, r.wrap(id, types.RoleClient, lc, measure))
	}
	if tr != nil {
		tr.net = c.Net
		if sp.mode == core.ModeFirewall {
			tr.allowed = core.FirewallWiring(c.Top)
		}
	}
	for id, n := range c.Agreement {
		c.Net.Swap(id, r.wrap(id, types.RoleAgreement, n, measure))
	}
	for id, n := range c.Execs {
		c.Net.Swap(id, r.wrap(id, types.RoleExecution, n, measure))
	}
	for id, n := range c.Filters {
		c.Net.Swap(id, r.wrap(id, types.RoleFilter, n, measure))
	}
	if err := r.preloadKeys(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// wrap puts a simNode around a node of a compute-charged or traced pass.
func (r *simRun) wrap(id types.NodeID, role types.Role, n transport.Node, measure bool) transport.Node {
	if !measure && r.tr == nil {
		return n
	}
	return &simNode{inner: n, id: id, role: role, r: r}
}

// close flushes the stores and removes the run's data directory.
func (r *simRun) close() {
	if r.c != nil {
		r.c.Shutdown()
	}
	r.removeDir()
}

func (r *simRun) removeDir() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// stepUntil advances the simulation until cond holds.
func (r *simRun) stepUntil(cond func() bool, virtualBudget types.Time) error {
	net := r.c.Net
	limit := net.Now() + virtualBudget
	for !cond() {
		if net.Now() > limit {
			return fmt.Errorf("%s: no progress within %v virtual", r.sp.name, time.Duration(virtualBudget))
		}
		if !net.Step() {
			return fmt.Errorf("%s: simulation ran out of events", r.sp.name)
		}
	}
	return nil
}

// preloadKeys writes every client's keys once; it is part of set-up.
func (r *simRun) preloadKeys() error {
	r.preloading = len(r.clients)
	now := r.c.Net.Now()
	for _, lc := range r.clients {
		lc.issuePut(lc.keys[0], now)
	}
	if err := r.stepUntil(func() bool { return r.preloading == 0 || r.setupErr != nil }, 60e9); err != nil {
		return err
	}
	return r.setupErr
}

// snapshot is the process and cluster state at a window edge.
type snapshot struct {
	virtual      types.Time
	cpu          time.Duration
	mallocs      uint64
	netBytes     uint64
	ops          int
	client       core.ClientMetrics
	batches      uint64 // primary's committed batches
	requests     uint64 // requests in them
	viewChanges  uint64
	readsServed  uint64
	readsRefused uint64
	executes     uint64
	store        storeCounts
}

func (r *simRun) snap() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		virtual: r.c.Net.Now(), cpu: cpuNow(),
		mallocs: ms.Mallocs, netBytes: r.c.Net.Stats.Bytes, ops: r.windowOps, store: r.store,
	}
	for _, lc := range r.clients {
		m := lc.cl.Metrics
		s.client.Retransmits += m.Retransmits
		s.client.Reads += m.Reads
		s.client.ReadsCertified += m.ReadsCertified
		s.client.ReadMismatches += m.ReadMismatches
	}
	primary := r.c.Engines[r.c.Top.Agreement[0]]
	s.batches, s.requests = primary.Metrics.Batches, primary.Metrics.Requests
	for _, e := range r.c.Engines {
		s.viewChanges += e.Metrics.ViewChanges
	}
	for _, ex := range r.c.Execs {
		s.readsServed += ex.Metrics.ReadsServed
		s.readsRefused += ex.Metrics.ReadsRefused
	}
	for _, a := range r.apps {
		s.executes += a.executeCount()
	}
	return s
}

// window is what one measured pass produced.
type window struct {
	from, to  snapshot
	lat       []float64
	cpuScaled float64 // process CPU nanoseconds in reference-speed units
	meanScale float64
}

// setScale sets the reference-speed scale for compute and spans.
func (r *simRun) setScale(s float64) {
	r.scale = s
	if r.tr != nil {
		r.tr.scale = s
	}
}

func (w *window) ops() float64 { return float64(w.to.ops - w.from.ops) }

func (w *window) virtualSeconds() float64 {
	return float64(w.to.virtual-w.from.virtual) / 1e9
}

func (w *window) perOp(a, b uint64) float64 { return ratio(float64(b-a), w.ops()) }

// measure runs the closed loop: for the wall-clock duration d, or, when d
// is zero, until every client has issued its countOps operations. Clients
// then drain their last operation and the final state is checked.
func (r *simRun) measure(d time.Duration) (*window, error) {
	r.budget = d == 0
	w := &window{from: r.snap()}
	now := r.c.Net.Now()
	r.outstanding = len(r.clients)
	for _, lc := range r.clients {
		lc.left = r.sp.countOps - 1
		lc.next(now)
	}
	r.measuring = true
	r.tr.start()
	if d > 0 {
		// Compute is charged in reference-speed units (see charge.go);
		// the kernel's own CPU is left out of the scaled CPU total.
		cal := newCalibrator(r.sp.mix)
		r.setScale(cal.scale)
		r.charging = true
		defer func() { r.charging = false }()
		// Process CPU inside flushed syncs is left out, as in the charge.
		last, lastSync := cpuNow(), r.store.syncCPU
		account := func() {
			w.cpuScaled += float64(int64(cpuNow()-last)-(r.store.syncCPU-lastSync)) * cal.scale
		}
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cal.due() {
				account()
				r.setScale(cal.measure())
				last, lastSync = cpuNow(), r.store.syncCPU
			}
			for i := 0; i < 64; i++ {
				if !r.c.Net.Step() {
					return nil, fmt.Errorf("%s: simulation ran out of events", r.sp.name)
				}
			}
		}
		account()
		w.meanScale = cal.mean()
	} else if err := r.stepUntil(func() bool { return r.outstanding == 0 }, 600e9); err != nil {
		return nil, err
	}
	r.tr.stop()
	r.measuring = false
	r.stopped = true
	w.to = r.snap()
	if d == 0 {
		w.cpuScaled, w.meanScale = float64(w.to.cpu-w.from.cpu), 1
	}
	w.lat = r.lat
	if err := r.stepUntil(func() bool { return r.outstanding == 0 }, 60e9); err != nil {
		return nil, err
	}
	// Let every executor apply the tail before its state is compared.
	r.c.Net.Run(r.c.Net.Now() + types.Millisecond(500))
	r.failed += r.checkState()
	return w, nil
}

// checkState compares every execution replica's kv state with the last
// acknowledged value of every key and returns the number of mismatches.
func (r *simRun) checkState() int {
	bad := 0
	for id, app := range r.apps {
		for _, lc := range r.clients {
			for _, k := range lc.keys {
				if v, ok := app.get(k); !ok || !bytes.Equal(v, lc.acked[k]) {
					if bad == 0 {
						fmt.Fprintf(os.Stderr, "perfbench: executor %v holds a wrong value for %s\n", id, k)
					}
					bad++
				}
			}
		}
	}
	return bad
}

func (lc *loopClient) Deliver(from types.NodeID, data []byte, now types.Time) {
	lc.cl.Deliver(from, data, now)
	lc.poll(now)
}

func (lc *loopClient) Tick(now types.Time) {
	lc.cl.Tick(now)
	if lc.op != nil && now-lc.op.issued > opTimeout {
		lc.cl.Cancel()
		lc.cl.CancelRead()
		fmt.Fprintf(os.Stderr, "perfbench: client %d timed out on %s\n", lc.idx, lc.op.key)
		lc.finish(now, false)
	}
}

// poll completes the outstanding operation once its certificate landed.
func (lc *loopClient) poll(now types.Time) {
	op := lc.op
	if op == nil {
		return
	}
	switch op.kind {
	case opPut:
		if !lc.cl.HasResult() {
			return
		}
		body, seq, _ := lc.cl.ResultSeq()
		ok := string(body) == "OK"
		if ok {
			lc.acked[op.key] = op.value
			lc.mark = max(lc.mark, seq)
		}
		lc.finish(now, ok)
	case opRead:
		if !lc.cl.ReadDone() {
			return
		}
		out, _ := lc.cl.TakeReadOutcome()
		if errors.Is(out.Err, replycert.ErrReadMismatch) && op.retries < maxReadRetries {
			op.retries++
			lc.r.readRetries++
			lc.submitRead(op.key, max(out.Hint, lc.mark), now)
			return
		}
		ok := out.Err == nil && out.Result != nil && !out.Result.Refused && bytes.Equal(out.Result.Body, lc.acked[op.key])
		if ok {
			lc.mark = max(lc.mark, out.Result.Seq)
		}
		lc.finish(now, ok)
	}
}

// finish records the outstanding operation's outcome and issues the next.
func (lc *loopClient) finish(now types.Time, ok bool) {
	r, op := lc.r, lc.op
	lc.op = nil
	if lc.preload < len(lc.keys) { // set-up phase
		if !ok {
			r.setupErr = fmt.Errorf("%s: preloading %s failed", r.sp.name, op.key)
			return
		}
		lc.preload++
		if lc.preload < len(lc.keys) {
			lc.issuePut(lc.keys[lc.preload], now)
		} else {
			r.preloading--
		}
		return
	}
	r.done++
	if !ok {
		r.failed++
		if r.failed == 1 {
			fmt.Fprintf(os.Stderr, "perfbench: client %d got a wrong answer for %s\n", lc.idx, op.key)
		}
	}
	if r.measuring {
		r.windowOps++
		r.lat = append(r.lat, float64(now-op.issued)/1e6)
	}
	if r.stopped || (r.budget && lc.left == 0) {
		r.outstanding--
		return
	}
	lc.left--
	lc.next(now)
}

// next issues the client's next generated operation. The sequence of
// operations depends only on the seed and the client index.
func (lc *loopClient) next(now types.Time) {
	// Reads and puts come in shuffled cycles of 10, so every run has the
	// same mix whatever its length.
	if len(lc.cycle) == 0 {
		lc.cycle = make([]bool, 10)
		for i := 0; i < lc.r.sp.reads; i++ {
			lc.cycle[i] = true
		}
		lc.rng.Shuffle(len(lc.cycle), func(i, j int) { lc.cycle[i], lc.cycle[j] = lc.cycle[j], lc.cycle[i] })
	}
	read := lc.cycle[0]
	lc.cycle = lc.cycle[1:]
	key := lc.keys[lc.rng.Intn(len(lc.keys))]
	if read {
		lc.op = &pendingOp{kind: opRead, key: key, issued: now}
		lc.submitRead(key, lc.mark, now)
		return
	}
	lc.issuePut(key, now)
}

func (lc *loopClient) issuePut(key string, now types.Time) {
	lc.n++
	value := make([]byte, valueSize)
	binary.BigEndian.PutUint32(value, uint32(lc.idx))
	binary.BigEndian.PutUint64(value[4:], lc.n)
	lc.rng.Read(value[12:])
	lc.op = &pendingOp{kind: opPut, key: key, value: value, issued: now}
	i := lc.r.tr.child(layerSubmit, subWrite, valueSize)
	err := lc.cl.Submit(kv.Put(key, value), now)
	lc.r.tr.end(i)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: submit: %v\n", err)
		lc.finish(now, false)
	}
}

func (lc *loopClient) submitRead(key string, floor types.SeqNum, now types.Time) {
	i := lc.r.tr.child(layerSubmit, subRead, 0)
	err := lc.cl.SubmitRead(kv.GetOp(key), floor, now)
	lc.r.tr.end(i)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: submit read: %v\n", err)
		lc.finish(now, false)
	}
}

// wireCounts is the count pass's tap: messages and bytes by kind, plus a
// sample of the messages themselves for the codec replay.
type wireCounts struct {
	msgs, bytes [256]uint64
	mqOrders    uint64 // ORDERs sent by agreement replicas' message queues
	agreement   map[types.NodeID]bool
	seen        int
	sample      [][]byte
}

func (w *wireCounts) onSend(from, to types.NodeID, data []byte) {
	if len(data) == 0 {
		return
	}
	if wire.MsgType(data[0]) == wire.TOrder && w.agreement[from] {
		w.mqOrders++
	}
	w.msgs[data[0]]++
	w.bytes[data[0]] += uint64(len(data))
	w.seen++
	if w.seen%8 == 0 && len(w.sample) < 2048 {
		w.sample = append(w.sample, append([]byte(nil), data...))
	}
}

// runDir returns a fresh data directory for one cluster.
func runDir(work, name string, i int) string {
	return filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), i))
}

// runSim runs one simulated workload.
func runSim(sp *simSpec, seed int64, d time.Duration, traced bool, work string) (*result, error) {
	fmt.Println("config:", sp.describe(seed))
	// The simulation runs on this goroutine; locking it to its thread makes
	// threadCPU the simulation's own CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if traced {
		return runSimTraced(sp, seed, d, work)
	}
	var (
		r      *simRun
		setups []float64
	)
	cal := newCalibrator(sp.mix)
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		// Set-up is charged like a handler (charge.go): its thread CPU
		// time less CPU inside flushed syncs, rescaled, plus fsyncModel
		// per flushed sync.
		before := cal.settle(5)
		c0 := threadCPU()
		var err error
		if r, err = newSimRun(sp, seed, true, nil, runDir(work, sp.name, i)); err != nil {
			return nil, fmt.Errorf("set-up failed: %w", err)
		}
		cpu := float64(threadCPU()-c0-r.store.syncCPU) * (before + cal.settle(5)) / 2
		setups = append(setups, (cpu+float64(r.store.fsyncs)*float64(fsyncModel))/1e9)
	}
	defer r.close()
	w, err := r.measure(d)
	if err != nil {
		return nil, err
	}
	fmt.Printf("samples: latency n=%d over %.3f virtual s; %d ops attempted, %d failed, %d read retries; %.2f ops/batch, %d retransmits\n",
		len(w.lat), w.virtualSeconds(), r.done, r.failed, r.readRetries,
		ratio(float64(w.to.requests-w.from.requests), float64(w.to.batches-w.from.batches)), w.to.client.Retransmits-w.from.client.Retransmits)
	fmt.Printf("host speed: mean scale %.3f; unscaled cpu %.1f us/op\n", w.meanScale, ratio(float64(w.to.cpu-w.from.cpu)/1e3, w.ops()))
	res := outcome(r.done, r.failed)
	m := res.Metrics
	ops := w.ops()
	put(m, "throughput_ops_s", ratio(ops, w.virtualSeconds()))
	put(m, "latency_p50_ms", percentile(w.lat, 0.50))
	put(m, "latency_p99_ms", percentile(w.lat, 0.99))
	put(m, "cpu_us_per_op", ratio(w.cpuScaled/1e3, ops))
	put(m, "allocs_per_op", w.perOp(w.from.mallocs, w.to.mallocs))
	put(m, "wire_bytes_per_op", w.perOp(w.from.netBytes, w.to.netBytes))
	put(m, "setup_s", median(setups))
	put(m, "peak_rss_mb", peakRSSMB())
	return res, nil
}

// outcome starts a result from the attempted and failed operation counts.
func outcome(attempted, failed int) *result {
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	put(res.Metrics, "ok_ratio", 1-ratio(float64(failed), float64(attempted)))
	return res
}

func put(m map[string]metric, name string, v float64) {
	m[name] = metric{Value: v, Unit: unitOf(name)}
}

// runSimTraced makes the three passes behind the per-layer report: an
// untraced pass (the overhead baseline), a traced pass with a CPU profile,
// and a deterministic count pass with MeasureCompute off.
func runSimTraced(sp *simSpec, seed int64, d time.Duration, work string) (*result, error) {
	pass := d * 2 / 5
	base, err := newSimRun(sp, seed, true, nil, runDir(work, sp.name, 0))
	if err != nil {
		return nil, fmt.Errorf("set-up failed: %w", err)
	}
	wb, err := base.measure(pass)
	base.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer(false)
	tp, err := newSimRun(sp, seed, true, tr, runDir(work, sp.name, 1))
	if err != nil {
		return nil, fmt.Errorf("set-up failed: %w", err)
	}
	tp.c.Net.Tap(tr.onSend)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		tp.close()
		return nil, err
	}
	wt, err := tp.measure(pass)
	pprof.StopCPUProfile()
	tp.close()
	if err != nil {
		return nil, err
	}
	if err := tr.dump(filepath.Join(work, "spans-"+sp.name+".tsv")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}

	cp, wc, cw, err := countPass(sp, seed, work)
	if err != nil {
		return nil, err
	}
	fmt.Printf("samples: traced pass %d spans, %d ops; count pass %d ops, %d messages sampled\n",
		len(tr.spans), int(wt.ops()), int(cw.ops()), len(wc.sample))

	res := outcome(base.done+tp.done+cp.done, base.failed+tp.failed+cp.failed)
	res.Metrics = simLayerMetrics(sp, tp, wb, wt, tr.summarize(), shares, cw, wc)
	return res, nil
}

// countPass runs countOps operations per client with MeasureCompute off.
// Nothing in it depends on the wall clock, so its counts repeat exactly
// for a seed.
func countPass(sp *simSpec, seed int64, work string) (*simRun, *wireCounts, *window, error) {
	r, err := newSimRun(sp, seed, false, nil, runDir(work, sp.name, 2))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("set-up failed: %w", err)
	}
	defer r.close()
	wc := &wireCounts{agreement: make(map[types.NodeID]bool)}
	for _, id := range r.c.Top.Agreement {
		wc.agreement[id] = true
	}
	r.c.Net.Tap(wc.onSend)
	w, err := r.measure(0)
	if err != nil {
		return nil, nil, nil, err
	}
	return r, wc, w, nil
}

// simLayerMetrics assembles the per-layer report of a simulated workload.
func simLayerMetrics(sp *simSpec, tp *simRun, wb, wt *window, sum traceSummary, shares map[string]float64, cw *window, wc *wireCounts) map[string]metric {
	m := make(map[string]metric)
	for _, lm := range perLayer {
		put(m, lm.name, 0)
	}
	ops := wt.ops()
	us := func(name string) float64 { return ratio(sum.self[name]/1e3, ops) }
	for _, k := range []string{"request", "pre-prepare", "prepare", "commit", "a-checkpoint", "tick"} {
		put(m, "pbft."+k+"_us_per_op", us("pbft."+k))
	}
	put(m, "mqueue.exec-reply_us_per_op", us("mqueue.exec-reply"))
	for _, k := range []string{"order", "e-checkpoint", "read-request"} {
		put(m, "execnode."+k+"_us_per_op", us("execnode."+k))
	}
	put(m, "replycert.reply_us_per_op", us("replycert.reply"))
	put(m, "replycert.read-reply_us_per_op", us("replycert.read-reply"))
	put(m, "core.submit_us_per_op", us("core.submit"))
	put(m, "firewall.us_per_op", us("firewall"))
	put(m, "kv.execute_us_per_op", us("kv.execute"))
	put(m, "kv.query_us_per_op", us("kv.query"))
	put(m, "kv.checkpoint_us_per_op", us("kv.checkpoint"))
	put(m, "storage.append_us_per_op", us("storage.append"))
	put(m, "storage.checkpoint_us_per_op", us("storage.checkpoint"))
	put(m, "storage.fsync_us_p50", percentile(tp.tr.fsyncWall, 0.50))
	put(m, "storage.fsync_us_p99", percentile(tp.tr.fsyncWall, 0.99))

	vns := float64(wt.to.virtual - wt.from.virtual)
	// A node's busy time is what the virtual clock charged it: its spans,
	// with each flushed sync counted as fsyncModel instead of its CPU time.
	busy := func(id types.NodeID) float64 {
		return sum.nodeBusy[id] - tp.tr.syncCPU[id] + float64(tp.tr.syncs[id])*float64(fsyncModel)
	}
	top := tp.c.Top
	roles := []struct {
		prefix string
		role   types.Role
		nodes  []types.NodeID
	}{
		{"agreement", types.RoleAgreement, nil},
		{"execution", types.RoleExecution, top.Execution},
		{"filter", types.RoleFilter, flatten(top.Filters)},
		{"client", types.RoleClient, nil},
	}
	for _, ro := range roles {
		put(m, ro.prefix+".busy_us_per_op", ratio(sum.roleBusy[ro.role]/1e3, ops))
		if ro.role == types.RoleClient {
			continue
		}
		put(m, ro.prefix+".transit_us_p50", percentile(tp.tr.transit[ro.role], 0.50))
		if ro.role == types.RoleAgreement {
			// The primary is the agreement cluster's bottleneck machine.
			put(m, "agreement.primary_util", ratio(busy(top.Agreement[0]), vns))
			continue
		}
		util := 0.0
		for _, id := range ro.nodes {
			util = max(util, ratio(busy(id), vns))
		}
		put(m, ro.prefix+".util_max", util)
	}

	countMetrics(m, cw, wc)
	dec, enc := codecReplay(wc.sample)
	put(m, "wire.decode_ns_per_msg", dec)
	put(m, "wire.encode_ns_per_msg", enc)
	for name, v := range shares {
		put(m, name, v)
	}
	baseCPU := ratio(wb.cpuScaled, wb.ops())
	tracedCPU := wt.cpuScaled
	put(m, "trace.overhead_ratio", ratio(ratio(tracedCPU, ops), baseCPU))
	put(m, "trace.coverage_ratio", ratio(sum.covered, tracedCPU))
	return m
}

// countMetrics adds the exact counts of a MeasureCompute-off pass.
func countMetrics(m map[string]metric, cw *window, wc *wireCounts) {
	cops := cw.ops()
	for _, t := range wireKinds {
		put(m, "wire.msgs_per_op."+kindName(t), ratio(float64(wc.msgs[t]), cops))
		put(m, "wire.bytes_per_op."+kindName(t), ratio(float64(wc.bytes[t]), cops))
	}
	f, t := cw.from, cw.to
	batches := float64(t.batches - f.batches)
	put(m, "pbft.ops_per_batch", ratio(float64(t.requests-f.requests), batches))
	put(m, "pbft.view_changes", float64(t.viewChanges-f.viewChanges))
	put(m, "mqueue.orders_per_batch", ratio(float64(wc.mqOrders), batches))
	put(m, "client.retransmits_per_op", cw.perOp(f.client.Retransmits, t.client.Retransmits))
	put(m, "kv.executes_per_op", cw.perOp(f.executes, t.executes))
	put(m, "storage.appends_per_op", cw.perOp(f.store.appends, t.store.appends))
	put(m, "storage.append_bytes_per_op", cw.perOp(f.store.appendBytes, t.store.appendBytes))
	put(m, "storage.fsyncs_per_op", cw.perOp(f.store.fsyncs, t.store.fsyncs))
	reads := float64(t.client.Reads - f.client.Reads)
	put(m, "read.certified_ratio", ratio(float64(t.client.ReadsCertified-f.client.ReadsCertified), reads))
	put(m, "read.mismatch_ratio", ratio(float64(t.client.ReadMismatches-f.client.ReadMismatches), reads))
	refused := float64(t.readsRefused - f.readsRefused)
	put(m, "execnode.reads_refused_ratio", ratio(refused, refused+float64(t.readsServed-f.readsServed)))
}

func flatten(rows [][]types.NodeID) []types.NodeID {
	var out []types.NodeID
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// codecReplay times wire.Unmarshal and wire.Marshal over the captured
// sample, in nanoseconds per message.
func codecReplay(sample [][]byte) (decode, encode float64) {
	if len(sample) == 0 {
		return 0, 0
	}
	msgs := make([]wire.Message, len(sample))
	const rounds = 20
	t0 := time.Now()
	for k := 0; k < rounds; k++ {
		for i, b := range sample {
			m, err := wire.Unmarshal(b)
			if err != nil {
				return 0, 0
			}
			msgs[i] = m
		}
	}
	decode = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(sample))
	t0 = time.Now()
	for k := 0; k < rounds; k++ {
		for _, m := range msgs {
			wire.Marshal(m)
		}
	}
	encode = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(sample))
	return decode, encode
}
