package main

// The tcp workload: the public saebft API over loopback TCP with ephemeral
// mutual TLS, durable storage and client batching. It is the only path
// through the facade's batcher, its runtime and the real transport.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/kv"
	"repro/saebft"
)

const (
	tcpClients  = 2  // logical clients behind the handle
	tcpBatchOps = 16 // client batching: operations per request
	tcpInFlight = 32 // operations kept in flight, one per slot
	tcpNodes    = 4 + 3 + tcpClients
)

func tcpDescribe(seed int64) string {
	return fmt.Sprintf("workload=tcp mode=%v f=1 g=1 h=1 crypto=votes:mac,requests:ed25519,orders:ed25519 replies=%v storage=wal(fsync=batch) transport=tcp+mtls(ephemeral) clients=%d batch=%d in_flight=%d keys/slot=%d value=%dB seed=%d",
		saebft.ModeSeparate, saebft.ReplyQuorum, tcpClients, tcpBatchOps, tcpInFlight, keysPerClient, valueSize, seed)
}

// basePort picks loopback ports below the kernel's ephemeral range, so no
// outgoing connection of an earlier node can take a port before its node
// binds it. The block depends on the process id so concurrent runs do not
// collide; set-up i of this process uses its own sub-block.
func basePort(i int) (int, error) {
	raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0, fmt.Errorf("reading the ephemeral port range: %w", err)
	}
	fields := strings.Fields(string(raw))
	if len(fields) != 2 {
		return 0, fmt.Errorf("unexpected ephemeral port range %q", raw)
	}
	low, err := strconv.Atoi(fields[0])
	if err != nil || low < 4096 {
		return 0, fmt.Errorf("ephemeral port range %q leaves no room below it", raw)
	}
	// 16 blocks of 128 ports, each room for the 7 set-ups of one process.
	block := low - 2048 + (os.Getpid()%16)*128
	return block + i*(tcpNodes+2), nil
}

// tcpSlot is one in-flight position: it owns its keys and has at most one
// operation outstanding, so the last acknowledged put of a key is the
// value every executor must end with.
type tcpSlot struct {
	idx    int
	rng    *rand.Rand
	keys   []string
	acked  map[string][]byte
	n      uint64
	key    string
	value  []byte
	issued time.Time
}

type tcpDone struct {
	slot *tcpSlot
	res  saebft.Result
	at   time.Time
}

// tcpRun is one in-process cluster over TCP.
type tcpRun struct {
	c     *saebft.Cluster
	h     *saebft.Client
	tr    *tracer
	dir   string
	mu    sync.Mutex
	apps  []*kvApp
	slots []*tcpSlot
	done  chan tcpDone

	ops, failed int
	lat         []float64 // wall ms, ops completed in the window
}

func newTCPRun(seed int64, tr *tracer, dir string, port int) (*tcpRun, error) {
	r := &tcpRun{tr: tr, dir: dir, done: make(chan tcpDone, tcpInFlight)}
	c, err := saebft.NewCluster(
		saebft.WithMode(saebft.ModeSeparate),
		saebft.WithFaults(1, 1, 1),
		saebft.WithClients(tcpClients),
		saebft.WithAppFactory(func() saebft.StateMachine {
			a := newKVApp(tr)
			r.mu.Lock()
			r.apps = append(r.apps, a)
			r.mu.Unlock()
			return a
		}),
		saebft.WithCrypto(saebft.CryptoConfig{Mode: saebft.CryptoMAC}),
		saebft.WithStorage(saebft.StorageConfig{DataDir: dir, Fsync: saebft.FsyncBatched}),
		saebft.WithTransport(saebft.TCPTransport(saebft.TCPConfig{BasePort: port})),
		saebft.WithTLS(saebft.TLSConfig{Ephemeral: true}),
		saebft.WithClientBatching(tcpBatchOps, 0, 0),
		saebft.WithSeed("perfbench"),
	)
	if err != nil {
		return nil, err
	}
	if err := c.Start(context.Background()); err != nil {
		c.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	r.c, r.h = c, c.Client()
	for i := 0; i < tcpInFlight; i++ {
		s := &tcpSlot{idx: i, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i))), acked: make(map[string][]byte)}
		for k := 0; k < keysPerClient; k++ {
			s.keys = append(s.keys, fmt.Sprintf("s%02d/k%d", i, k))
		}
		r.slots = append(r.slots, s)
	}
	// Preload: every slot writes each of its keys once.
	for k := 0; k < keysPerClient; k++ {
		for _, s := range r.slots {
			r.issue(s, s.keys[k])
		}
		for range r.slots {
			if d := <-r.done; !r.complete(d) {
				r.close()
				return nil, fmt.Errorf("preloading %s failed: %v", d.slot.key, d.res.Err)
			}
		}
	}
	return r, nil
}

func (r *tcpRun) close() {
	if r.c != nil {
		r.c.Close()
	}
	os.RemoveAll(r.dir)
}

// issue sends a put of a fresh value for key from slot s.
func (r *tcpRun) issue(s *tcpSlot, key string) {
	s.n++
	value := make([]byte, valueSize)
	binary.BigEndian.PutUint32(value, uint32(s.idx))
	binary.BigEndian.PutUint64(value[4:], s.n)
	s.rng.Read(value[12:])
	s.key, s.value, s.issued = key, value, time.Now()
	ch := r.h.InvokeAsync(context.Background(), kv.Put(key, value))
	go func() {
		res := <-ch
		r.done <- tcpDone{slot: s, res: res, at: time.Now()}
	}()
}

// complete checks one reply and records the acknowledged value.
func (r *tcpRun) complete(d tcpDone) bool {
	ok := d.res.Err == nil && string(d.res.Reply) == "OK"
	if ok {
		d.slot.acked[d.slot.key] = d.slot.value
	}
	return ok
}

type tcpSnap struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	ops     int
	stats   saebft.Stats
	client  saebft.ClientStats
}

func (r *tcpRun) snap() (tcpSnap, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st, err := r.c.Stats()
	return tcpSnap{wall: time.Now(), cpu: cpuNow(), mallocs: ms.Mallocs, ops: r.ops, stats: st, client: r.h.ClientStats()}, err
}

// tcpWindow is what one measured pass produced. Unlike the simulated
// workloads, its times are raw wall-clock and process-CPU times: this
// workload runs on every CPU, and no calibration tried while it was built
// steadied it on a host whose vCPUs change speed independently.
type tcpWindow struct{ from, to tcpSnap }

func (w *tcpWindow) ops() float64     { return float64(w.to.ops - w.from.ops) }
func (w *tcpWindow) seconds() float64 { return w.to.wall.Sub(w.from.wall).Seconds() }
func (w *tcpWindow) cpu() float64     { return float64(w.to.cpu - w.from.cpu) }

// measure keeps every slot busy for d, drains, and checks every executor's
// final state.
func (r *tcpRun) measure(d time.Duration) (*tcpWindow, error) {
	for _, s := range r.slots {
		r.issue(s, s.keys[s.rng.Intn(len(s.keys))])
	}
	w := &tcpWindow{}
	var err error
	if w.from, err = r.snap(); err != nil {
		return nil, err
	}
	r.tr.start()
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	measuring, outstanding := true, len(r.slots)
	drainLimit := time.NewTimer(d + 60*time.Second)
	defer drainLimit.Stop()
	for outstanding > 0 {
		select {
		case dn := <-r.done:
			r.ops++
			if !r.complete(dn) {
				r.failed++
				fmt.Fprintf(os.Stderr, "perfbench: put %s: reply %q, error %v\n", dn.slot.key, dn.res.Reply, dn.res.Err)
			}
			if !measuring {
				outstanding--
				continue
			}
			r.lat = append(r.lat, float64(dn.at.Sub(dn.slot.issued).Nanoseconds())/1e6)
			s := dn.slot
			r.issue(s, s.keys[s.rng.Intn(len(s.keys))])
		case <-deadline.C:
			r.tr.stop()
			measuring = false
			if w.to, err = r.snap(); err != nil {
				return nil, err
			}
		case <-drainLimit.C:
			return nil, fmt.Errorf("tcp: %d operations still outstanding after the window", outstanding)
		}
	}
	r.failed += r.converge()
	return w, nil
}

// converge waits for every executor to apply the last acknowledged value of
// every key and returns how many (executor, key) pairs never did.
func (r *tcpRun) converge() int {
	r.mu.Lock()
	apps := append([]*kvApp(nil), r.apps...)
	r.mu.Unlock()
	limit := time.Now().Add(10 * time.Second)
	for {
		bad := 0
		for _, a := range apps {
			for _, s := range r.slots {
				for _, k := range s.keys {
					if v, ok := a.get(k); !ok || !bytes.Equal(v, s.acked[k]) {
						bad++
					}
				}
			}
		}
		if len(apps) != 3 {
			fmt.Fprintf(os.Stderr, "perfbench: expected 3 executor state machines, found %d\n", len(apps))
			bad++
		}
		if bad == 0 || time.Now().After(limit) {
			if bad > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %d executor keys differ from the acknowledged values\n", bad)
			}
			return bad
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runTCP runs the tcp workload.
func runTCP(seed int64, d time.Duration, traced bool, work string) (*result, error) {
	fmt.Println("config:", tcpDescribe(seed))
	start := func(i int, tr *tracer) (*tcpRun, error) {
		port, err := basePort(i)
		if err != nil {
			return nil, fmt.Errorf("set-up failed: %w", err)
		}
		r, err := newTCPRun(seed, tr, runDir(work, "tcp", i), port)
		if err != nil {
			return nil, fmt.Errorf("set-up failed (base port %d): %w", port, err)
		}
		return r, nil
	}
	if traced {
		return runTCPTraced(d, start)
	}
	var (
		r      *tcpRun
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = start(i, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	w, err := r.measure(d)
	if err != nil {
		return nil, err
	}
	ops := w.ops()
	fmt.Printf("samples: latency n=%d over %.3f wall s; %d ops attempted, %d failed\n",
		len(r.lat), w.seconds(), r.ops, r.failed)
	res := outcome(r.ops, r.failed)
	m := res.Metrics
	put(m, "throughput_ops_s", ratio(ops, w.seconds()))
	put(m, "latency_p50_ms", percentile(r.lat, 0.50))
	put(m, "latency_p99_ms", percentile(r.lat, 0.99))
	put(m, "cpu_us_per_op", ratio(w.cpu()/1e3, ops))
	put(m, "allocs_per_op", ratio(float64(w.to.mallocs-w.from.mallocs), ops))
	put(m, "wire_bytes_per_op", ratio(float64(w.to.stats.Link.BytesSent-w.from.stats.Link.BytesSent), ops))
	put(m, "setup_s", median(setups))
	put(m, "peak_rss_mb", peakRSSMB())
	return res, nil
}

// runTCPTraced makes an untraced pass (the overhead baseline) and a traced
// pass with kv spans and a CPU profile. The layers inside the facade are
// reached only through its counters.
func runTCPTraced(d time.Duration, start func(int, *tracer) (*tcpRun, error)) (*result, error) {
	pass := d * 9 / 20
	base, err := start(0, nil)
	if err != nil {
		return nil, err
	}
	wb, err := base.measure(pass)
	base.close()
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	tp, err := start(1, tr)
	if err != nil {
		return nil, err
	}
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
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	res := outcome(base.ops+tp.ops, base.failed+tp.failed)
	m := make(map[string]metric)
	for _, lm := range append(append([]struct{ name, unit string }(nil), perLayer...), tcpLayer...) {
		put(m, lm.name, 0)
	}
	ops := wt.ops()
	sum := tr.summarize()
	for _, k := range []string{"execute", "query", "checkpoint"} {
		put(m, "kv."+k+"_us_per_op", ratio(sum.self["kv."+k]/1e3, ops))
	}
	var executes uint64
	for _, s := range tr.spans {
		if s.kind == kvExecute {
			executes++
		}
	}
	put(m, "kv.executes_per_op", ratio(float64(executes), ops))
	from, to := wt.from, wt.to
	fs, ts := from.stats.Link, to.stats.Link
	put(m, "transport.frames_per_op", ratio(float64(ts.FramesSent-fs.FramesSent), ops))
	put(m, "transport.frames_dropped", float64(ts.FramesDropped-fs.FramesDropped))
	put(m, "transport.reconnects", float64(ts.Reconnects-fs.Reconnects))
	put(m, "saebft.ops_per_batch", ratio(float64(to.client.BatchedOps-from.client.BatchedOps), float64(to.client.Batches-from.client.Batches)))
	put(m, "saebft.pipeline_width", float64(to.client.PipelineWidth))
	put(m, "client.retransmits_per_op", ratio(float64(to.stats.Retransmits-from.stats.Retransmits), ops))
	for name, v := range shares {
		put(m, name, v)
	}
	put(m, "trace.overhead_ratio", ratio(ratio(wt.cpu(), ops), ratio(wb.cpu(), wb.ops())))
	put(m, "trace.coverage_ratio", ratio(sum.covered, wt.cpu()))
	fmt.Printf("samples: traced pass %d spans, %d ops\n", len(tr.spans), int(ops))
	res.Metrics = m
	return res, nil
}
