package main

// How the simulated workloads charge compute to the virtual clock.
//
// SimNet's MeasureCompute charges each handler's wall time. On the host
// this benchmark was built on (a 2-vCPU VM on shared cores) that is far too
// noisy to gate on: the same Ed25519 verification takes about 250 µs or
// about 410 µs depending on the moment, alternating every few seconds, and
// an fsync's wall time, and even its kernel CPU time, follow the shared
// disk. So every simulated node is wrapped by simNode, which measures the
// handler itself and sets the node's SimNet compute scale so that the
// virtual clock is charged
//
//	(thread CPU time of the handler − CPU inside flushed syncs) × speed scale
//	  + flushed syncs × fsyncModel
//
// Thread CPU time leaves out time the thread was descheduled. The speed
// scale comes from the thread CPU time of a fixed standard-library kernel
// (Ed25519 verification, big-integer modular multiplication, SHA-256 and
// map writes: the kinds of work the program spends its CPU on), re-timed
// every calibrateEvery; it turns CPU time into the time the work takes on
// a core that runs the kernel in its reference time. The kernel never
// calls program code, so a change to the program moves the charged time
// exactly as it moves the raw one. A flushed WAL sync is real (the data
// reaches the disk) but it is charged as fsyncModel, as links are
// modelled by their delay distribution; its measured latency is reported
// by the traced run.

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"math/big"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/transport"
	"repro/internal/types"
)

const (
	calibrateEvery = 20 * time.Millisecond
	fsyncModel     = 200 * time.Microsecond
)

// threadCPU returns the calling thread's CPU time in nanoseconds. The
// simulation goroutine is locked to its thread (runSim), so this is the
// CPU the simulation has used.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// The kernel has three parts, each with its reference time: roughly its
// thread CPU time on the fast mode of the host described above. It makes
// no heap allocations, so it adds nothing to allocs_per_op.
const (
	refEd25519 = 125 * time.Microsecond // two Ed25519 verifications
	refBigint  = 90 * time.Microsecond  // 192 512-bit modular multiplications
	refOther   = 38 * time.Microsecond  // SHA-256 of 32 KiB, 512 copies and map writes
)

// kernelMix weights the kernel's parts by the share of a workload's CPU
// they stand for, as its CPU profile shows; the rest is charged at the
// speed of the third part. The two crypto families do not slow down
// together: the ratio of their times swings by ±5% from second to second.
type kernelMix struct{ ed25519, bigint float64 }

// calibrator times the reference kernel.
type calibrator struct {
	mix   kernelMix
	next  time.Time
	scale float64 // reference time over measured time, mixed
	n     int
	sum   float64 // sum of scales, for the mean
	pub   ed25519.PublicKey
	msg   []byte
	sig   []byte
	mod   *big.Int
	a     *big.Int // running product
	b     *big.Int
	p     *big.Int // scratch for the product, quotient and remainder
	q     *big.Int
	r     *big.Int
	buf   []byte
	vals  [][]byte
	table map[int][]byte
}

func newCalibrator(mix kernelMix) *calibrator {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, 64)
	h := sha256.Sum256([]byte("perfbench modulus"))
	mod := new(big.Int).SetBytes(bytes.Repeat(h[:], 2)) // 512 bits
	mod.SetBit(mod, 511, 1)
	mod.SetBit(mod, 0, 1)
	c := &calibrator{
		mix:   mix,
		pub:   priv.Public().(ed25519.PublicKey),
		msg:   msg,
		sig:   ed25519.Sign(priv, msg),
		mod:   mod,
		a:     new(big.Int).Rsh(mod, 3),
		b:     new(big.Int).Rsh(mod, 1),
		p:     new(big.Int),
		q:     new(big.Int),
		r:     new(big.Int),
		buf:   make([]byte, 32<<10),
		vals:  make([][]byte, 128),
		table: make(map[int][]byte, 512),
	}
	for i := range c.vals {
		c.vals[i] = make([]byte, 128)
	}
	c.measure() // the first run sizes the big-integer scratch
	return c
}

// due reports whether the next calibration is due.
func (c *calibrator) due() bool { return !time.Now().Before(c.next) }

// measure times the kernel once and updates the scale.
func (c *calibrator) measure() float64 {
	t0 := threadCPU()
	for i := 0; i < 2; i++ {
		if !ed25519.Verify(c.pub, c.msg, c.sig) {
			panic("perfbench: calibration signature does not verify")
		}
	}
	t1 := threadCPU()
	for i := 0; i < 192; i++ {
		c.p.Mul(c.a, c.b)
		c.q.QuoRem(c.p, c.mod, c.r)
		c.a, c.r = c.r, c.a
	}
	t2 := threadCPU()
	sum := sha256.Sum256(c.buf)
	c.buf[0] = sum[0]
	for i := 0; i < 512; i++ {
		v := c.vals[i&127]
		copy(v, c.buf[i*32:])
		c.table[i] = v
	}
	t3 := threadCPU()
	speed := func(ref time.Duration, took int64) float64 { return float64(ref) / float64(max(took, 1)) }
	other := 1 - c.mix.ed25519 - c.mix.bigint
	c.scale = c.mix.ed25519*speed(refEd25519, t1-t0) + c.mix.bigint*speed(refBigint, t2-t1) + other*speed(refOther, t3-t2)
	c.n++
	c.sum += c.scale
	c.next = time.Now().Add(calibrateEvery)
	return c.scale
}

// settle returns the median scale of k back-to-back measurements, for
// rescaling a one-off interval such as a set-up.
func (c *calibrator) settle(k int) float64 {
	xs := make([]float64, k)
	for i := range xs {
		xs[i] = c.measure()
	}
	sort.Float64s(xs)
	return xs[k/2]
}

// mean returns the mean scale over every measurement so far.
func (c *calibrator) mean() float64 { return ratio(c.sum, float64(c.n)) }

// simNode wraps every simulated node of a compute-charged or traced pass:
// it records the node's spans and charges its handlers as described above.
type simNode struct {
	inner transport.Node
	id    types.NodeID
	role  types.Role
	r     *simRun
}

func (n *simNode) Deliver(from types.NodeID, data []byte, now types.Time) {
	m := n.r.startCharge()
	i := n.r.tr.deliverSpan(n.id, n.role, from, data)
	n.inner.Deliver(from, data, now)
	n.r.tr.end(i)
	n.r.endCharge(n.id, m)
}

func (n *simNode) Tick(now types.Time) {
	m := n.r.startCharge()
	i := n.r.tr.begin(span{node: n.id, role: n.role, layer: layerNode, kind: kindTick})
	n.inner.Tick(now)
	n.r.tr.end(i)
	n.r.endCharge(n.id, m)
}

type chargeMark struct {
	wall    time.Time
	cpu     int64
	syncs   uint64
	syncCPU int64
}

func (r *simRun) startCharge() chargeMark {
	if !r.charging {
		return chargeMark{}
	}
	return chargeMark{wall: time.Now(), cpu: threadCPU(), syncs: r.store.fsyncs, syncCPU: r.store.syncCPU}
}

// endCharge sets the node's compute scale so that SimNet, which multiplies
// the handler's wall time by it right after the handler returns, charges
// the handler's modelled cost instead.
func (r *simRun) endCharge(id types.NodeID, m chargeMark) {
	if !r.charging {
		return
	}
	cpu := threadCPU() - m.cpu - (r.store.syncCPU - m.syncCPU)
	charged := float64(cpu)*r.scale + float64(r.store.fsyncs-m.syncs)*float64(fsyncModel)
	if wall := float64(time.Since(m.wall)); wall > 0 {
		r.c.Net.SetComputeScale(id, charged/wall)
	}
}
