package main

import (
	"bytes"
	"compress/gzip"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// holdoutSeed is kept out of tuning: the count pass must repeat exactly
// on it as well.
const holdoutSeed = 2

func countsOf(t *testing.T, sp *simSpec, seed int64) map[string]metric {
	t.Helper()
	r, wc, w, err := countPass(sp, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d operations failed", r.failed)
	}
	m := make(map[string]metric)
	countMetrics(m, w, wc)
	return m
}

// TestCountsRepeat runs the MeasureCompute-off count pass twice per seed:
// every count it reports must come out identical.
func TestCountsRepeat(t *testing.T) {
	cases := []struct {
		workload string
		seed     int64
	}{{"write", 1}, {"read", 1}, {"firewall", 1}, {"write", holdoutSeed}}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d", c.workload, c.seed), func(t *testing.T) {
			sp := simSpecs[c.workload]
			a, b := countsOf(t, sp, c.seed), countsOf(t, sp, c.seed)
			if !reflect.DeepEqual(a, b) {
				for name := range a {
					if a[name] != b[name] {
						t.Errorf("%s: %v then %v", name, a[name].Value, b[name].Value)
					}
				}
			}
			if v := a["pbft.view_changes"].Value; v != 0 {
				t.Errorf("pbft.view_changes = %v, want 0", v)
			}
			// Every put executes once on each of the 2g+1 = 3 executors.
			if sp.reads == 0 && a["kv.executes_per_op"].Value != 3 {
				t.Errorf("kv.executes_per_op = %v, want 3", a["kv.executes_per_op"].Value)
			}
			if a["wire.msgs_per_op.request"].Value == 0 {
				t.Error("the count pass saw no requests")
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if simSpecs[w.Name] == nil && w.Name != "tcp" {
			t.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestProfileShares decodes a real CPU profile of an Ed25519 loop. Most
// samples must have an Ed25519 frame on the stack; the flat share is only
// checked to be positive, since under -race the leaf is often the race
// runtime.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := []byte("perfbench")
	sig := ed25519.Sign(priv, msg)
	pub := priv.Public().(ed25519.PublicKey)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		ed25519.Verify(pub, msg, sig)
	}
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 6 || shares["cpu.ed25519_share"] <= 0 {
		t.Errorf("shares = %v, want six shares with a positive cpu.ed25519_share", shares)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	total, inEd := 0, 0
	for _, s := range p.samples {
		total++
		found := false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				found = found || strings.Contains(p.strings[p.funcName[fn]], "ed25519")
			}
		}
		if found {
			inEd++
		}
	}
	if total == 0 || inEd*2 < total {
		t.Errorf("%d of %d samples have an Ed25519 frame, want most", inEd, total)
	}
}

// TestReportNames runs a short untraced and traced firewall run: each must
// be correct and report exactly the metrics BENCHMARK.json names.
func TestReportNames(t *testing.T) {
	for _, c := range []struct {
		traced bool
		want   []struct{ name, unit string }
	}{{false, endToEnd}, {true, perLayer}} {
		res, err := runSim(simSpecs["firewall"], 1, 500*time.Millisecond, c.traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("traced=%v: correct=%v failed=%d", c.traced, res.Correct, res.Failed)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("traced=%v: %d metrics, want %d", c.traced, len(res.Metrics), len(c.want))
		}
		for _, m := range c.want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", c.traced, m.name, got, m.unit)
			}
		}
	}
}

// TestCalibratorAllocs checks that the kernel makes no heap allocations,
// so it adds nothing to allocs_per_op.
func TestCalibratorAllocs(t *testing.T) {
	c := newCalibrator(kernelMix{ed25519: 0.5, bigint: 0.25})
	if n := testing.AllocsPerRun(20, func() { c.measure() }); n != 0 {
		t.Errorf("calibration kernel allocates %v objects per run, want 0", n)
	}
	if c.scale <= 0 {
		t.Errorf("scale = %v, want positive", c.scale)
	}
}
