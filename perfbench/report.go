package main

import (
	"strings"

	"repro/internal/wire"
)

// endToEnd lists the untraced run's metrics and their units, in report
// order. BENCHMARK.json names the same set (benchmark_test.go checks it).
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"wire_bytes_per_op", "bytes"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// wireKinds are the message kinds whose traffic the per-layer report counts.
var wireKinds = []wire.MsgType{
	wire.TRequest, wire.TPrePrepare, wire.TPrepare, wire.TCommit, wire.TAgreeCheckpoint,
	wire.TOrder, wire.TExecReply, wire.TReplyCert, wire.TExecCheckpoint,
	wire.TReadRequest, wire.TReadReply,
}

// kindName is the metric spelling of a message kind ("pre-prepare").
func kindName(t wire.MsgType) string { return strings.ToLower(t.String()) }

// perLayer lists the traced run's metrics and their units, in report order.
// BENCHMARK.json names the same set (benchmark_test.go checks it).
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("us",
		"pbft.request_us_per_op", "pbft.pre-prepare_us_per_op", "pbft.prepare_us_per_op",
		"pbft.commit_us_per_op", "pbft.a-checkpoint_us_per_op", "pbft.tick_us_per_op",
		"agreement.busy_us_per_op")
	add("ratio", "agreement.primary_util")
	add("us", "agreement.transit_us_p50")
	add("count", "pbft.ops_per_batch", "pbft.view_changes")
	add("us", "mqueue.exec-reply_us_per_op")
	add("count", "mqueue.orders_per_batch")
	add("us", "execnode.order_us_per_op", "execnode.e-checkpoint_us_per_op")
	add("ratio", "cpu.sha256_share")
	add("us", "execnode.read-request_us_per_op", "replycert.read-reply_us_per_op", "execution.busy_us_per_op")
	add("ratio", "execution.util_max")
	add("us", "execution.transit_us_p50")
	add("ratio", "read.certified_ratio", "read.mismatch_ratio", "execnode.reads_refused_ratio")
	add("count", "storage.appends_per_op")
	add("bytes", "storage.append_bytes_per_op")
	add("us", "storage.append_us_per_op")
	add("count", "storage.fsyncs_per_op")
	add("us", "storage.fsync_us_p50", "storage.fsync_us_p99", "storage.checkpoint_us_per_op")
	add("ratio", "cpu.syscall_share")
	add("us", "firewall.us_per_op", "filter.busy_us_per_op")
	add("ratio", "filter.util_max")
	add("us", "filter.transit_us_p50")
	add("ratio", "cpu.bigint_share")
	add("us", "core.submit_us_per_op", "replycert.reply_us_per_op", "client.busy_us_per_op")
	add("count", "client.retransmits_per_op", "kv.executes_per_op")
	add("us", "kv.execute_us_per_op", "kv.query_us_per_op", "kv.checkpoint_us_per_op")
	for _, t := range wireKinds {
		add("count", "wire.msgs_per_op."+kindName(t))
		add("bytes", "wire.bytes_per_op."+kindName(t))
	}
	add("ns", "wire.decode_ns_per_msg", "wire.encode_ns_per_msg")
	add("ratio", "cpu.ed25519_share", "cpu.hmac_share", "cpu.gc_share")
	add("ratio", "trace.overhead_ratio", "trace.coverage_ratio")
	return out
}()

// tcpLayer lists the per-layer metrics only the tcp workload reports: the
// layers the simulated workloads bypass.
var tcpLayer = []struct{ name, unit string }{
	{"transport.frames_per_op", "count"},
	{"transport.frames_dropped", "count"},
	{"transport.reconnects", "count"},
	{"saebft.ops_per_batch", "count"},
	{"saebft.pipeline_width", "count"},
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer, tcpLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}
