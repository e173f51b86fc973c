#include <string>

#include "workloads.h"

namespace perfbench {

void AddLayerMetrics(const LayerValues& v, Report* r) {
  const std::pair<const char*, std::pair<double, const char*>> rows[] = {
      {"runtime.post_wait_us_p50", {v.post_wait_us_p50, "us"}},
      {"runtime.post_wait_us_p99", {v.post_wait_us_p99, "us"}},
      {"runtime.completion_wait_us_p50", {v.completion_wait_us_p50, "us"}},
      {"runtime.frames_per_op", {v.frames_per_op, "frames/op"}},
      {"runtime.frames_per_writev", {v.frames_per_writev, "frames/call"}},
      {"runtime.pool_hit_rate", {v.pool_hit_rate, "ratio"}},
      {"codec.encode_ns_p50", {v.encode_ns_p50, "ns"}},
      {"codec.decode_ns_p50", {v.decode_ns_p50, "ns"}},
      {"codec.bytes_per_frame", {v.bytes_per_frame, "B/frame"}},
      {"codec.bytes_per_op", {v.bytes_per_op, "B/op"}},
      {"protocol.write_us_p50", {v.write_us_p50, "us"}},
      {"protocol.write_us_p99", {v.write_us_p99, "us"}},
      {"protocol.read_us_p50", {v.read_us_p50, "us"}},
      {"protocol.read_us_p99", {v.read_us_p99, "us"}},
      {"protocol.msgs_per_write", {v.msgs_per_write, "msgs/op"}},
      {"protocol.msgs_per_read", {v.msgs_per_read, "msgs/op"}},
      {"protocol.twopc_per_write", {v.twopc_per_write, "txns/op"}},
      {"protocol.heavy_frac", {v.heavy_frac, "ratio"}},
      {"protocol.conflict_retries_per_kop",
       {v.conflict_retries_per_kop, "retries/kop"}},
      {"coterie.write_quorum_size", {v.write_quorum_size, "locks/op"}},
      {"coterie.read_quorum_size", {v.read_quorum_size, "locks/op"}},
      {"storage.stale_marks_per_write", {v.stale_marks_per_write, "marks/op"}},
      {"storage.prop_offers_per_write",
       {v.prop_offers_per_write, "offers/op"}},
      {"rpc.calls_per_op", {v.rpc_calls_per_op, "calls/op"}},
      {"rpc.timeouts_per_kop", {v.rpc_timeouts_per_kop, "timeouts/kop"}},
      {"sim.events_per_op", {v.sim_events_per_op, "events/op"}},
      {"sim.ns_per_event", {v.sim_ns_per_event, "ns"}},
      {"store.wal_records_per_write", {v.wal_records_per_write, "records/op"}},
      {"store.fsyncs_per_write", {v.fsyncs_per_write, "fsyncs/op"}},
      {"store.group_commit_batch", {v.group_commit_batch, "records/batch"}},
      {"store.wal_bytes_per_user_byte", {v.wal_bytes_per_user_byte, "B/B"}},
      {"store.checkpoint_bytes_per_write",
       {v.checkpoint_bytes_per_write, "B/op"}},
      {"store.recover_ms_p50", {v.recover_ms_p50, "ms"}},
      {"store.recover_ms_p99", {v.recover_ms_p99, "ms"}},
      {"trace.ops_per_s_traced", {v.ops_per_s_traced, "1/s"}},
      {"trace.ops_per_s_untraced", {v.ops_per_s_untraced, "1/s"}},
      {"trace.overhead_frac",
       {v.ops_per_s_untraced > 0
            ? 1.0 - v.ops_per_s_traced / v.ops_per_s_untraced
            : 0,
        "ratio"}},
      {"trace.client_write_us_p50", {v.client_write_us_p50, "us"}},
      {"trace.layer_sum_frac", {v.layer_sum_frac, "ratio"}},
  };
  for (const auto& [name, value_unit] : rows) {
    Metric m{name, value_unit.first, value_unit.second, 0, 0, 0};
    const std::string n = name;
    for (const auto& [counted, samples] : v.sample_counts) {
      if (counted == n) {
        m.samples = samples;
        const bool p99 =
            n.size() > 4 && n.compare(n.size() - 4, 4, "_p99") == 0;
        m.beyond = Beyond(samples, p99 ? 99 : 50);
      }
    }
    r->metrics.push_back(m);
  }
}

Samples SpanDurations(const std::vector<Span>& spans, SpanName name,
                      OpKind kind, bool any_kind, double scale) {
  Samples out;
  for (const Span& s : spans) {
    if (s.name != name || (!any_kind && s.kind != kind)) continue;
    out.Add(static_cast<double>(s.dur_ns) * scale);
  }
  return out;
}

ProtocolCounts ReadProtocolCounts(const std::map<std::string, double>& sums) {
  ProtocolCounts pc;
  pc.writes_started = Get(sums, "op.write.started");
  pc.reads_started = Get(sums, "op.read.started");
  pc.writes_heavy = Get(sums, "op.write.heavy");
  pc.twopc_started = Get(sums, "twopc.started");
  pc.rpc_calls = Get(sums, "rpc.calls");
  pc.rpc_timeouts = Get(sums, "rpc.timeouts");
  pc.prop_offers = Get(sums, "node.propagation_offers_sent");
  return pc;
}

void FillProtocolLayers(const ProtocolCounts& pc,
                        const MessageLedger::Counts& ledger,
                        std::vector<Span>& spans, double writes_committed,
                        double reads_committed, double conflict_retries,
                        double span_scale, LayerValues* v) {
  const double ops = writes_committed + reads_committed;
  Samples w = SpanDurations(spans, SpanName::kProtocolOp, OpKind::kWrite,
                            false, span_scale);
  Samples rd = SpanDurations(spans, SpanName::kProtocolOp, OpKind::kRead,
                             false, span_scale);
  v->write_us_p50 = w.Percentile(50);
  v->write_us_p99 = w.Percentile(99);
  v->read_us_p50 = rd.Percentile(50);
  v->read_us_p99 = rd.Percentile(99);
  v->sample_counts.push_back({"protocol.write_us_p50", w.count()});
  v->sample_counts.push_back({"protocol.write_us_p99", w.count()});
  v->sample_counts.push_back({"protocol.read_us_p50", rd.count()});
  v->sample_counts.push_back({"protocol.read_us_p99", rd.count()});

  v->msgs_per_write = Ratio(static_cast<double>(ledger.msgs[0]),
                            writes_committed);
  v->msgs_per_read = Ratio(static_cast<double>(ledger.msgs[1]),
                           reads_committed);
  v->twopc_per_write = Ratio(pc.twopc_started, writes_committed);
  v->heavy_frac = Ratio(pc.writes_heavy, pc.writes_started);
  v->conflict_retries_per_kop = Ratio(conflict_retries * 1000.0, ops);
  v->write_quorum_size =
      Ratio(static_cast<double>(ledger.exclusive_locks), pc.writes_started);
  v->read_quorum_size =
      Ratio(static_cast<double>(ledger.shared_locks), pc.reads_started);
  v->stale_marks_per_write =
      Ratio(static_cast<double>(ledger.stale_marks), writes_committed);
  v->prop_offers_per_write = Ratio(pc.prop_offers, writes_committed);
  v->rpc_calls_per_op = Ratio(pc.rpc_calls, ops);
  v->rpc_timeouts_per_kop = Ratio(pc.rpc_timeouts * 1000.0, ops);
}

bool IsDefiniteFailure(const dcp::Status& s) {
  switch (s.code()) {
    case dcp::StatusCode::kInvalidArgument:
    case dcp::StatusCode::kNotFound:
    case dcp::StatusCode::kAborted:
    case dcp::StatusCode::kConflict:
    case dcp::StatusCode::kStaleData:
      return true;
    default:
      return false;
  }
}

}  // namespace perfbench
