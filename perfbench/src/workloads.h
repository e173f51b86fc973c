#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

/// sock_small / sock_partial_4k: the socket backend.
void RunSocketWorkload(const RunOptions& options, Report* report);
/// sim_durable_churn: the simulator backend.
void RunSimWorkload(const RunOptions& options, Report* report);

/// Every per-layer metric of the traced run. A layer a workload does not
/// exercise reports 0 (the simulator has no wire frames; the socket
/// backend has no durable store and no event queue).
struct LayerValues {
  double post_wait_us_p50 = 0, post_wait_us_p99 = 0;
  double completion_wait_us_p50 = 0;
  double frames_per_op = 0, frames_per_writev = 0, pool_hit_rate = 0;
  double encode_ns_p50 = 0, decode_ns_p50 = 0;
  double bytes_per_frame = 0, bytes_per_op = 0;
  double write_us_p50 = 0, write_us_p99 = 0, read_us_p50 = 0, read_us_p99 = 0;
  double msgs_per_write = 0, msgs_per_read = 0, twopc_per_write = 0;
  double heavy_frac = 0, conflict_retries_per_kop = 0;
  double write_quorum_size = 0, read_quorum_size = 0;
  double stale_marks_per_write = 0, prop_offers_per_write = 0;
  double rpc_calls_per_op = 0, rpc_timeouts_per_kop = 0;
  double sim_events_per_op = 0, sim_ns_per_event = 0;
  double wal_records_per_write = 0, fsyncs_per_write = 0;
  double group_commit_batch = 0, wal_bytes_per_user_byte = 0;
  double checkpoint_bytes_per_write = 0;
  double recover_ms_p50 = 0, recover_ms_p99 = 0;
  double ops_per_s_traced = 0, ops_per_s_untraced = 0;
  /// The traced run's client write p50, and the sum of the p50s of the
  /// layers a write passes through (post wait, protocol, completion wait)
  /// as a share of it.
  double client_write_us_p50 = 0, layer_sum_frac = 0;
  /// Samples behind each percentile above, by metric name.
  std::vector<std::pair<std::string, uint64_t>> sample_counts;
};

void AddLayerMetrics(const LayerValues& v, Report* report);

/// Durations of the spans named `name` (of `kind`, unless `any_kind`),
/// scaled from ns by `scale`.
Samples SpanDurations(const std::vector<Span>& spans, SpanName name,
                      OpKind kind, bool any_kind, double scale);

/// The protocol-layer counts that both backends read from their metrics
/// registries after a run (summed over nodes).
struct ProtocolCounts {
  double writes_started = 0, reads_started = 0, writes_heavy = 0;
  double twopc_started = 0, rpc_calls = 0, rpc_timeouts = 0;
  double prop_offers = 0;
};
ProtocolCounts ReadProtocolCounts(const std::map<std::string, double>& sums);

/// Fills the layer values both backends measure the same way: the
/// protocol and coterie counts, the message ledger and the protocol spans.
void FillProtocolLayers(const ProtocolCounts& pc,
                        const MessageLedger::Counts& ledger,
                        std::vector<Span>& spans, double writes_committed,
                        double reads_committed, double conflict_retries,
                        double span_scale, LayerValues* v);

/// Whether a failed op provably did not take effect (lock conflict,
/// decided abort, rejected request). Other failures leave the op
/// open-interval in the audited history: it may have committed.
bool IsDefiniteFailure(const dcp::Status& status);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
