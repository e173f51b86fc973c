// Daemon-on durable churn: epoch daemons, durable nodes and a site-model
// crash schedule under open-loop load, audited for linearizability. It is
// the workload that exposed epoch checks whose install was not atomic
// with the state they polled; lineariz_audit_test, epoch_churn_audit_test
// and audit_mutation_test drive it.

#ifndef DCP_TESTS_EPOCH_CHURN_H_
#define DCP_TESTS_EPOCH_CHURN_H_

#include <cstdint>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "harness/workload.h"
#include "protocol/cluster.h"
#include "util/random.h"

namespace dcp::harness::epoch_churn {

/// 16 objects on a 3x3 grid, durability on, epoch daemons checking every
/// 400 ms: group mode at `replication_factor` 0, else sharded (each
/// object its own lineage, checked by the EpochMux).
inline protocol::ClusterOptions Options(uint64_t seed,
                                        uint32_t replication_factor) {
  protocol::ClusterOptions opts;
  opts.num_nodes = 9;
  opts.num_objects = 16;
  opts.replication_factor = replication_factor;
  opts.coterie = protocol::CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.durability.enabled = true;
  opts.start_epoch_daemons = true;
  opts.daemon_options.check_interval = 400;
  return opts;
}

/// A crash window: `node` is down over [down, up).
struct Outage {
  NodeId node;
  sim::Time down;
  sim::Time up;
};

/// The site model with at most two nodes down at once, so the grid keeps
/// a read and a write quorum: per-node exponential up times (mean 20 s)
/// and down times (mean 2 s). A failure drawn while two nodes are down is
/// skipped, and the node stays up for another draw.
inline std::vector<Outage> SiteModelOutages(uint64_t seed, uint32_t num_nodes,
                                            sim::Time horizon) {
  constexpr double kMtbf = 20000;
  constexpr double kMttr = 2000;
  Rng rng(seed);
  std::vector<sim::Time> next(num_nodes);
  std::vector<bool> up(num_nodes, true);
  std::vector<sim::Time> down_since(num_nodes, 0);
  for (sim::Time& t : next) t = rng.Exponential(1.0 / kMtbf);
  std::vector<Outage> outages;
  uint32_t down = 0;
  for (;;) {
    NodeId n = 0;
    for (NodeId i = 1; i < num_nodes; ++i) {
      if (next[i] < next[n]) n = i;
    }
    const sim::Time t = next[n];
    if (t >= horizon) break;
    if (!up[n]) {
      outages.push_back({n, down_since[n], t});
      up[n] = true;
      --down;
      next[n] = t + rng.Exponential(1.0 / kMtbf);
    } else if (down < 2) {
      up[n] = false;
      down_since[n] = t;
      ++down;
      next[n] = t + rng.Exponential(1.0 / kMttr);
    } else {
      next[n] = t + rng.Exponential(1.0 / kMtbf);
    }
  }
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (!up[n]) outages.push_back({n, down_since[n], horizon});
  }
  return outages;
}

struct RunResult {
  bool quiesced = false;
  uint64_t ops_recorded = 0;
  analysis::AuditVerdict verdict;
  /// Epoch installs the skip_epoch_state_check hook let through.
  uint64_t epoch_checks_skipped = 0;
};

/// Open-loop load (0.05 ops/ms, half writes, 2 s client deadline) for
/// `horizon` under `outages`, then recovery of every node, quiescence
/// and a linearizability audit of the client history.
inline RunResult Run(const protocol::ClusterOptions& opts,
                     uint64_t workload_seed, sim::Time horizon,
                     const std::vector<Outage>& outages) {
  protocol::Cluster cluster(opts);
  for (const Outage& o : outages) {
    cluster.simulator().Schedule(o.down,
                                 [&cluster, o] { cluster.Crash(o.node); });
    cluster.simulator().Schedule(o.up,
                                 [&cluster, o] { cluster.Recover(o.node); });
  }
  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.05;
  wopts.write_fraction = 0.5;
  wopts.seed = workload_seed;
  wopts.client_history = &history;
  wopts.op_timeout = 2000;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(horizon);
  workload.Stop();
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.network().IsUp(n)) cluster.Recover(n);
  }
  RunResult result;
  for (int slice = 0; slice < 40 && !result.quiesced; ++slice) {
    cluster.RunFor(500);
    result.quiesced = cluster.Quiescent();
  }
  result.ops_recorded = history.ops().size();
  analysis::AuditOptions audit;
  audit.mode = analysis::AuditMode::kLinearizable;
  audit.initial_value = opts.initial_value;
  result.verdict = analysis::AuditHistory(history, audit);
  result.epoch_checks_skipped =
      cluster.metrics().counter("mutation.epoch_check_skipped")->value();
  return result;
}

}  // namespace dcp::harness::epoch_churn

#endif  // DCP_TESTS_EPOCH_CHURN_H_
