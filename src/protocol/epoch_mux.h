#ifndef DCP_PROTOCOL_EPOCH_MUX_H_
#define DCP_PROTOCOL_EPOCH_MUX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "protocol/replica_node.h"
#include "runtime/runtime.h"

namespace dcp::protocol {

/// Snapshot of one mux's counters, for tests and the bench.
struct EpochMuxStats {
  uint64_t ticks = 0;
  uint64_t checks_run = 0;
  uint64_t checks_ok = 0;
  uint64_t checks_failed = 0;
  uint64_t dirty_checks = 0;
};

/// The epoch daemon of a node: the "steady (albeit infrequent) pulse of
/// epoch checking operations" (Section 2). ONE periodic timer drives the
/// epoch checks of every lineage the node belongs to — the group's shared
/// epoch in group mode, one lineage per hosted object when sharded — so
/// the runtime's timer load stays O(nodes) instead of O(nodes x objects).
///
/// Each tick drains the dirty set (lineages flagged by recovery or failed
/// checks) and then advances a round-robin cursor over the lineage ring
/// by `kBatchPerTick` lineages.
///
/// Duty follows received epoch polls, not a liveness oracle. The paper
/// restarts the pulse when "any node notic[es] that epoch checking has
/// not run for a while" (Section 4.3); a poll received from a member
/// ranked above this node is exactly that notice. The node ranked k-th
/// in a lineage's ranking (top = 0) holds duty once no higher-ranked
/// member's poll has arrived for k+1 check intervals, counted from
/// construction or OnRecover; the top-ranked node holds duty at once.
/// Correctness never depends on the duty choice: epoch installation is
/// arbitrated by the lineage's 2PC, and two nodes that transiently both
/// hold duty merely duplicate a check.
class EpochMux {
 public:
  /// A lineage: one object's (sharded mode) or, as std::nullopt, the
  /// group's shared epoch.
  using Lineage = std::optional<storage::ObjectId>;
  /// Lineages with their duty rankings, best-ranked node first.
  using Rankings = std::vector<std::pair<Lineage, std::vector<NodeId>>>;

  /// Lineages considered per tick. Larger batches mean fewer, fatter
  /// ticks for the same cadence.
  static constexpr uint32_t kBatchPerTick = 4;
  /// Label cap for the per-lineage check counter family
  /// ("mux.lineage_checks.<object>"); further lineages fold into the
  /// family's overflow bucket.
  static constexpr size_t kMetricCap = 16;

  /// `ranked` lists the lineages this node belongs to, each with its duty
  /// ranking (this node must be a member): the placement ranking of a
  /// hosted object, or the group's nodes by descending id.
  /// `check_interval` is the target per-lineage cadence: the tick period
  /// is derived from it so that every lineage is visited about once per
  /// interval, however many the node belongs to.
  EpochMux(ReplicaNode* node, Rankings ranked, rt::Time check_interval);
  ~EpochMux();
  EpochMux(const EpochMux&) = delete;
  EpochMux& operator=(const EpochMux&) = delete;

  /// Flags a lineage for an immediate check at the next tick (failed
  /// operation, suspected divergence, post-recovery).
  void MarkDirty(Lineage lineage);

  /// Called by the cluster harness around fail-stop events.
  void OnCrash();
  void OnRecover();

  [[nodiscard]] EpochMuxStats stats() const;
  [[nodiscard]] rt::Time tick_interval() const { return tick_interval_; }

 private:
  void Tick();
  /// Runs the check for `lineage` if this node currently holds duty for
  /// it and no check for it is already in flight.
  void MaybeCheck(Lineage lineage, bool from_dirty);
  [[nodiscard]] bool HoldsDuty(Lineage lineage) const;

  ReplicaNode* node_;
  rt::Time check_interval_;
  rt::Time tick_interval_ = 0;
  /// When duty timing last restarted: construction or OnRecover.
  rt::Time quiet_since_ = 0;
  std::vector<Lineage> ring_;
  /// Per lineage, the members ranked above this node, best first.
  std::map<Lineage, std::vector<NodeId>> higher_;
  size_t cursor_ = 0;
  std::set<Lineage> dirty_;
  std::set<Lineage> in_flight_;
  std::unique_ptr<rt::PeriodicTimer> ticker_;

  obs::Counter* ticks_;
  obs::Counter* checks_run_;
  obs::Counter* checks_ok_;
  obs::Counter* checks_failed_;
  obs::Counter* dirty_checks_;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_EPOCH_MUX_H_
