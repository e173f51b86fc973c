#ifndef DCP_PROTOCOL_CLUSTER_H_
#define DCP_PROTOCOL_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "coterie/coterie.h"
#include "coterie/grid.h"
#include "net/network.h"
#include "protocol/epoch_daemon.h"
#include "protocol/epoch_mux.h"
#include "protocol/history.h"
#include "protocol/operations.h"
#include "protocol/placement.h"
#include "protocol/replica_node.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/result.h"

namespace dcp::protocol {

/// Which coterie rule the dynamic protocol runs over. The protocol of
/// Section 4 is rule-agnostic; this is the generality the paper claims.
enum class CoterieKind {
  kGrid,             ///< Section 5's dynamic grid (with optimization).
  kGridUnoptimized,  ///< Grid without the short-column optimization.
  kGridColumnSafe,   ///< Grid with the corrected construction rule.
  kMajority,         ///< Dynamic voting-style (Section 7).
  kTree,             ///< Agrawal-El Abbadi tree quorums.
  kHierarchical,     ///< Kumar's hierarchical quorum consensus.
};

/// Constructs a coterie rule instance by kind (caller owns it).
std::unique_ptr<coterie::CoterieRule> MakeCoterieRule(CoterieKind kind);

/// Client-side retry behavior for the *SyncRetry wrappers. The defaults
/// reproduce the historical behavior exactly (identical RNG draws, so
/// same-seed runs are unchanged): lock conflicts retry with randomized
/// backoff, everything else is terminal. kUnavailable is in reality just
/// as transient as kConflict — a quorum missing *now* (node rebooting,
/// partition healing) is routinely present a few backoffs later — so
/// clients that want to ride out faults set retry_unavailable.
struct RetryPolicy {
  bool retry_conflict = true;      ///< Retry StatusCode::kConflict.
  bool retry_unavailable = false;  ///< Retry StatusCode::kUnavailable.
  sim::Time backoff_base = 5.0;
  sim::Time backoff_jitter = 20.0;  ///< Uniform extra backoff in [0, jitter).

  bool ShouldRetry(const Status& s) const {
    return (s.IsConflict() && retry_conflict) ||
           (s.IsUnavailable() && retry_unavailable);
  }
};

struct ClusterOptions {
  uint32_t num_nodes = 9;
  /// Data items, ids [0, num_objects) (at least one).
  uint32_t num_objects = 1;
  /// Placement. 0 = group mode: every node hosts every object and all
  /// objects share one epoch, so epoch checks cover the group at once
  /// (Section 2's amortization). Above 0 = sharded mode: a rendezvous
  /// ObjectTable seeded by `seed` homes each object on this many nodes
  /// (clamped to the pool), each object with its own epoch lineage.
  uint32_t replication_factor = 0;
  /// The coterie rule every object's quorums use.
  CoterieKind coterie = CoterieKind::kGrid;
  uint64_t seed = 1;
  net::LatencyModel latency{1.0, 0.5};
  /// Message-level faults installed at construction (drop / duplication /
  /// reordering / per-link overrides). Trivial by default: the pristine
  /// fail-stop network of the paper.
  net::FaultModel fault_model;
  std::vector<uint8_t> initial_value;  ///< Shared by all objects.
  ReplicaNodeOptions node_options;
  /// Per-node durable storage (simulated disk + WAL). Off by default —
  /// the ideal-persistence model, byte-identical to pre-durability runs.
  /// When enabled, each node gets an independent crash-model RNG derived
  /// from `seed` and this node's id (durability draws never touch the
  /// cluster's main RNG stream).
  store::DurabilityOptions durability;
  WriteOptions write_options;
  /// Governs WriteSyncRetry / ReadSyncRetry.
  RetryPolicy retry_policy;

  /// Start a background epoch daemon on every node: the electing
  /// EpochDaemon in group mode, a multiplexed EpochMux (per-object
  /// cadence `daemon_options.check_interval`) when sharded.
  bool start_epoch_daemons = false;
  EpochDaemonOptions daemon_options;

  /// Record structured trace events (RPC / 2PC / epoch spans) from the
  /// start. Off by default: tracing observes only and never perturbs the
  /// simulation, but event storage costs memory on long runs.
  bool enable_tracing = false;
};

/// The placement table of a sharded deployment (replication_factor > 0);
/// null in group mode.
std::unique_ptr<ObjectTable> MakeObjectTable(const ClusterOptions& options);

/// Builds the replica nodes `options` describes on `transport`, indexed by
/// NodeId, every object under `rule`: one epoch-sharing group of
/// `num_objects` objects when `table` is null, else each node hosting the
/// objects `table` homes on it. With durability on, each node gets an
/// independent crash RNG derived from `seed` and its id (durability draws
/// never touch a cluster's main RNG stream). Both cluster facades — this
/// file's and harness::SocketCluster — build their nodes here.
std::vector<std::unique_ptr<ReplicaNode>> BuildNodes(
    rt::Transport* transport, const ClusterOptions& options,
    const coterie::CoterieRule* rule, const ObjectTable* table);

/// An in-simulator deployment: N replica nodes hosting one epoch-sharing
/// group of objects or (replication_factor > 0) a sharded set of objects
/// with per-object epoch lineages, plus the network, optional epoch
/// daemons, and per-object history recorders. This is the library's
/// top-level entry point — examples, tests, and benches all drive the
/// protocol through a Cluster.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  obs::MetricsRegistry& metrics() { return sim_.metrics(); }
  obs::EventTracer& tracer() { return sim_.tracer(); }
  const coterie::CoterieRule& rule() const { return *rule_; }
  ReplicaNode& node(NodeId id) { return *nodes_[id]; }
  const ReplicaNode& node(NodeId id) const { return *nodes_[id]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  uint32_t num_objects() const { return std::max(1u, options_.num_objects); }
  NodeSet all_nodes() const { return NodeSet::Universe(num_nodes()); }
  HistoryRecorder& history(storage::ObjectId object = 0) {
    return histories_[object];
  }
  const ClusterOptions& options() const { return options_; }
  /// The placement table; null in group mode.
  const ObjectTable* table() const { return table_.get(); }
  /// A sharded node's epoch mux (sharded mode with daemons started).
  EpochMux& mux(NodeId id) { return *muxes_[id]; }
  /// The nodes hosting `object`: its placement home set when sharded,
  /// every node in group mode.
  const NodeSet& HomeNodes(storage::ObjectId object) const {
    return nodes_[0]->universe(object);
  }

  /// Picks a coordinator for `object`: a live home node (rotated by the
  /// cluster RNG), falling back to any live node, then home member 0.
  NodeId RouteCoordinator(storage::ObjectId object);

  // --- asynchronous client operations (coordinator = a replica node) ---
  void Write(NodeId coordinator, storage::ObjectId object, Update update,
             WriteDone done);
  void Write(NodeId coordinator, Update update, WriteDone done) {
    Write(coordinator, 0, std::move(update), std::move(done));
  }
  void Read(NodeId coordinator, storage::ObjectId object, ReadDone done);
  void Read(NodeId coordinator, ReadDone done) {
    Read(coordinator, 0, std::move(done));
  }
  void CheckEpoch(NodeId initiator, EpochCheckDone done);
  /// Cross-object transaction: per-object writes under one 2PC.
  void TxnWrite(NodeId coordinator, std::vector<TxnWriteSpec> specs,
                TxnWriteDone done);
  /// Epoch check scoped to one object's lineage (sharded mode; the group
  /// CheckEpoch is rejected by sharded nodes).
  void CheckObjectEpoch(NodeId initiator, storage::ObjectId object,
                        EpochCheckDone done);

  // --- synchronous wrappers: run the simulation until the operation
  //     completes and its off-path tail has landed (RunUntilSettled). ---
  [[nodiscard]]
  Result<WriteOutcome> WriteSync(NodeId coordinator, storage::ObjectId object,
                                 Update update);
  [[nodiscard]]
  Result<WriteOutcome> WriteSync(NodeId coordinator, Update update) {
    return WriteSync(coordinator, 0, std::move(update));
  }
  [[nodiscard]] Result<ReadOutcome> ReadSync(NodeId coordinator,
                               storage::ObjectId object = 0);
  [[nodiscard]] Status CheckEpochSync(NodeId initiator);
  [[nodiscard]] Result<TxnWriteOutcome> TxnWriteSync(
      NodeId coordinator, std::vector<TxnWriteSpec> specs);
  [[nodiscard]] Status CheckObjectEpochSync(NodeId initiator,
                                            storage::ObjectId object);

  /// WriteSync/ReadSync with bounded retries on lock conflicts
  /// (randomized backoff); the usual way clients drive operations. The
  /// object and the attempt budget are both explicit: an object-less
  /// overload would let `ReadSyncRetry(coordinator, object)` bind the
  /// object to the attempt budget and silently read object 0.
  [[nodiscard]] Result<WriteOutcome> WriteSyncRetry(NodeId coordinator,
                                      storage::ObjectId object, Update update,
                                      int max_attempts);
  [[nodiscard]] Result<ReadOutcome> ReadSyncRetry(NodeId coordinator,
                                    storage::ObjectId object,
                                    int max_attempts);

  // --- fault injection ---
  void Crash(NodeId id);
  void Recover(NodeId id);
  void Partition(const std::vector<NodeSet>& groups);
  void Heal();
  NodeSet UpNodes() const;

  // --- message-level fault injection (nemesis support) ---

  /// Sets the every-link default message faults.
  void SetGlobalFaults(const net::LinkFaults& faults);
  /// Sets the faults of the directed link src -> dst (a trivial value
  /// clears the link back to the global default).
  void InjectLinkFault(NodeId src, NodeId dst, const net::LinkFaults& faults);
  /// Cuts / restores the directed link src -> dst (asymmetric: the
  /// reverse direction keeps flowing).
  void CutLink(NodeId src, NodeId dst);
  void RestoreLink(NodeId src, NodeId dst);
  /// Lifts the whole fault model and every link cut.
  void ClearNetworkFaults();

  /// Advances the simulation clock by `duration`.
  void RunFor(sim::Time duration);

  /// Steps the simulation until `done` reads true and `coordinator` has
  /// no RPC in flight. An operation answers before its commit or unlock
  /// reaches the replicas; it has settled once the coordinator's calls
  /// (that tail among them) are answered or timed out. Returns false if
  /// the event queue drained before `done`.
  bool RunUntilSettled(NodeId coordinator, const bool& done);

  // --- invariant checking (test support; see protocol/invariants.h) ---

  /// Lemma-1 epoch invariants per lineage, valid at quiescence.
  [[nodiscard]] Status CheckEpochInvariants() const;
  /// Per-object replica consistency over each object's home replicas.
  [[nodiscard]] Status CheckReplicaConsistency() const;
  /// True iff no node currently has a prepared-but-undecided 2PC action.
  bool Quiescent() const;

  /// Runs every object's recorded history through the
  /// one-copy-serializability checker.
  [[nodiscard]] Status CheckHistory() const;

 private:
  /// Starts an operation through `start(callback)` and runs the
  /// simulation until it settles (RunUntilSettled). If the event queue
  /// drains first, the operation lost its continuation (a bug or a
  /// crashed coordinator) and `what` names it in the error.
  template <typename R, typename Start>
  R RunSync(NodeId coordinator, const char* what, Start start);

  /// Repeats `attempt()` up to `max_attempts` times while the retry
  /// policy calls its failure transient, with randomized backoff between
  /// attempts.
  template <typename R, typename Attempt>
  R RetrySync(int max_attempts, Attempt attempt);

  ClusterOptions options_;
  sim::Simulator sim_;
  Rng rng_;
  std::unique_ptr<ObjectTable> table_;  ///< Sharded mode only.
  std::unique_ptr<coterie::CoterieRule> rule_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  std::vector<std::unique_ptr<EpochDaemon>> daemons_;  ///< Group mode.
  std::vector<std::unique_ptr<EpochMux>> muxes_;       ///< Sharded mode.
  std::map<storage::ObjectId, HistoryRecorder> histories_;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_CLUSTER_H_
