#ifndef DCP_PROTOCOL_REPLICA_NODE_H_
#define DCP_PROTOCOL_REPLICA_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coterie/coterie.h"
#include "net/rpc.h"
#include "protocol/messages.h"
#include "storage/replica_store.h"
#include "store/durable_store.h"

namespace dcp::protocol {

/// How lock conflicts are resolved (the paper defers deadlock handling
/// to Bernstein/Hadzilacos/Goodman [2]; both policies below are from
/// there and both are deadlock-free).
enum class LockPolicy {
  /// Refuse the lock; the coordinator aborts and retries with backoff.
  kRefuse,
  /// Wound-wait: an *older* operation (earlier start time) forcibly
  /// wounds a younger non-staged holder and takes the lock; a younger
  /// requester is refused (it "waits" by retrying). Older operations
  /// never retry behind younger ones, so heavy contention cannot starve
  /// them.
  kWoundWait,
};

/// Tuning knobs for a replica node.
struct ReplicaNodeOptions {
  /// Lock-conflict resolution policy.
  LockPolicy lock_policy = LockPolicy::kRefuse;

  /// How long a *non-staged* lock may be held before a conflicting
  /// operation is allowed to steal it. Guards against coordinators that
  /// died between the lock round and 2PC prepare. Staged (prepared)
  /// locks never expire — that is 2PC's blocking nature.
  rt::Time lock_lease = 500.0;

  /// How often a prepared participant runs cooperative termination when
  /// it has not heard the transaction outcome.
  rt::Time termination_poll_interval = 60.0;

  /// Pause before re-offering propagation ("pause(some-time)" in the
  /// Propagate pseudocode) and between propagation rounds.
  rt::Time propagation_retry_delay = 25.0;

  /// Delay before a committed node starts its propagation round (lets
  /// the triggering operation's messages drain first).
  rt::Time propagation_start_delay = 5.0;

  /// RPC timeout for this node's outgoing calls.
  rt::Time rpc_timeout = 100.0;

  /// Durable storage engine (simulated disk + WAL). Disabled by default:
  /// the node then models the paper's ideal persistent store (RAM state
  /// survives Crash()/Recover() untouched) and constructs no engine at
  /// all, keeping schedules byte-identical to pre-durability builds.
  store::DurabilityOptions durability;

  /// Test-only fault seeding for the end-to-end consistency audit's
  /// mutation tests (tests/audit_mutation_test.cc). All flags default to
  /// off and no production path sets them. Each flag resurrects a real
  /// bug class the protocol defends against, proving the client-history
  /// auditor would catch a regression of that defense.
  struct MutationHooks {
    /// Skip re-acquiring exclusive locks for staged (prepared) actions on
    /// recovery. A reader can then lock around an in-doubt write and
    /// return data that a globally committed transaction has already
    /// superseded — the stale-read bug RelockStaged exists to prevent.
    bool skip_relock_staged = false;

    /// Lie in lock responses to shared (read) requests: report a stale
    /// replica as current. A read quorum of entirely-stale replicas then
    /// serves old data instead of failing with kStaleData.
    bool serve_stale_reads = false;

    /// Install an epoch even when the participant's state moved between
    /// the epoch check's poll and its prepare (PrepareRequest::polled).
    /// An analysis that never saw a write committed in that window marks
    /// the new version's replicas stale for an older desired version, and
    /// a read quorum of the new epoch can then miss it.
    bool skip_epoch_state_check = false;
  };
  MutationHooks mutation_hooks;
};

/// Statistics a node keeps about its own protocol activity. Snapshot
/// view — the live values are registry counters under "node.<id>.*"
/// (see ReplicaNode::stats).
struct ReplicaNodeStats {
  uint64_t locks_granted = 0;
  uint64_t lock_conflicts = 0;
  uint64_t lock_steals = 0;
  uint64_t prepares = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t termination_polls = 0;
  uint64_t presumed_aborts = 0;
  uint64_t propagation_offers_sent = 0;
  uint64_t propagations_completed = 0;  ///< As source.
  uint64_t propagations_received = 0;   ///< As target (caught up).
};

/// One object replica hosted by a node in a *sharded* deployment: which
/// object, where its replicas live (the initial — epoch-0 — member list of
/// its private epoch lineage), and its birth value. Produced from the
/// placement table (protocol/placement.h).
struct HostedObjectSpec {
  storage::ObjectId id = 0;
  NodeSet home;
  std::vector<uint8_t> initial_value;
};

/// One replica node hosting a *group* of data items that share an epoch
/// (Section 2: epoch management is amortized over the whole group). The
/// node is the RPC service handling every protocol message of Section 4 /
/// the Appendix — lock ("write-request") handling, 2PC participant duties
/// for do-update / mark-stale / new-epoch actions, the PropagateResponse
/// algorithm, and the source side of Propagate.
///
/// Coordinator logic (write/read/epoch-check) lives in separate
/// operation classes that run *on* a node (see operations.h).
class ReplicaNode : public net::RpcService {
 public:
  using ObjectId = storage::ObjectId;

  /// Hosts one object per entry of `initial_values` (ids 0..K-1), all
  /// sharing one epoch record initialized to (0, all_nodes).
  ReplicaNode(rt::Transport* transport, NodeId self, NodeSet all_nodes,
              const coterie::CoterieRule* rule,
              std::vector<std::vector<uint8_t>> initial_values,
              ReplicaNodeOptions options = {});

  /// Single-object convenience constructor.
  ReplicaNode(rt::Transport* transport, NodeId self, NodeSet all_nodes,
              const coterie::CoterieRule* rule,
              std::vector<uint8_t> initial_value,
              ReplicaNodeOptions options = {})
      : ReplicaNode(transport, self, std::move(all_nodes), rule,
                    std::vector<std::vector<uint8_t>>{
                        std::move(initial_value)},
                    options) {}

  /// Sharded constructor: the node hosts exactly the objects in `catalog`,
  /// each with its *own* epoch lineage born as (0, spec.home) — no shared
  /// group epoch exists. `pool` is the whole node pool (for 2PC peers and
  /// the daemon); `directory` maps every object of the deployment (hosted
  /// here or not) to its home set, so this node can coordinate
  /// cross-object transactions over objects it does not host.
  ReplicaNode(rt::Transport* transport, NodeId self, NodeSet pool,
              const coterie::CoterieRule* rule,
              std::vector<HostedObjectSpec> catalog,
              std::map<storage::ObjectId, NodeSet> directory,
              ReplicaNodeOptions options = {});

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  NodeId self() const { return self_; }
  net::RpcRuntime& rpc() { return rpc_; }
  uint32_t num_objects() const {
    return static_cast<uint32_t>(objects_.size());
  }
  storage::ReplicaStore& store(ObjectId object = 0) {
    return objects_.at(object);
  }
  const storage::ReplicaStore& store(ObjectId object = 0) const {
    return objects_.at(object);
  }
  /// The shared group epoch. Group mode only — sharded nodes have one
  /// lineage per object (see epoch_hint / store(object).epoch_record()).
  const storage::EpochRecord& epoch() const { return *epoch_; }
  const coterie::CoterieRule& rule() const { return *rule_; }
  const NodeSet& all_nodes() const { return all_nodes_; }

  /// True when this node was built from a placement catalog (per-object
  /// epoch lineages) rather than as one epoch-sharing group.
  bool sharded() const { return sharded_; }
  bool HostsObject(ObjectId object) const {
    return objects_.count(object) > 0;
  }
  /// Ids of the objects hosted here, ascending.
  std::vector<ObjectId> HostedObjects() const;

  /// The node universe of one object: the whole cluster in group mode,
  /// the object's home set (per the placement directory) when sharded.
  /// Coordinator operations bound their heavy procedure — and epoch
  /// membership — by this set.
  const NodeSet& universe(ObjectId object) const;

  /// The coterie rule governing `object`. Every object of a deployment
  /// shares the node's rule; callers that reason per lineage ask here.
  const coterie::CoterieRule& rule_for(ObjectId /*object*/) const {
    return *rule_;
  }

  /// Best local guess of `object`'s current epoch, used by coordinator
  /// operations to pick a first-round quorum. Group mode: the shared
  /// record. Sharded: the hosted store's record, or (0, home) for objects
  /// this node does not host — a stale guess only costs the operation its
  /// fast path, since quorum analysis re-derives the true epoch from the
  /// lock responses.
  storage::EpochRecord epoch_hint(ObjectId object) const;
  const ReplicaNodeOptions& options() const { return options_; }
  /// Snapshot of this node's registry counters ("node.<id>.*").
  ReplicaNodeStats stats() const;
  /// The runtime hosting this node's execution context: the shared
  /// simulator on the sim backend, the node's private runtime on the
  /// socket backend.
  rt::Runtime* runtime() { return rpc_.runtime(); }

  /// Fail-stop crash: volatile state (locks, lock leases, outstanding
  /// RPCs) evaporates. Persistent state — the stores, the staged 2PC
  /// action (prepare is logged before acknowledging!), the outcome log —
  /// survives. With durability enabled, the crash also hits the simulated
  /// disk (dropping or tearing the unsynced log tail).
  void Crash();

  /// Recovery: with durability enabled, first rebuilds all persistent
  /// state from the checkpoint + log (RAM contents are discarded — only
  /// what was durable survives). Then resumes cooperative termination if
  /// a transaction was left prepared, and any pending propagation duty.
  void Recover();

  /// Allocates an id for an operation coordinated by this node. With
  /// durability on, keeps the durable id watermark ahead of the ids
  /// handed out, so recovery never re-mints a used LockOwner identity.
  uint64_t NextOperationId() {
    uint64_t id = next_operation_id_++;
    if (durable_) durable_->ReserveOperationIds(next_operation_id_);
    return id;
  }

  /// The state tuple for one object, as reported in lock replies.
  ReplicaStateTuple StateTuple(ObjectId object = 0) const;

  // --- 2PC coordinator-side bookkeeping (used by TwoPhaseCoordinator) ---

  /// Marks a transaction this node coordinates as in flight, so outcome
  /// queries can distinguish "still deciding" from "presumed abort".
  void BeginCoordinatedTx(const LockOwner& tx);
  /// Logs the decision (persistently) — the commit point.
  void DecideCoordinatedTx(const LockOwner& tx, TxOutcome outcome);
  /// Durable commit point: records the decision and invokes `done` once
  /// it is on disk — no phase-2 message may leave before then. With
  /// durability off, `done` runs inline (identical to the plain variant).
  void DecideCoordinatedTxDurable(const LockOwner& tx, TxOutcome outcome,
                                  std::function<void()> done);

  TxOutcome LookupOutcome(const LockOwner& tx) const;

  /// Replicas this node still owes propagation to for `object`.
  NodeSet pending_propagation(ObjectId object = 0) const;
  /// True iff this node owes propagation for any object.
  bool HasPendingPropagation() const;

  /// Enqueues propagation duty (also used by epoch-change commits).
  void AddPropagationTargets(ObjectId object, const NodeSet& targets);

  /// When this node last answered an epoch poll from `sender` for
  /// `lineage` (an object's in sharded mode, or std::nullopt for the
  /// group's shared epoch); std::nullopt if it never has. A received poll
  /// is the epoch driver's only liveness signal (EpochMux duty).
  std::optional<rt::Time> LastPollFrom(std::optional<ObjectId> lineage,
                                       NodeId sender) const;

  /// True iff any 2PC participant action is prepared-but-undecided here.
  bool has_staged_transaction() const { return !staged_.empty(); }

  /// The durable engine, or nullptr with durability off.
  store::DurableStore* durable_store() { return durable_.get(); }

  // net::RpcService:
  [[nodiscard]]
  Result<net::PayloadPtr> HandleRequest(NodeId from, const std::string& type,
                                        const net::PayloadPtr& request) override;
  /// Durable-before-ack: requests whose handler mutated persistent state
  /// (prepare, commit, abort, propagated data) are acknowledged only
  /// after the log records reach the disk. Everything else — and every
  /// request with durability off — responds inline.
  void HandleRequestAsync(NodeId from, const std::string& type,
                          const net::PayloadPtr& request,
                          net::Responder respond) override;

 private:
  using TxKey = std::pair<NodeId, uint64_t>;
  static TxKey KeyOf(const LockOwner& o) {
    return {o.coordinator, o.operation_id};
  }

  struct Staged {
    LockOwner owner;
    StagedAction action;
    NodeSet participants;
  };

  /// Shared tail of both constructors (service registration, durability,
  /// counter caching).
  void InitCommon();

  // Request handlers.
  [[nodiscard]]
  Result<net::PayloadPtr> HandleLock(NodeId from, const LockRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleUnlock(const UnlockRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleFetch(const FetchRequest& req);
  [[nodiscard]]
  Result<net::PayloadPtr> HandlePrepare(const PrepareRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleCommit(const CommitRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleAbort(const AbortRequest& req);
  [[nodiscard]]
  Result<net::PayloadPtr> HandleOutcome(const OutcomeRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandleEpochPoll(
      NodeId from, const EpochPollRequest& req);
  [[nodiscard]] Result<net::PayloadPtr> HandlePropOffer(NodeId from,
                                          const PropagationOffer& req);
  [[nodiscard]] Result<net::PayloadPtr> HandlePropData(NodeId from,
                                         const PropagationData& req);

  /// Lock one object with lease-stealing of expired, non-staged locks.
  /// Under LockPolicy::kWoundWait, `op_started` (when > 0) lets an older
  /// requester wound younger non-staged holders.
  [[nodiscard]]
  Status TryLock(ObjectId object, const LockOwner& owner, bool exclusive,
                 rt::Time op_started = 0);
  bool LockIsStaged(const LockOwner& owner) const;
  /// True iff some prepared-but-undecided action's footprint covers
  /// `object`.
  bool ObjectIsStaged(ObjectId object) const;
  /// Why an epoch install must be refused: a polled tuple that no longer
  /// matches this replica, or that names a staged object. OK otherwise.
  [[nodiscard]]
  Status CheckPolledState(const std::vector<ObjectStateTuple>& polled) const;
  void UnlockEverywhere(const LockOwner& owner);

  void RecordOutcome(const LockOwner& tx, TxOutcome outcome);

  void CommitStaged(const LockOwner& tx);
  void AbortStaged(const LockOwner& tx);
  /// Re-acquires the exclusive locks of one in-doubt (staged) action
  /// after a crash, so readers cannot slip around it before termination.
  void RelockStaged(const Staged& staged);
  void ArmTerminationTimer(const LockOwner& tx);
  void RunTerminationProtocol(const LockOwner& tx);

  void SchedulePropagation(rt::Time delay);
  void RunPropagationRound();
  void OfferPropagation(ObjectId object, NodeId target);

  /// Marks one propagation duty fulfilled (durably, when enabled), unless
  /// it was added again since the offer read `renewals`.
  void FinishPropagation(ObjectId object, NodeId target, uint64_t renewals);

  // Durability plumbing (all no-ops / unused with durability off).
  store::RecoveredState InitialState() const;   ///< Birth state.
  store::RecoveredState CheckpointState() const;  ///< Live state snapshot.
  void RestoreFromDisk();  ///< Rebuilds RAM state via DurableStore::Recover.

  /// Registry handles for this node's protocol counters ("node.<id>.*"),
  /// cached at construction so increments never do a by-name lookup.
  struct NodeCounters {
    obs::Counter* locks_granted;
    obs::Counter* lock_conflicts;
    obs::Counter* lock_steals;
    obs::Counter* prepares;
    obs::Counter* commits;
    obs::Counter* aborts;
    obs::Counter* termination_polls;
    obs::Counter* presumed_aborts;
    obs::Counter* propagation_offers_sent;
    obs::Counter* propagations_completed;
    obs::Counter* propagations_received;
  };

  net::RpcRuntime rpc_;
  NodeId self_;
  /// Group mode: the shared epoch record. Sharded mode: null — each
  /// hosted store owns a private record instead.
  std::shared_ptr<storage::EpochRecord> epoch_;
  std::map<ObjectId, storage::ReplicaStore> objects_;
  NodeSet all_nodes_;
  const coterie::CoterieRule* rule_;
  ReplicaNodeOptions options_;
  NodeCounters counters_;

  /// Sharded mode only: every object's home set (the placement
  /// directory).
  bool sharded_ = false;
  std::map<ObjectId, NodeSet> directory_;

  /// Durable engine; null with durability off. `initial_values_` is the
  /// birth state Recover() rebuilds from when the disk is empty (kept
  /// only when durable).
  std::unique_ptr<store::DurableStore> durable_;
  std::map<ObjectId, std::vector<uint8_t>> initial_values_;

  // Persistent: 2PC participant + coordinator logs. Several transactions
  // may be prepared concurrently (they necessarily touch disjoint lock
  // footprints — e.g. different objects of the group); each resolves
  // independently.
  std::map<TxKey, Staged> staged_;
  std::map<TxKey, TxOutcome> outcomes_;
  std::map<TxKey, bool> coordinating_;  ///< tx -> still deciding.

  // Persistent: per-object propagation duty.
  std::map<ObjectId, NodeSet> pending_propagation_;

  // Volatile.
  /// (lineage, sender) -> when a poll from sender was last answered.
  std::map<std::pair<std::optional<ObjectId>, NodeId>, rt::Time>
      last_poll_from_;
  /// (object, target) -> how often that propagation duty was added.
  std::map<std::pair<ObjectId, NodeId>, uint64_t> duty_renewals_;
  std::map<TxKey, rt::Time> lock_acquired_at_;
  std::map<TxKey, rt::Time> op_started_at_;  ///< Wound-wait priorities.
  bool propagation_scheduled_ = false;
  bool propagation_round_active_ = false;
  uint64_t termination_epoch_ = 0;  ///< Invalidates stale timers.

  uint64_t next_operation_id_ = 1;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_REPLICA_NODE_H_
