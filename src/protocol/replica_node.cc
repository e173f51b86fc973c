#include "protocol/replica_node.h"

#include <algorithm>
#include <cassert>

#include "protocol/action_codec.h"
#include "util/logging.h"

namespace dcp::protocol {

using net::MakePayload;
using net::PayloadPtr;

ReplicaNode::ReplicaNode(rt::Transport* transport, NodeId self,
                         NodeSet all_nodes, const coterie::CoterieRule* rule,
                         std::vector<std::vector<uint8_t>> initial_values,
                         ReplicaNodeOptions options)
    : rpc_(transport, self, options.rpc_timeout),
      self_(self),
      epoch_(std::make_shared<storage::EpochRecord>(
          storage::EpochRecord{0, all_nodes})),
      all_nodes_(std::move(all_nodes)),
      rule_(rule),
      options_(options) {
  assert(!initial_values.empty());
  for (ObjectId id = 0; id < initial_values.size(); ++id) {
    if (options_.durability.enabled) {
      // Keep the birth state: durable recovery rebuilds from disk, and an
      // empty disk means "never wrote anything" — i.e. exactly this.
      initial_values_[id] = initial_values[id];
    }
    objects_.emplace(
        id, storage::ReplicaStore(self, epoch_,
                                  std::move(initial_values[id])));
  }
  InitCommon();
}

ReplicaNode::ReplicaNode(rt::Transport* transport, NodeId self, NodeSet pool,
                         const coterie::CoterieRule* rule,
                         std::vector<HostedObjectSpec> catalog,
                         std::map<storage::ObjectId, NodeSet> directory,
                         ReplicaNodeOptions options)
    : rpc_(transport, self, options.rpc_timeout),
      self_(self),
      all_nodes_(std::move(pool)),
      rule_(rule),
      options_(options),
      sharded_(true),
      directory_(std::move(directory)) {
  for (HostedObjectSpec& spec : catalog) {
    assert(directory_.count(spec.id) > 0 &&
           "hosted object missing from placement directory");
    if (options_.durability.enabled) {
      initial_values_[spec.id] = spec.initial_value;
    }
    // Each hosted object is born with a *private* epoch lineage:
    // (epoch 0, its home set).
    objects_.emplace(spec.id,
                     storage::ReplicaStore(self, spec.home,
                                           std::move(spec.initial_value)));
  }
  InitCommon();
}

void ReplicaNode::InitCommon() {
  // Duplicate-safe: the runtime's (src, rpc_id) reply cache resends the
  // remembered reply instead of re-executing these non-idempotent
  // handlers.  // dcp-lint: rpc-dedup(reply-cache)
  rpc_.set_service(this);
  if (options_.durability.enabled) {
    durable_ =
        std::make_unique<store::DurableStore>(runtime(), options_.durability);
    durable_->set_snapshot_source([this] { return CheckpointState(); });
  }

  obs::MetricsRegistry& m = runtime()->metrics();
  const std::string p = "node." + std::to_string(self_) + ".";
  counters_.locks_granted = m.counter(p + "locks_granted");
  counters_.lock_conflicts = m.counter(p + "lock_conflicts");
  counters_.lock_steals = m.counter(p + "lock_steals");
  counters_.prepares = m.counter(p + "prepares");
  counters_.commits = m.counter(p + "commits");
  counters_.aborts = m.counter(p + "aborts");
  counters_.termination_polls = m.counter(p + "termination_polls");
  counters_.presumed_aborts = m.counter(p + "presumed_aborts");
  counters_.propagation_offers_sent = m.counter(p + "propagation_offers_sent");
  counters_.propagations_completed = m.counter(p + "propagations_completed");
  counters_.propagations_received = m.counter(p + "propagations_received");
}

std::vector<storage::ObjectId> ReplicaNode::HostedObjects() const {
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, store] : objects_) ids.push_back(id);
  return ids;
}

const NodeSet& ReplicaNode::universe(ObjectId object) const {
  if (!sharded_) return all_nodes_;
  auto it = directory_.find(object);
  assert(it != directory_.end() && "object not in placement directory");
  return it->second;
}

storage::EpochRecord ReplicaNode::epoch_hint(ObjectId object) const {
  if (!sharded_) return *epoch_;
  auto it = objects_.find(object);
  if (it != objects_.end()) {
    return storage::EpochRecord{it->second.epoch_number(),
                                it->second.epoch_list()};
  }
  return storage::EpochRecord{0, universe(object)};
}

std::optional<rt::Time> ReplicaNode::LastPollFrom(
    std::optional<ObjectId> lineage, NodeId sender) const {
  auto it = last_poll_from_.find({lineage, sender});
  if (it == last_poll_from_.end()) return std::nullopt;
  return it->second;
}

ReplicaNodeStats ReplicaNode::stats() const {
  ReplicaNodeStats s;
  s.locks_granted = counters_.locks_granted->value();
  s.lock_conflicts = counters_.lock_conflicts->value();
  s.lock_steals = counters_.lock_steals->value();
  s.prepares = counters_.prepares->value();
  s.commits = counters_.commits->value();
  s.aborts = counters_.aborts->value();
  s.termination_polls = counters_.termination_polls->value();
  s.presumed_aborts = counters_.presumed_aborts->value();
  s.propagation_offers_sent = counters_.propagation_offers_sent->value();
  s.propagations_completed = counters_.propagations_completed->value();
  s.propagations_received = counters_.propagations_received->value();
  return s;
}

void ReplicaNode::Crash() {
  rpc_.AbortAll();
  for (auto& [id, store] : objects_) store.Crash();
  lock_acquired_at_.clear();
  op_started_at_.clear();
  propagation_scheduled_ = false;
  propagation_round_active_ = false;
  ++termination_epoch_;
  // Transactions this node was coordinating die undecided. Their
  // participants resolve via presumed abort once we answer outcome
  // queries again ("no record, not deciding" => abort).
  coordinating_.clear();
  if (durable_) durable_->Crash();
}

void ReplicaNode::Recover() {
  if (durable_) RestoreFromDisk();
  ++termination_epoch_;
  // In-doubt transactions keep their exclusive locks across the crash.
  // The lock table itself is volatile, but a prepared action's footprint
  // must stay guarded until the outcome is known — otherwise a reader
  // could lock around the undecided write and return the old version
  // (a stale read the history checker rightly rejects).
  for (const auto& [key, staged] : staged_) {
    if (options_.mutation_hooks.skip_relock_staged) {
      runtime()->metrics().counter("mutation.relock_skipped")->Increment();
    } else {
      RelockStaged(staged);
    }
    ArmTerminationTimer(staged.owner);
  }
  if (HasPendingPropagation()) {
    SchedulePropagation(options_.propagation_start_delay);
  }
}

void ReplicaNode::RelockStaged(const Staged& staged) {
  auto relock = [&](ObjectId object) {
    auto it = objects_.find(object);
    if (it == objects_.end()) return;
    // Cannot conflict: the post-crash lock table is empty and staged
    // footprints are pairwise disjoint (enforced at prepare time).
    Status s = it->second.Lock(staged.owner, /*exclusive=*/true);
    assert(s.ok() && "staged footprints must be disjoint");
    (void)s;
  };
  if (staged.action.install_epoch && !staged.action.epoch_scoped) {
    for (auto& [id, store] : objects_) relock(id);
  } else {
    if (staged.action.install_epoch) relock(staged.action.epoch_object);
    for (const ObjectAction& act : staged.action.objects) relock(act.object);
  }
}

store::RecoveredState ReplicaNode::InitialState() const {
  store::RecoveredState st;
  st.epoch_number = 0;
  st.epoch_list = all_nodes_;
  for (const auto& [id, value] : initial_values_) {
    store::RecoveredState::ObjectState os;
    os.object = storage::VersionedObject(value);
    st.objects.emplace(id, std::move(os));
    if (sharded_) {
      st.object_epochs[id] = store::RecoveredState::ObjectEpoch{0,
                                                                universe(id)};
    }
  }
  return st;
}

store::RecoveredState ReplicaNode::CheckpointState() const {
  store::RecoveredState st;
  if (epoch_) {
    st.epoch_number = epoch_->number;
    st.epoch_list = epoch_->list;
  } else {
    // Sharded: no shared group record; the per-object section below is
    // authoritative and these legacy fields are ignored on restore.
    st.epoch_number = 0;
    st.epoch_list = all_nodes_;
  }
  for (const auto& [id, replica] : objects_) {
    if (sharded_) {
      st.object_epochs[id] = store::RecoveredState::ObjectEpoch{
          replica.epoch_number(), replica.epoch_list()};
    }
    store::RecoveredState::ObjectState os;
    os.object = replica.object();
    os.stale = replica.stale();
    os.desired_version = replica.desired_version();
    st.objects.emplace(id, std::move(os));
  }
  for (const auto& [key, staged] : staged_) {
    st.staged[key] = store::RecoveredState::StagedEntry{
        staged.owner, staged.participants, EncodeStagedAction(staged.action)};
  }
  for (const auto& [key, outcome] : outcomes_) {
    st.outcomes[key] = static_cast<uint8_t>(outcome);
  }
  st.pending_propagation = pending_propagation_;
  st.next_operation_id = next_operation_id_;
  return st;
}

void ReplicaNode::RestoreFromDisk() {
  store::RecoveredState state = durable_->Recover(InitialState());

  if (epoch_) {
    epoch_->number = state.epoch_number;
    epoch_->list = state.epoch_list;
  }
  for (auto& [id, os] : state.objects) {
    objects_.at(id).RestorePersistent(std::move(os.object), os.stale,
                                      os.desired_version);
  }
  if (sharded_) {
    for (auto& [id, oe] : state.object_epochs) {
      auto it = objects_.find(id);
      if (it != objects_.end()) it->second.SetEpoch(oe.number, oe.list);
    }
  }
  staged_.clear();
  for (auto& [key, entry] : state.staged) {
    StagedAction action;
    bool ok = DecodeStagedAction(entry.action, &action);
    assert(ok && "staged-action blob survived CRC but failed to decode");
    (void)ok;
    staged_[key] = Staged{entry.owner, std::move(action), entry.participants};
  }
  outcomes_.clear();
  for (const auto& [key, outcome] : state.outcomes) {
    outcomes_[key] = static_cast<TxOutcome>(outcome);
  }
  pending_propagation_.clear();
  for (auto& [object, targets] : state.pending_propagation) {
    if (!targets.Empty()) pending_propagation_[object] = std::move(targets);
  }
  // Skip a full stride past the recovered watermark: ids minted between
  // the last durable watermark record and the crash stay retired even
  // though the record advancing past them may have been torn.
  next_operation_id_ =
      state.next_operation_id + options_.durability.opid_stride;
  durable_->ReserveOperationIds(next_operation_id_);
}

ReplicaStateTuple ReplicaNode::StateTuple(ObjectId object) const {
  const storage::ReplicaStore& store = objects_.at(object);
  ReplicaStateTuple t;
  t.node = self_;
  t.version = store.version();
  t.dversion = store.desired_version();
  t.stale = store.stale();
  // The store's record is the shared group record in group mode and the
  // object's private lineage when sharded.
  t.elist = store.epoch_list();
  t.enumber = store.epoch_number();
  return t;
}

void ReplicaNode::BeginCoordinatedTx(const LockOwner& tx) {
  coordinating_[KeyOf(tx)] = true;
}

void ReplicaNode::DecideCoordinatedTx(const LockOwner& tx, TxOutcome outcome) {
  // The commit point: the decision is logged persistently before any
  // phase-2 message leaves this node.
  RecordOutcome(tx, outcome);
  coordinating_.erase(KeyOf(tx));
}

void ReplicaNode::DecideCoordinatedTxDurable(const LockOwner& tx,
                                             TxOutcome outcome,
                                             std::function<void()> done) {
  DecideCoordinatedTx(tx, outcome);  // RecordOutcome appends the record.
  if (!durable_) {
    done();
    return;
  }
  durable_->Commit(std::move(done));
}

TxOutcome ReplicaNode::LookupOutcome(const LockOwner& tx) const {
  auto it = outcomes_.find(KeyOf(tx));
  return it == outcomes_.end() ? TxOutcome::kUnknown : it->second;
}

void ReplicaNode::RecordOutcome(const LockOwner& tx, TxOutcome outcome) {
  outcomes_[KeyOf(tx)] = outcome;
  // kDecide (not kResolve): recording an outcome must not erase a staged
  // entry on replay — CommitStaged/AbortStaged append the kResolve that
  // does, after their effect records.
  if (durable_) durable_->LogDecide(tx, static_cast<uint8_t>(outcome));
}

bool ReplicaNode::LockIsStaged(const LockOwner& owner) const {
  return staged_.count(KeyOf(owner)) > 0;
}

bool ReplicaNode::ObjectIsStaged(ObjectId object) const {
  for (const auto& [key, staged] : staged_) {
    const StagedAction& action = staged.action;
    if (action.install_epoch &&
        (!action.epoch_scoped || action.epoch_object == object)) {
      return true;
    }
    for (const ObjectAction& act : action.objects) {
      if (act.object == object) return true;
    }
  }
  return false;
}

Status ReplicaNode::CheckPolledState(
    const std::vector<ObjectStateTuple>& polled) const {
  for (const ObjectStateTuple& t : polled) {
    auto it = objects_.find(t.object);
    if (it == objects_.end()) {
      return Status::NotFound("prepare polled an unknown object");
    }
    const storage::ReplicaStore& store = it->second;
    const ObjectStateTuple now{t.object, store.version(),
                               store.desired_version(), store.stale()};
    if (now != t || ObjectIsStaged(t.object)) {
      return Status::Conflict("object " + std::to_string(t.object) +
                              " moved since the epoch poll");
    }
  }
  return Status::OK();
}

Status ReplicaNode::TryLock(ObjectId object, const LockOwner& owner,
                            bool exclusive, rt::Time op_started) {
  storage::ReplicaStore& store = objects_.at(object);
  Status s = store.Lock(owner, exclusive);
  if (!s.ok()) {
    rt::Time now = runtime()->Now();
    // Lease stealing: an expired, non-staged lock belongs to a
    // coordinator that died between its lock round and 2PC; break it.
    auto expired = [&](const LockOwner& holder) {
      if (!holder.valid() || LockIsStaged(holder)) return false;
      auto it = lock_acquired_at_.find(KeyOf(holder));
      return it == lock_acquired_at_.end() ||
             now - it->second >= options_.lock_lease;
    };
    // Wound-wait: an older operation wounds younger, non-staged holders
    // (a holder whose start time is unknown counts as old).
    auto woundable = [&](const LockOwner& holder) {
      if (options_.lock_policy != LockPolicy::kWoundWait) return false;
      if (op_started <= 0) return false;
      if (!holder.valid() || LockIsStaged(holder)) return false;
      auto it = op_started_at_.find(KeyOf(holder));
      if (it == op_started_at_.end()) return false;
      return op_started < it->second;
    };
    std::vector<LockOwner> evict;
    auto consider = [&](const LockOwner& holder) {
      if (!holder.valid()) return;
      if (expired(holder) || woundable(holder)) evict.push_back(holder);
    };
    consider(store.exclusive_owner());
    for (const LockOwner& holder : store.shared_owners()) consider(holder);
    for (const LockOwner& victim : evict) {
      store.Unlock(victim);
      counters_.lock_steals->Increment();
    }
    if (!evict.empty()) s = store.Lock(owner, exclusive);
  }
  if (s.ok()) {
    lock_acquired_at_[KeyOf(owner)] = runtime()->Now();
    if (op_started > 0) op_started_at_[KeyOf(owner)] = op_started;
    counters_.locks_granted->Increment();
  } else {
    counters_.lock_conflicts->Increment();
  }
  return s;
}

void ReplicaNode::UnlockEverywhere(const LockOwner& owner) {
  for (auto& [id, store] : objects_) store.Unlock(owner);
  lock_acquired_at_.erase(KeyOf(owner));
  op_started_at_.erase(KeyOf(owner));
}

// ---------------------------------------------------------------------------
// Request dispatch.
// ---------------------------------------------------------------------------

void ReplicaNode::HandleRequestAsync(NodeId from, const std::string& type,
                                     const net::PayloadPtr& request,
                                     net::Responder respond) {
  if (!durable_) {
    respond(HandleRequest(from, type, request));
    return;
  }
  // Types whose handlers may mutate persistent state that the caller
  // relies on once acknowledged: a staged prepare, a commit/abort
  // resolution, received propagation data. Their acks wait for the log.
  const bool ack_gated = type == msg::kPrepare || type == msg::kCommit ||
                         type == msg::kAbort || type == msg::kPropData;
  const uint64_t lsn_before = durable_->end_lsn();
  Result<PayloadPtr> result = HandleRequest(from, type, request);
  if (ack_gated && durable_->end_lsn() != lsn_before) {
    durable_->Commit(
        [respond = std::move(respond), result = std::move(result)]() mutable {
          respond(std::move(result));
        });
    return;
  }
  respond(std::move(result));
}

Result<PayloadPtr> ReplicaNode::HandleRequest(NodeId from,
                                              const std::string& type,
                                              const PayloadPtr& request) {
  if (type == msg::kLock) return HandleLock(from, net::As<LockRequest>(request));
  if (type == msg::kUnlock) return HandleUnlock(net::As<UnlockRequest>(request));
  if (type == msg::kFetch) return HandleFetch(net::As<FetchRequest>(request));
  if (type == msg::kPrepare) {
    return HandlePrepare(net::As<PrepareRequest>(request));
  }
  if (type == msg::kCommit) return HandleCommit(net::As<CommitRequest>(request));
  if (type == msg::kAbort) return HandleAbort(net::As<AbortRequest>(request));
  if (type == msg::kOutcome) {
    return HandleOutcome(net::As<OutcomeRequest>(request));
  }
  if (type == msg::kEpochPoll) {
    return HandleEpochPoll(from, net::As<EpochPollRequest>(request));
  }
  if (type == msg::kPropOffer) {
    return HandlePropOffer(from, net::As<PropagationOffer>(request));
  }
  if (type == msg::kPropData) {
    return HandlePropData(from, net::As<PropagationData>(request));
  }
  return Status::InvalidArgument("unknown request type: " + type);
}

Result<PayloadPtr> ReplicaNode::HandleLock(NodeId /*from*/,
                                           const LockRequest& req) {
  if (objects_.count(req.object) == 0) {
    return Status::NotFound("no such object");
  }
  Status s = TryLock(req.object, req.owner,
                     req.mode == LockMode::kExclusive, req.op_started);
  if (!s.ok()) return s;
  auto resp = std::make_shared<LockResponse>();
  resp->state = StateTuple(req.object);
  if (req.mode == LockMode::kExclusive) return PayloadPtr(std::move(resp));
  if (options_.mutation_hooks.skip_relock_staged &&
      ObjectIsStaged(req.object)) {
    // Count grants that the relock defense would have refused: a shared
    // lock on an object inside a prepared-but-undecided footprint.
    runtime()->metrics().counter("mutation.relock_bypassed")->Increment();
  }
  if (options_.mutation_hooks.serve_stale_reads && resp->state.stale) {
    resp->state.stale = false;  // Test-only lie; see MutationHooks.
    runtime()->metrics().counter("mutation.stale_lied")->Increment();
  }
  // A read's data rides on its lock grant: the shared lock pins this
  // version until the read's unlock.
  if (!resp->state.stale) {
    resp->has_data = true;
    resp->data = objects_.at(req.object).object().data();
  }
  return PayloadPtr(std::move(resp));
}

Result<PayloadPtr> ReplicaNode::HandleUnlock(const UnlockRequest& req) {
  // Never release a lock pinned by a prepared transaction; the 2PC
  // outcome will release it.
  if (!LockIsStaged(req.owner)) UnlockEverywhere(req.owner);
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleFetch(const FetchRequest& req) {
  if (objects_.count(req.object) == 0) {
    return Status::NotFound("no such object");
  }
  const storage::ReplicaStore& store = objects_.at(req.object);
  if (!store.HoldsLock(req.owner)) {
    return Status::Conflict("fetch without lock (lease stolen?)");
  }
  auto resp = std::make_shared<FetchResponse>();
  resp->version = store.version();
  resp->data = store.object().data();
  return PayloadPtr(std::move(resp));
}

Result<PayloadPtr> ReplicaNode::HandlePrepare(const PrepareRequest& req) {
  // Concurrent prepared transactions are fine as long as their lock
  // footprints are disjoint (the TryLock calls below enforce that);
  // e.g. writes to different objects of the group stage independently.
  // Determine the lock footprint: group-wide epoch installs cover every
  // object of the group (the change must be atomic w.r.t. all reads and
  // writes); scoped installs (per-object lineages) cover their one
  // object; plain writes cover the objects they touch.
  std::vector<ObjectId> footprint;
  if (req.action.install_epoch && !req.action.epoch_scoped) {
    for (const auto& [id, store] : objects_) footprint.push_back(id);
  } else {
    if (req.action.install_epoch) {
      footprint.push_back(req.action.epoch_object);
    }
    for (const ObjectAction& act : req.action.objects) {
      footprint.push_back(act.object);
    }
  }
  // An epoch install is only valid for the state its analysis polled.
  // Refusing here, before the lock below pins the state until the
  // outcome, makes the poll and the install atomic.
  Status polled = CheckPolledState(req.polled);
  if (!polled.ok()) {
    if (!options_.mutation_hooks.skip_epoch_state_check) return polled;
    runtime()->metrics().counter("mutation.epoch_check_skipped")->Increment();
  }
  // Writes already hold their exclusive lock from the lock round (lock
  // is re-entrant); epoch changes acquire theirs here. On any conflict,
  // release what this attempt acquired and refuse.
  std::vector<ObjectId> newly_locked;
  for (ObjectId object : footprint) {
    if (objects_.count(object) == 0) {
      return Status::NotFound("prepare names unknown object");
    }
    bool held_before = objects_.at(object).HoldsLock(req.owner);
    Status s = TryLock(object, req.owner, /*exclusive=*/true);
    if (!s.ok()) {
      for (ObjectId locked : newly_locked) {
        objects_.at(locked).Unlock(req.owner);
      }
      return s;
    }
    if (!held_before) newly_locked.push_back(object);
  }

  staged_[KeyOf(req.owner)] = Staged{req.owner, req.action,
                                     req.participants};
  if (durable_) {
    // Staged before acknowledged: the coordinator may count this vote.
    durable_->LogStage(req.owner, req.participants,
                       EncodeStagedAction(req.action));
  }
  counters_.prepares->Increment();
  ArmTerminationTimer(req.owner);
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleCommit(const CommitRequest& req) {
  if (staged_.count(KeyOf(req.owner)) > 0) {
    CommitStaged(req.owner);
  } else {
    // Duplicate or post-termination commit; remember the outcome anyway.
    RecordOutcome(req.owner, TxOutcome::kCommitted);
  }
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleAbort(const AbortRequest& req) {
  if (staged_.count(KeyOf(req.owner)) > 0) {
    AbortStaged(req.owner);
  } else {
    RecordOutcome(req.owner, TxOutcome::kAborted);
    UnlockEverywhere(req.owner);
  }
  return PayloadPtr(MakePayload<AckResponse>());
}

Result<PayloadPtr> ReplicaNode::HandleOutcome(const OutcomeRequest& req) {
  auto resp = std::make_shared<OutcomeResponse>();
  resp->outcome = LookupOutcome(req.owner);
  resp->is_coordinator = req.owner.coordinator == self();
  resp->in_progress =
      resp->is_coordinator && coordinating_.count(KeyOf(req.owner)) > 0;
  return PayloadPtr(std::move(resp));
}

Result<PayloadPtr> ReplicaNode::HandleEpochPoll(NodeId from,
                                                const EpochPollRequest& req) {
  auto resp = std::make_shared<EpochPollResponse>();
  resp->node = self_;
  if (req.scoped) {
    // Per-object lineage: report exactly the polled object's epoch and
    // state (the response shape is unchanged — one tuple).
    auto it = objects_.find(req.object);
    if (it == objects_.end()) return Status::NotFound("no such object");
    last_poll_from_[{req.object, from}] = runtime()->Now();
    const storage::ReplicaStore& store = it->second;
    resp->enumber = store.epoch_number();
    resp->elist = store.epoch_list();
    ObjectStateTuple t;
    t.object = req.object;
    t.version = store.version();
    t.dversion = store.desired_version();
    t.stale = store.stale();
    resp->objects.push_back(t);
    return PayloadPtr(std::move(resp));
  }
  if (sharded_) {
    // No shared group epoch exists; an unscoped poll is a caller bug.
    return Status::InvalidArgument("sharded node requires scoped epoch poll");
  }
  last_poll_from_[{std::nullopt, from}] = runtime()->Now();
  resp->enumber = epoch_->number;
  resp->elist = epoch_->list;
  for (const auto& [id, store] : objects_) {
    ObjectStateTuple t;
    t.object = id;
    t.version = store.version();
    t.dversion = store.desired_version();
    t.stale = store.stale();
    resp->objects.push_back(t);
  }
  return PayloadPtr(std::move(resp));
}

// ---------------------------------------------------------------------------
// 2PC participant: commit / abort / cooperative termination.
// ---------------------------------------------------------------------------

void ReplicaNode::CommitStaged(const LockOwner& tx) {
  auto it = staged_.find(KeyOf(tx));
  assert(it != staged_.end());
  Staged staged = std::move(it->second);
  staged_.erase(it);
  RecordOutcome(staged.owner, TxOutcome::kCommitted);
  counters_.commits->Increment();

  const StagedAction& action = staged.action;
  if (action.install_epoch && action.epoch_scoped) {
    // Per-object lineage install: only the named object's record moves.
    auto oit = objects_.find(action.epoch_object);
    if (oit != objects_.end()) {
      oit->second.SetEpoch(action.epoch_number, action.epoch_list);
      if (durable_) {
        durable_->LogObjectEpochInstall(action.epoch_object,
                                        action.epoch_number,
                                        action.epoch_list);
      }
      runtime()->tracer().Instant(
          "epoch", "epoch.install", self_,
          {{"object", std::to_string(action.epoch_object)},
           {"number", std::to_string(action.epoch_number)},
           {"members", std::to_string(action.epoch_list.Size())}});
    }
  } else if (action.install_epoch) {
    epoch_->number = action.epoch_number;
    epoch_->list = action.epoch_list;
    if (durable_) {
      durable_->LogEpochInstall(action.epoch_number, action.epoch_list);
    }
    runtime()->tracer().Instant(
        "epoch", "epoch.install", self_,
        {{"number", std::to_string(action.epoch_number)},
         {"members", std::to_string(action.epoch_list.Size())}});
  }
  for (const ObjectAction& act : action.objects) {
    storage::ReplicaStore& store = objects_.at(act.object);
    if (act.apply_update) {
      // "do-update": performs the write, incrementing the version to
      // exactly the transaction's target. A replica that already reached
      // (or passed) the target — it committed late, after propagation
      // from a peer that had applied this very update caught it up —
      // must skip: re-applying would mint a phantom version with
      // out-of-order contents. (Staging pinned the version at target-1,
      // and versions never regress, so "below target-1" cannot happen.)
      assert(store.version() + 1 >= act.update_target_version);
      if (store.version() + 1 == act.update_target_version) {
        store.object().Apply(act.update);
        if (durable_) {
          durable_->LogUpdate(act.object, act.update_target_version,
                              act.update);
        }
        // A late commit may land while the replica is already marked
        // stale with a HIGHER desired version (a newer write committed
        // elsewhere during the gap). Clearing the flag then would tell
        // propagation sources "i-am-current" and strand the replica at
        // the lower version — only clear once the target is reached.
        if (store.stale() && store.desired_version() <= store.version()) {
          store.ClearStale();
          if (durable_) durable_->LogClearStale(act.object);
        }
      }
    }
    if (act.install_snapshot) {
      // Safety-threshold promotion / total write: current outright.
      // Skip if this replica already advanced to or past the snapshot
      // (same late-commit reasoning as above).
      if (store.version() < act.snapshot_version) {
        store.object().InstallSnapshot(act.snapshot_version, act.snapshot);
        if (durable_) {
          durable_->LogSnapshot(act.object, act.snapshot_version,
                                act.snapshot.bytes);
        }
        // Same late-commit hazard as the update path above.
        if (store.stale() && store.desired_version() <= store.version()) {
          store.ClearStale();
          if (durable_) durable_->LogClearStale(act.object);
        }
      }
    }
    if (act.mark_stale) {
      // "mark-stale": desired version numbers only ever grow, and a
      // replica that already reached the desired version (late commit
      // after propagation) must not be re-marked.
      Version dv = act.desired_version;
      if (store.stale()) dv = std::max(dv, store.desired_version());
      if (store.version() < dv) {
        store.MarkStale(dv);
        if (durable_) durable_->LogMarkStale(act.object, dv);
        runtime()->tracer().Instant(
            "node", "node.mark_stale", self_,
            {{"object", std::to_string(act.object)},
             {"dversion", std::to_string(dv)}});
      }
    }
    if (!act.propagate_to.Empty()) {
      AddPropagationTargets(act.object, act.propagate_to);
    }
  }
  // kResolve LAST: a torn tail keeps a byte prefix, so if this record
  // survives a crash, every effect record above survived with it. The
  // converse tear (effects without resolve) leaves the staged entry for
  // cooperative termination, whose re-commit the version guards absorb.
  if (durable_) {
    durable_->LogResolve(staged.owner,
                         static_cast<uint8_t>(TxOutcome::kCommitted));
  }
  UnlockEverywhere(staged.owner);
}

void ReplicaNode::AbortStaged(const LockOwner& tx) {
  auto it = staged_.find(KeyOf(tx));
  assert(it != staged_.end());
  Staged staged = std::move(it->second);
  staged_.erase(it);
  RecordOutcome(staged.owner, TxOutcome::kAborted);
  counters_.aborts->Increment();
  if (durable_) {
    durable_->LogResolve(staged.owner,
                         static_cast<uint8_t>(TxOutcome::kAborted));
  }
  UnlockEverywhere(staged.owner);
}

void ReplicaNode::ArmTerminationTimer(const LockOwner& tx) {
  uint64_t epoch = termination_epoch_;
  runtime()->Schedule(options_.termination_poll_interval,
                        [this, epoch, tx] {
                          if (epoch != termination_epoch_) return;
                          if (!rpc_.transport()->IsUp(self())) return;
                          if (staged_.count(KeyOf(tx)) == 0) return;
                          RunTerminationProtocol(tx);
                        });
}

void ReplicaNode::RunTerminationProtocol(const LockOwner& tx) {
  auto it = staged_.find(KeyOf(tx));
  assert(it != staged_.end());
  if (durable_) {
    // A recovered node may hold both the staged entry and the durable
    // outcome (the commit's kDecide record survived a tear that its
    // kResolve did not). Resolve locally — no need to ask anyone.
    TxOutcome known = LookupOutcome(tx);
    if (known == TxOutcome::kCommitted) {
      CommitStaged(tx);
      return;
    }
    if (known == TxOutcome::kAborted) {
      AbortStaged(tx);
      return;
    }
  }
  counters_.termination_polls->Increment();
  NodeSet peers = it->second.participants;
  peers.Erase(self());

  auto outcome_req = std::make_shared<OutcomeRequest>();
  outcome_req->owner = tx;

  // Step 1: ask the coordinator.
  rpc_.Call(tx.coordinator, msg::kOutcome, outcome_req,
            [this, tx, peers, outcome_req](net::RpcResult r) {
              if (staged_.count(KeyOf(tx)) == 0) return;
              if (r.ok()) {
                const auto& resp = net::As<OutcomeResponse>(r.response);
                if (resp.outcome == TxOutcome::kCommitted) {
                  CommitStaged(tx);
                  return;
                }
                if (resp.outcome == TxOutcome::kAborted) {
                  AbortStaged(tx);
                  return;
                }
                if (resp.is_coordinator && !resp.in_progress) {
                  // Presumed abort: the coordinator logs its decision
                  // before sending phase 2, so "no record, not deciding"
                  // means it never committed.
                  counters_.presumed_aborts->Increment();
                  AbortStaged(tx);
                  return;
                }
                ArmTerminationTimer(tx);
                return;
              }
              // Coordinator unreachable: ask the other participants.
              net::MulticastGather(
                  &rpc_, peers, msg::kOutcome, outcome_req,
                  [this, tx](net::GatherResult g) {
                    if (staged_.count(KeyOf(tx)) == 0) return;
                    bool committed = false;
                    bool aborted = false;
                    for (const auto& [node, rr] : g.replies) {
                      if (!rr.ok()) continue;
                      const auto& resp = net::As<OutcomeResponse>(rr.response);
                      if (resp.outcome == TxOutcome::kCommitted) {
                        committed = true;
                      }
                      if (resp.outcome == TxOutcome::kAborted) aborted = true;
                    }
                    assert(!(committed && aborted) &&
                           "2PC outcome divergence");
                    if (committed) {
                      CommitStaged(tx);
                    } else if (aborted) {
                      AbortStaged(tx);
                    } else {
                      ArmTerminationTimer(tx);  // Blocked; keep polling.
                    }
                  });
            });
}

// ---------------------------------------------------------------------------
// Propagation: source side (the Propagate algorithm).
// ---------------------------------------------------------------------------

bool ReplicaNode::HasPendingPropagation() const {
  for (const auto& [object, targets] : pending_propagation_) {
    if (!targets.Empty()) return true;
  }
  return false;
}

NodeSet ReplicaNode::pending_propagation(ObjectId object) const {
  auto it = pending_propagation_.find(object);
  return it == pending_propagation_.end() ? NodeSet{} : it->second;
}

void ReplicaNode::AddPropagationTargets(ObjectId object,
                                        const NodeSet& targets) {
  NodeSet added = targets;
  added.Erase(self());
  for (NodeId target : added) ++duty_renewals_[{object, target}];
  NodeSet& pending = pending_propagation_[object];
  pending = pending.Union(added);
  if (durable_ && !added.Empty()) durable_->LogPropAdd(object, added);
  if (!pending.Empty()) {
    SchedulePropagation(options_.propagation_start_delay);
  }
}

void ReplicaNode::FinishPropagation(ObjectId object, NodeId target,
                                    uint64_t renewals) {
  // A commit that re-added this duty while the offer was in flight may
  // want a newer version than the one the target just reported current
  // or received: keep the duty, and the next round offers again.
  if (duty_renewals_[{object, target}] != renewals) return;
  pending_propagation_[object].Erase(target);
  // Not ack-gated (we are the caller here); rides the lazy flush. Lost
  // to a crash, the duty survives and the next offer gets "i-am-current".
  if (durable_) durable_->LogPropDone(object, target);
}

void ReplicaNode::SchedulePropagation(rt::Time delay) {
  if (propagation_scheduled_ || propagation_round_active_) return;
  propagation_scheduled_ = true;
  uint64_t epoch = termination_epoch_;
  runtime()->Schedule(delay, [this, epoch] {
    if (epoch != termination_epoch_) return;
    propagation_scheduled_ = false;
    if (!rpc_.transport()->IsUp(self())) return;
    RunPropagationRound();
  });
}

void ReplicaNode::RunPropagationRound() {
  if (propagation_round_active_) return;
  bool any_offered = false;
  bool any_pending = false;
  for (auto& [object, pending] : pending_propagation_) {
    // A stale replica cannot be a propagation source for that object; it
    // will re-earn the duty (or be offered data itself) later.
    if (objects_.at(object).stale()) {
      if (!pending.Empty()) any_pending = true;
      continue;
    }
    // Drop targets that have left the object's current epoch: they will be
    // caught up (or marked stale again) by the epoch change that re-admits
    // them. (Group mode: the store's record is the shared group record.)
    pending = pending.Intersection(objects_.at(object).epoch_list());
    if (pending.Empty()) continue;
    any_pending = true;
    any_offered = true;
    for (NodeId target : pending) {
      OfferPropagation(object, target);
    }
  }
  if (!any_pending) return;
  if (!any_offered) {
    // Everything pending is blocked on our own staleness; retry later.
    SchedulePropagation(options_.propagation_retry_delay);
    return;
  }
  propagation_round_active_ = true;
  // Round bookkeeping: re-arm after one retry delay; completions erase
  // targets, so the next round only re-offers what is still pending.
  uint64_t epoch = termination_epoch_;
  runtime()->Schedule(options_.propagation_retry_delay, [this, epoch] {
    if (epoch != termination_epoch_) return;
    propagation_round_active_ = false;
    if (!rpc_.transport()->IsUp(self())) return;
    if (HasPendingPropagation()) {
      SchedulePropagation(options_.propagation_retry_delay);
    }
  });
}

void ReplicaNode::OfferPropagation(ObjectId object, NodeId target) {
  uint64_t transfer_id = NextOperationId();
  auto offer = std::make_shared<PropagationOffer>();
  offer->object = object;
  offer->source_version = objects_.at(object).version();
  offer->transfer_id = transfer_id;
  counters_.propagation_offers_sent->Increment();
  runtime()->tracer().Instant("prop", "prop.offer", self_,
                                {{"object", std::to_string(object)},
                                 {"target", std::to_string(target)}});

  const uint64_t renewals = duty_renewals_[{object, target}];
  rpc_.Call(target, msg::kPropOffer, offer,
            [this, object, target, transfer_id, renewals](net::RpcResult r) {
    if (!r.ok()) return;  // CallFailed/busy: target stays pending.
    const auto& reply = net::As<PropagationOfferReply>(r.response);
    switch (reply.verdict) {
      case PropagationVerdict::kIAmCurrent:
        FinishPropagation(object, target, renewals);
        return;
      case PropagationVerdict::kAlreadyRecovering:
        return;  // "pause(some-time)" — the next round re-offers.
      case PropagationVerdict::kPermitted:
        break;
    }
    // Ship exactly the target's gap; fall back to a snapshot if our log
    // no longer reaches back that far.
    auto data = std::make_shared<PropagationData>();
    data->object = object;
    data->transfer_id = transfer_id;
    storage::ReplicaStore& store = objects_.at(object);
    Result<std::vector<Update>> gap =
        store.object().UpdatesSince(reply.target_version);
    if (gap.ok()) {
      data->first_version = reply.target_version + 1;
      data->updates = std::move(gap).value();
    } else {
      data->snapshot = true;
      data->snapshot_version = store.version();
      data->updates = {store.object().Snapshot()};
    }
    rpc_.Call(target, msg::kPropData, data,
              [this, object, target, renewals](net::RpcResult rr) {
                if (!rr.ok()) return;  // Stays pending; next round retries.
                FinishPropagation(object, target, renewals);
                counters_.propagations_completed->Increment();
              });
  });
}

// ---------------------------------------------------------------------------
// Propagation: target side (the PropagateResponse algorithm).
// ---------------------------------------------------------------------------

Result<PayloadPtr> ReplicaNode::HandlePropOffer(NodeId from,
                                                const PropagationOffer& req) {
  auto reply = std::make_shared<PropagationOfferReply>();
  if (objects_.count(req.object) == 0) {
    return Status::NotFound("no such object");
  }
  storage::ReplicaStore& store = objects_.at(req.object);
  if (store.locked_for_propagation()) {
    reply->verdict = PropagationVerdict::kAlreadyRecovering;
    return PayloadPtr(std::move(reply));
  }
  if (!store.stale() || store.desired_version() > req.source_version) {
    // Already brought up to date, or the offered version cannot satisfy
    // our desired version ("i-am-current" covers both in the paper).
    reply->verdict = PropagationVerdict::kIAmCurrent;
    return PayloadPtr(std::move(reply));
  }
  LockOwner owner{from, req.transfer_id};
  Status s = TryLock(req.object, owner, /*exclusive=*/true);
  if (!s.ok()) {
    // Replica busy (a write holds the lock): have the source retry later.
    reply->verdict = PropagationVerdict::kAlreadyRecovering;
    return PayloadPtr(std::move(reply));
  }
  store.set_locked_for_propagation(true);
  // Watchdog: if the source dies between granting this offer and sending
  // the data, the transfer lock (and the locked-for-propagation bit)
  // would wedge this replica in "already-recovering" forever. Reclaim an
  // abandoned transfer after the lock lease.
  uint64_t epoch = termination_epoch_;
  ObjectId object = req.object;
  runtime()->Schedule(options_.lock_lease, [this, object, owner, epoch] {
    if (epoch != termination_epoch_) return;
    storage::ReplicaStore& st = objects_.at(object);
    if (st.locked_for_propagation() && st.HoldsLock(owner)) {
      st.set_locked_for_propagation(false);
      st.Unlock(owner);
      lock_acquired_at_.erase(KeyOf(owner));
    }
  });
  reply->verdict = PropagationVerdict::kPermitted;
  reply->target_version = store.version();
  return PayloadPtr(std::move(reply));
}

Result<PayloadPtr> ReplicaNode::HandlePropData(NodeId from,
                                               const PropagationData& req) {
  if (objects_.count(req.object) == 0) {
    return Status::NotFound("no such object");
  }
  storage::ReplicaStore& store = objects_.at(req.object);
  LockOwner owner{from, req.transfer_id};
  if (!store.locked_for_propagation() || !store.HoldsLock(owner)) {
    return Status::Conflict("no propagation in progress for this transfer");
  }
  auto release = [this, &store, &owner] {
    store.set_locked_for_propagation(false);
    store.Unlock(owner);
    lock_acquired_at_.erase(KeyOf(owner));
  };

  if (req.snapshot) {
    assert(req.updates.size() == 1 && req.updates[0].total);
    store.object().InstallSnapshot(req.snapshot_version, req.updates[0]);
    if (durable_) {
      durable_->LogSnapshot(req.object, req.snapshot_version,
                            req.updates[0].bytes);
    }
  } else {
    Status s = store.object().ApplyPropagated(req.first_version, req.updates);
    if (!s.ok()) {
      release();
      return s;
    }
    if (durable_) {
      for (size_t i = 0; i < req.updates.size(); ++i) {
        durable_->LogUpdate(req.object, req.first_version + i,
                            req.updates[i]);
      }
    }
  }
  if (store.version() >= store.desired_version()) {
    store.ClearStale();
    if (durable_) durable_->LogClearStale(req.object);
    counters_.propagations_received->Increment();
    runtime()->tracer().Instant("prop", "prop.caught_up", self_,
                                  {{"object", std::to_string(req.object)},
                                   {"version",
                                    std::to_string(store.version())}});
  }
  release();
  auto reply = std::make_shared<PropagationDataReply>();
  reply->new_version = store.version();
  return PayloadPtr(std::move(reply));
}

}  // namespace dcp::protocol
