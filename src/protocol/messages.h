#ifndef DCP_PROTOCOL_MESSAGES_H_
#define DCP_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "runtime/runtime.h"
#include "storage/replica_store.h"
#include "storage/versioned_object.h"
#include "util/node_set.h"

namespace dcp::protocol {

using storage::EpochNumber;
using storage::LockOwner;
using storage::ObjectId;
using storage::Update;
using storage::Version;

/// Wire names of every request type. Also the keys under which the
/// traffic benches report per-type message counts.
namespace msg {
inline constexpr char kLock[] = "lock";            ///< write/read-request
inline constexpr char kUnlock[] = "unlock";        ///< plain lock release
inline constexpr char kFetch[] = "fetch";          ///< data pull under a lock
inline constexpr char kPrepare[] = "2pc-prepare";  ///< stage an action
inline constexpr char kCommit[] = "2pc-commit";
inline constexpr char kAbort[] = "2pc-abort";
inline constexpr char kOutcome[] = "2pc-outcome";  ///< termination query
inline constexpr char kEpochPoll[] = "epoch-poll";
inline constexpr char kPropOffer[] = "prop-offer";
inline constexpr char kPropData[] = "prop-data";
}  // namespace msg

/// The state tuple every replica reports (Section 4 / Appendix):
/// (node, version, dversion, stale, elist, enumber). Refers to one
/// object of the group (the group shares elist/enumber).
struct ReplicaStateTuple {
  NodeId node = kInvalidNode;
  Version version = 0;
  Version dversion = 0;
  bool stale = false;
  NodeSet elist;
  EpochNumber enumber = 0;
};

/// Per-object slice of a replica's state, reported by epoch polls (which
/// cover the whole group at once — the amortization of Section 2).
struct ObjectStateTuple {
  ObjectId object = 0;
  Version version = 0;
  Version dversion = 0;
  bool stale = false;

  bool operator==(const ObjectStateTuple&) const = default;
};

/// Lock modes: reads take shared locks, writes and epoch changes
/// exclusive ones (Lemma 2 needs read-write and write-write exclusion,
/// but concurrent reads are safe).
enum class LockMode { kShared, kExclusive };

// --- lock / unlock / fetch -------------------------------------------------

/// "write-request" / read request: obtain a lock on one object of the
/// group and report its state. `op_started` is the coordinator's
/// operation start time; under wound-wait lock policies it is the
/// seniority that decides conflicts (0 = unknown, treated as starting
/// at arrival).
struct LockRequest : net::Payload {
  LockOwner owner;
  LockMode mode = LockMode::kExclusive;
  ObjectId object = 0;
  rt::Time op_started = 0;
};

/// Granted-lock response. A refused lock is an app-level Conflict error.
/// A granted *shared* lock on a non-stale replica also carries the
/// replica's contents (at `state.version`), so a read completes in its
/// lock round. `has_data` marks their presence: an empty object is valid.
struct LockResponse : net::Payload {
  ReplicaStateTuple state;
  bool has_data = false;
  std::vector<uint8_t> data;
};

struct UnlockRequest : net::Payload {
  LockOwner owner;
};

struct AckResponse : net::Payload {};

/// Pulls the data of a replica the caller holds a lock on (a write's
/// safety-threshold promotion; the baselines' reads).
struct FetchRequest : net::Payload {
  LockOwner owner;
  ObjectId object = 0;
};

struct FetchResponse : net::Payload {
  Version version = 0;
  std::vector<uint8_t> data;
};

// --- two-phase commit ------------------------------------------------------

/// Per-object part of a staged transaction.
struct ObjectAction {
  ObjectId object = 0;

  /// Apply `update` to the local object (the "do-update" branch),
  /// producing exactly `update_target_version`. A participant that
  /// resolves the transaction late — e.g. it crashed through the commit,
  /// was caught up past the target by propagation (whose source already
  /// included this update), and then learned the outcome via cooperative
  /// termination — must treat the apply as subsumed, NOT re-apply it.
  bool apply_update = false;
  Update update;
  Version update_target_version = 0;

  /// Mark the local replica stale with `desired_version` ("mark-stale").
  bool mark_stale = false;
  Version desired_version = 0;

  /// Install a complete post-write state carrying `snapshot_version`
  /// (used by the safety-threshold extension of Section 4.1 to promote a
  /// replica into the good set without a permission round, and by the
  /// baselines' total writes).
  bool install_snapshot = false;
  Version snapshot_version = 0;
  Update snapshot;

  /// Replicas this node should propagate this object to after commit
  /// (piggybacked stale list; only set for "good" participants).
  NodeSet propagate_to;
};

/// What a participant is asked to stage. One transaction covers writes
/// ("do-update" / "mark-stale" on one or more objects) and epoch changes
/// ("new-epoch" for the whole group plus per-object stale marking), so
/// the epoch-check cost is amortized over every object of the group.
struct StagedAction {
  /// Install a new epoch ("new-epoch") — affects all objects of the
  /// group, or exactly `epoch_object` when `epoch_scoped` is set.
  bool install_epoch = false;
  EpochNumber epoch_number = 0;
  NodeSet epoch_list;

  /// Sharded deployments give every object its own epoch lineage; a
  /// scoped install touches only `epoch_object`. The fields ride in a
  /// backward-compatible trailer of the action encoding: a group-mode
  /// action encodes byte-identically to the pre-sharding format.
  bool epoch_scoped = false;
  ObjectId epoch_object = 0;

  std::vector<ObjectAction> objects;
};

/// Globally-unique transaction id: the lock owner doubles as one.
struct PrepareRequest : net::Payload {
  LockOwner owner;
  StagedAction action;
  NodeSet participants;  ///< For cooperative termination.
  /// An epoch install's view of this participant: the per-object tuples
  /// its poll reported. The participant refuses the install if any of
  /// them has moved since (or the object is staged), so the epoch
  /// analysis is atomic with the state it read. Empty = unchecked (writes,
  /// the baselines' installs).
  std::vector<ObjectStateTuple> polled;
};

struct CommitRequest : net::Payload {
  LockOwner owner;
};

struct AbortRequest : net::Payload {
  LockOwner owner;
};

/// Cooperative-termination query: "what happened to transaction `owner`?"
struct OutcomeRequest : net::Payload {
  LockOwner owner;
};

enum class TxOutcome { kUnknown, kCommitted, kAborted };

struct OutcomeResponse : net::Payload {
  TxOutcome outcome = TxOutcome::kUnknown;
  /// True iff the responder is the transaction coordinator. A coordinator
  /// with no record of — and no in-flight state for — the transaction
  /// implies presumed abort.
  bool is_coordinator = false;
  /// True iff the responder is the coordinator and is still deciding.
  bool in_progress = false;
};

// --- epoch checking --------------------------------------------------------

/// "epoch-checking-request": report state; no lock taken (the subsequent
/// epoch install locks at 2PC prepare, and refuses if the state reported
/// here has moved — see PrepareRequest::polled). One poll covers every
/// object of the group — or, when `scoped` is set (sharded deployments,
/// where each object has its own epoch lineage), exactly `object`. The
/// scoped fields are a backward-compatible wire trailer: an unscoped
/// request encodes byte-identically to the pre-sharding format.
struct EpochPollRequest : net::Payload {
  bool scoped = false;
  ObjectId object = 0;
};

struct EpochPollResponse : net::Payload {
  NodeId node = kInvalidNode;
  EpochNumber enumber = 0;
  NodeSet elist;
  std::vector<ObjectStateTuple> objects;
};

// --- propagation -----------------------------------------------------------

/// "propagation-offer": the source's version number for one object.
/// `transfer_id` identifies this propagation attempt; the target's
/// transfer lock is held under (source, transfer_id).
struct PropagationOffer : net::Payload {
  ObjectId object = 0;
  Version source_version = 0;
  uint64_t transfer_id = 0;
};

enum class PropagationVerdict {
  kAlreadyRecovering,
  kIAmCurrent,
  kPermitted,
};

struct PropagationOfferReply : net::Payload {
  PropagationVerdict verdict = PropagationVerdict::kIAmCurrent;
  Version target_version = 0;  ///< So the source ships exactly the gap.
};

/// The missing updates (or a full snapshot if the source's log was
/// truncated past the gap).
struct PropagationData : net::Payload {
  ObjectId object = 0;
  uint64_t transfer_id = 0;
  bool snapshot = false;
  Version snapshot_version = 0;  ///< Version the snapshot carries.
  Version first_version = 0;     ///< Version produced by updates[0].
  std::vector<Update> updates;   ///< For snapshots: one total update.
};

struct PropagationDataReply : net::Payload {
  Version new_version = 0;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_MESSAGES_H_
