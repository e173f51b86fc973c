#ifndef DCP_PROTOCOL_INVARIANTS_H_
#define DCP_PROTOCOL_INVARIANTS_H_

#include <memory>
#include <span>

#include "protocol/replica_node.h"
#include "util/status.h"

namespace dcp::protocol {

/// The replica nodes of one deployment, indexed by NodeId. Both cluster
/// facades (sim and sockets) hold their nodes this way.
using NodeSpan = std::span<const std::unique_ptr<ReplicaNode>>;

// Invariant checkers over a deployment's persistent node state (crashed
// nodes count: they recover with this state). They walk one epoch lineage
// at a time through ReplicaNode::universe/rule_for/store, so the same code
// covers both placements: in group mode the lineage of object 0 over every
// node is the shared group epoch; when sharded, each object's lineage
// lives on its home set. The caller must keep the nodes still while a
// checker runs (the simulator between steps, or sockets after Stop()).

/// True iff no node has a prepared-but-undecided 2PC action.
[[nodiscard]] bool Quiescent(NodeSpan nodes);

/// Lemma-1 style epoch invariants, valid at quiescence (Aborted
/// otherwise): per lineage, nodes sharing an epoch number agree on the
/// epoch list and belong to it, and only the highest epoch number present
/// can assemble a write quorum from its own members.
[[nodiscard]] Status CheckEpochInvariants(NodeSpan nodes);

/// Per object, over its home replicas: all non-stale replicas at the
/// maximum version hold identical data, and stale replicas are strictly
/// behind their desired version.
[[nodiscard]] Status CheckReplicaConsistency(NodeSpan nodes);

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_INVARIANTS_H_
