#include "protocol/invariants.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace dcp::protocol {

namespace {

/// Every object hosted anywhere in the deployment, ascending.
std::set<storage::ObjectId> AllObjects(NodeSpan nodes) {
  std::set<storage::ObjectId> objects;
  for (const auto& n : nodes) {
    for (storage::ObjectId o : n->HostedObjects()) objects.insert(o);
  }
  return objects;
}

std::string ObjectPrefix(storage::ObjectId object) {
  return "object " + std::to_string(object) + ": ";
}

}  // namespace

bool Quiescent(NodeSpan nodes) {
  return std::none_of(nodes.begin(), nodes.end(), [](const auto& n) {
    return n->has_staged_transaction();
  });
}

Status CheckEpochInvariants(NodeSpan nodes) {
  if (!Quiescent(nodes)) {
    return Status::Aborted("cluster not quiescent; invariants undefined "
                           "mid-transaction");
  }
  if (nodes.empty()) return Status::OK();
  // Group mode has one lineage, shared by every object.
  const std::set<storage::ObjectId> lineages =
      nodes[0]->sharded() ? AllObjects(nodes)
                          : std::set<storage::ObjectId>{0};
  for (storage::ObjectId object : lineages) {
    const ReplicaNode& any = *nodes[0];
    std::map<storage::EpochNumber, NodeSet> members;
    std::map<storage::EpochNumber, NodeSet> lists;
    storage::EpochNumber max_epoch = 0;
    for (NodeId n : any.universe(object)) {
      const storage::ReplicaStore& s = nodes[n]->store(object);
      storage::EpochNumber e = s.epoch_number();
      max_epoch = std::max(max_epoch, e);
      members[e].Insert(n);
      auto [it, inserted] = lists.emplace(e, s.epoch_list());
      if (!inserted && !(it->second == s.epoch_list())) {
        return Status::Internal(ObjectPrefix(object) + "nodes with epoch " +
                                std::to_string(e) +
                                " disagree on the epoch list");
      }
      if (!s.epoch_list().Contains(n)) {
        return Status::Internal(ObjectPrefix(object) + "node " +
                                std::to_string(n) +
                                " not a member of its own epoch list");
      }
    }
    // Lemma 1, per lineage: only the maximum epoch may assemble a write
    // quorum (under the object's rule) from its own members.
    for (const auto& [e, nodes_in_e] : members) {
      if (e == max_epoch) continue;
      if (any.rule_for(object).IsWriteQuorum(lists.at(e), nodes_in_e)) {
        return Status::Internal(
            ObjectPrefix(object) + "Lemma 1 violated: stale epoch " +
            std::to_string(e) + " still holds a write quorum among " +
            nodes_in_e.ToString());
      }
    }
  }
  return Status::OK();
}

Status CheckReplicaConsistency(NodeSpan nodes) {
  for (storage::ObjectId object : AllObjects(nodes)) {
    const NodeSet& home = nodes[0]->universe(object);
    storage::Version max_version = 0;
    for (NodeId n : home) {
      const storage::ReplicaStore& s = nodes[n]->store(object);
      if (!s.stale()) max_version = std::max(max_version, s.version());
    }
    const std::vector<uint8_t>* reference = nullptr;
    for (NodeId n : home) {
      const storage::ReplicaStore& s = nodes[n]->store(object);
      if (!s.stale() && s.version() == max_version) {
        if (reference == nullptr) {
          reference = &s.object().data();
        } else if (*reference != s.object().data()) {
          return Status::Internal(
              "two non-stale replicas of object " + std::to_string(object) +
              " at version " + std::to_string(max_version) +
              " hold different data");
        }
      }
      if (s.stale() && s.version() >= s.desired_version()) {
        return Status::Internal(
            "node " + std::to_string(n) + " object " +
            std::to_string(object) +
            " is marked stale but already reached its desired version");
      }
    }
  }
  return Status::OK();
}

}  // namespace dcp::protocol
