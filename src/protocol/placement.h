#ifndef DCP_PROTOCOL_PLACEMENT_H_
#define DCP_PROTOCOL_PLACEMENT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "storage/replica_store.h"
#include "util/node_set.h"

namespace dcp::protocol {

/// Monotone counter naming one generation of the object table. Every
/// Rebalance() bumps it, so "which placement was in force" is a first-class,
/// auditable fact rather than an implicit property of whatever map a node
/// happened to hold.
using PlacementEpoch = uint64_t;

struct PlacementOptions {
  /// Size of the node pool; the initial pool is nodes [0, num_nodes).
  uint32_t num_nodes = 7;
  /// Objects are ids [0, num_objects).
  uint32_t num_objects = 64;
  /// Replicas per object (clamped to the pool size).
  uint32_t replication_factor = 3;
  /// Seed of the placement RNG root. Same options => byte-identical table.
  uint64_t seed = 1;
};

/// Where one object lives.
struct ObjectPlacement {
  NodeSet replicas;             ///< The object's home node set.
  std::vector<NodeId> ranking;  ///< Replicas in rendezvous order (best first).
};

/// Audit record of one Rebalance() call.
struct RebalanceRecord {
  PlacementEpoch from_epoch = 0;
  PlacementEpoch to_epoch = 0;
  NodeSet pool_before;
  NodeSet pool_after;
  uint32_t objects_moved = 0;  ///< Objects whose replica set changed.
  uint64_t fingerprint_after = 0;
};

/// Deterministic object table: rendezvous (highest-random-weight) hashing
/// over the node pool. The per-(object, node) scores are derived from a
/// single salt drawn once from the seeded placement root, and the salt is
/// *fixed for the lifetime of the table* — so shrinking or growing the pool
/// moves only the objects whose top-R set actually contained an affected
/// node (the minimal-movement property of rendezvous hashing), and two
/// tables built from the same options are byte-identical.
class ObjectTable {
 public:
  explicit ObjectTable(PlacementOptions options);

  [[nodiscard]] const PlacementOptions& options() const { return options_; }
  [[nodiscard]] uint32_t num_objects() const { return options_.num_objects; }
  [[nodiscard]] PlacementEpoch epoch() const { return epoch_; }
  [[nodiscard]] const NodeSet& pool() const { return pool_; }

  [[nodiscard]] const ObjectPlacement& placement(storage::ObjectId object) const {
    return placements_.at(object);
  }

  /// Objects hosted per pool node (diagnostics / balance tests).
  [[nodiscard]] std::map<NodeId, uint32_t> ReplicaLoad() const;

  /// Order-insensitive-free digest of the whole table (epoch, pool, and
  /// every placement, in object order). Two tables with equal fingerprints
  /// are byte-identical for protocol purposes.
  [[nodiscard]] uint64_t Fingerprint() const;

  /// Recomputes every placement over `new_pool` (same salt, so movement is
  /// minimal), bumps the placement epoch, and appends an audit record.
  RebalanceRecord Rebalance(NodeSet new_pool);

  [[nodiscard]] const std::vector<RebalanceRecord>& audit_log() const {
    return audit_log_;
  }

 private:
  uint64_t Score(storage::ObjectId object, NodeId node) const;
  void Place();

  PlacementOptions options_;
  uint64_t salt_ = 0;
  NodeSet pool_;
  PlacementEpoch epoch_ = 0;
  std::vector<ObjectPlacement> placements_;
  std::vector<RebalanceRecord> audit_log_;
};

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_PLACEMENT_H_
