#include "protocol/placement.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace dcp::protocol {
namespace {

PlacementOptions DefaultOptions() {
  PlacementOptions p;
  p.num_nodes = 7;
  p.num_objects = 64;
  p.replication_factor = 3;
  p.seed = 42;
  return p;
}

TEST(ObjectTable, PlacesEveryObjectOnReplicationFactorNodes) {
  ObjectTable table(DefaultOptions());
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    const ObjectPlacement& p = table.placement(o);
    EXPECT_EQ(p.replicas.Size(), 3u) << "object " << o;
    EXPECT_EQ(p.ranking.size(), 3u) << "object " << o;
    // The ranking and the set agree.
    for (NodeId n : p.ranking) {
      EXPECT_TRUE(p.replicas.Contains(n));
    }
    EXPECT_TRUE(p.replicas.IsSubsetOf(table.pool()));
  }
}

TEST(ObjectTable, ReplicationFactorClampedToPool) {
  PlacementOptions p = DefaultOptions();
  p.num_nodes = 3;
  p.replication_factor = 5;
  ObjectTable table(p);
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    EXPECT_EQ(table.placement(o).replicas.Size(), 3u);
  }
}

TEST(ObjectTable, SameSeedSameTable) {
  ObjectTable a(DefaultOptions());
  ObjectTable b(DefaultOptions());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  for (storage::ObjectId o = 0; o < a.num_objects(); ++o) {
    EXPECT_EQ(a.placement(o).replicas, b.placement(o).replicas);
    EXPECT_EQ(a.placement(o).ranking, b.placement(o).ranking);
  }
}

TEST(ObjectTable, DifferentSeedDifferentTable) {
  PlacementOptions p = DefaultOptions();
  ObjectTable a(p);
  p.seed = 43;
  ObjectTable b(p);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(ObjectTable, LoadIsRoughlyBalanced) {
  PlacementOptions p = DefaultOptions();
  p.num_objects = 512;
  ObjectTable table(p);
  std::map<NodeId, uint32_t> load = table.ReplicaLoad();
  ASSERT_EQ(load.size(), 7u);
  // 512 objects x 3 replicas over 7 nodes ~ 219 each; rendezvous hashing
  // should stay within a loose factor-of-two band.
  uint32_t expected = 512 * 3 / 7;
  for (const auto& [node, n] : load) {
    EXPECT_GT(n, expected / 2) << "node " << node;
    EXPECT_LT(n, expected * 2) << "node " << node;
  }
}

TEST(ObjectTable, RebalanceMovesOnlyAffectedObjects) {
  PlacementOptions p = DefaultOptions();
  p.num_objects = 256;
  ObjectTable table(p);
  std::vector<NodeSet> before;
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    before.push_back(table.placement(o).replicas);
  }

  // Remove node 3: only objects that hosted a replica on 3 may move, and
  // every one of them must (it lost a member).
  NodeSet smaller = table.pool();
  smaller.Erase(3);
  RebalanceRecord rec = table.Rebalance(smaller);
  EXPECT_EQ(rec.from_epoch, 0u);
  EXPECT_EQ(rec.to_epoch, 1u);
  EXPECT_EQ(table.epoch(), 1u);

  uint32_t affected = 0;
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    const NodeSet& now = table.placement(o).replicas;
    EXPECT_FALSE(now.Contains(3));
    if (before[o].Contains(3)) {
      ++affected;
      EXPECT_FALSE(now == before[o]);
      // Minimal movement: the survivors stay.
      NodeSet survivors = before[o];
      survivors.Erase(3);
      EXPECT_TRUE(survivors.IsSubsetOf(now)) << "object " << o;
    } else {
      EXPECT_EQ(now, before[o]) << "object " << o << " moved needlessly";
    }
  }
  EXPECT_EQ(rec.objects_moved, affected);
  EXPECT_GT(affected, 0u);

  // Restoring the pool restores the original table exactly (same salt).
  RebalanceRecord rec2 = table.Rebalance(NodeSet::Universe(7));
  EXPECT_EQ(rec2.to_epoch, 2u);
  for (storage::ObjectId o = 0; o < table.num_objects(); ++o) {
    EXPECT_EQ(table.placement(o).replicas, before[o]);
  }
  ASSERT_EQ(table.audit_log().size(), 2u);
  EXPECT_EQ(table.audit_log()[0].objects_moved, affected);
}

TEST(ObjectTable, FingerprintTracksEpoch) {
  ObjectTable table(DefaultOptions());
  uint64_t fp0 = table.Fingerprint();
  NodeSet smaller = table.pool();
  smaller.Erase(0);
  RebalanceRecord rec = table.Rebalance(smaller);
  EXPECT_NE(table.Fingerprint(), fp0);
  EXPECT_EQ(rec.fingerprint_after, table.Fingerprint());
}

}  // namespace
}  // namespace dcp::protocol
