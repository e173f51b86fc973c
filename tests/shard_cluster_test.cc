// Sharded protocol::Cluster tests (replication_factor > 0): per-object
// routing and epoch lineages, cross-object transactions, the multiplexed
// epoch daemon, and the per-lineage invariant checkers.

#include <gtest/gtest.h>

#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

using storage::ObjectId;
using storage::Update;

ClusterOptions Options() {
  ClusterOptions opts;
  opts.num_nodes = 7;
  opts.num_objects = 16;
  opts.replication_factor = 3;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 11;
  opts.initial_value = {0};
  return opts;
}

/// First object whose home set avoids every node in `avoid`.
ObjectId FindObjectAvoiding(const Cluster& cluster, const NodeSet& avoid) {
  for (ObjectId o = 0; o < cluster.table()->num_objects(); ++o) {
    if (cluster.table()->placement(o).replicas.Intersection(avoid).Empty()) {
      return o;
    }
  }
  ADD_FAILURE() << "no object avoids " << avoid.ToString();
  return 0;
}

TEST(ShardCluster, WriteReadRoundTripAcrossObjects) {
  Cluster cluster(Options());
  for (ObjectId o = 0; o < cluster.num_objects(); ++o) {
    NodeId coord = cluster.RouteCoordinator(o);
    EXPECT_TRUE(cluster.HomeNodes(o).Contains(coord));
    auto w = cluster.WriteSyncRetry(
        coord, o, Update::Total({static_cast<uint8_t>(o), 0x5A}), 10);
    ASSERT_TRUE(w.ok()) << "object " << o << ": " << w.status().ToString();
    EXPECT_EQ(w->version, 1u);
  }
  cluster.RunFor(2000);
  for (ObjectId o = 0; o < cluster.num_objects(); ++o) {
    auto r = cluster.ReadSyncRetry(cluster.RouteCoordinator(o), o, 10);
    ASSERT_TRUE(r.ok()) << "object " << o << ": " << r.status().ToString();
    EXPECT_EQ(r->version, 1u);
    EXPECT_EQ(r->data,
              (std::vector<uint8_t>{static_cast<uint8_t>(o), 0x5A}));
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ShardCluster, ObjectsHaveIndependentVersionsAndHistories) {
  Cluster cluster(Options());
  // Three writes to object 2, one to object 3: versions advance per
  // lineage, not globally.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster
                    .WriteSyncRetry(cluster.RouteCoordinator(2), 2,
                                    Update::Partial(0, {uint8_t(i)}), 10)
                    .ok());
  }
  ASSERT_TRUE(cluster
                  .WriteSyncRetry(cluster.RouteCoordinator(3), 3,
                                  Update::Partial(0, {7}), 10)
                  .ok());
  auto r2 = cluster.ReadSyncRetry(cluster.RouteCoordinator(2), 2, 10);
  auto r3 = cluster.ReadSyncRetry(cluster.RouteCoordinator(3), 3, 10);
  ASSERT_TRUE(r2.ok() && r3.ok());
  EXPECT_EQ(r2->version, 3u);
  EXPECT_EQ(r3->version, 1u);
  EXPECT_EQ(cluster.history(2).writes().size(), 3u);
  EXPECT_EQ(cluster.history(3).writes().size(), 1u);
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ShardCluster, TxnWriteCommitsAcrossObjects) {
  Cluster cluster(Options());
  std::vector<TxnWriteSpec> specs;
  for (ObjectId o : {ObjectId{1}, ObjectId{4}, ObjectId{9}}) {
    TxnWriteSpec spec;
    spec.object = o;
    spec.update = Update::Total({static_cast<uint8_t>(0xC0 + o)});
    specs.push_back(spec);
  }
  auto txn = cluster.TxnWriteSync(cluster.RouteCoordinator(1), specs);
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  ASSERT_EQ(txn->versions.size(), 3u);
  for (const TxnWriteSpec& spec : specs) {
    EXPECT_EQ(txn->versions.at(spec.object), 1u);
    auto r = cluster.ReadSyncRetry(cluster.RouteCoordinator(spec.object),
                                   spec.object, 10);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->data, spec.update.bytes);
  }
  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ShardCluster, TxnWriteRejectsDuplicateObjects) {
  Cluster cluster(Options());
  TxnWriteSpec a;
  a.object = 5;
  a.update = Update::Partial(0, {1});
  auto txn = cluster.TxnWriteSync(cluster.RouteCoordinator(5), {a, a});
  ASSERT_FALSE(txn.ok());
  EXPECT_EQ(txn.status().code(), StatusCode::kInvalidArgument)
      << txn.status().ToString();
}

TEST(ShardCluster, TxnWriteRejectsEmptySpecList) {
  Cluster cluster(Options());
  auto txn = cluster.TxnWriteSync(0, {});
  ASSERT_FALSE(txn.ok());
  EXPECT_EQ(txn.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardCluster, TxnAbortReleasesEveryObjectsLocks) {
  Cluster cluster(Options());
  // Kill the quorum of one object, keep another object's home untouched.
  ObjectId doomed = 0;
  const NodeSet& doomed_home = cluster.HomeNodes(doomed);
  NodeId dead1 = doomed_home.NthMember(0);
  NodeId dead2 = doomed_home.NthMember(1);
  cluster.Crash(dead1);
  cluster.Crash(dead2);
  ObjectId healthy = FindObjectAvoiding(cluster, NodeSet({dead1, dead2}));

  std::vector<TxnWriteSpec> specs(2);
  specs[0].object = healthy;
  specs[0].update = Update::Partial(0, {1});
  specs[1].object = doomed;
  specs[1].update = Update::Partial(0, {2});
  // The healthy object is locked first (spec order), then the doomed
  // object's quorum fails: the abort must release the healthy locks too.
  auto txn =
      cluster.TxnWriteSync(cluster.RouteCoordinator(healthy), specs);
  ASSERT_FALSE(txn.ok());
  EXPECT_TRUE(cluster.Quiescent());

  auto w = cluster.WriteSyncRetry(cluster.RouteCoordinator(healthy), healthy,
                                  Update::Partial(0, {3}), 10);
  EXPECT_TRUE(w.ok()) << "locks leaked after txn abort: "
                      << w.status().ToString();
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(ShardCluster, ScopedEpochCheckShrinksOnlyThatLineage) {
  Cluster cluster(Options());
  ObjectId victim = 0;
  const NodeSet home = cluster.HomeNodes(victim);
  NodeId dead = home.NthMember(0);
  cluster.Crash(dead);
  ObjectId untouched = FindObjectAvoiding(cluster, NodeSet({dead}));

  NodeSet live_home = home;
  live_home.Erase(dead);
  NodeId initiator = live_home.NthMember(0);
  Status s = cluster.CheckObjectEpochSync(initiator, victim);
  ASSERT_TRUE(s.ok()) << s.ToString();
  cluster.RunFor(2000);

  // The victim's lineage moved to epoch 1 = home minus the dead node on
  // every live home replica...
  for (NodeId n : live_home) {
    EXPECT_EQ(cluster.node(n).store(victim).epoch_number(), 1u);
    EXPECT_EQ(cluster.node(n).store(victim).epoch_list(), live_home);
  }
  // ...while an object not homed on the dead node stays at epoch 0.
  for (NodeId n : cluster.HomeNodes(untouched)) {
    EXPECT_EQ(cluster.node(n).store(untouched).epoch_number(), 0u);
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());

  // Writes to the victim keep working in the shrunken epoch.
  auto w = cluster.WriteSyncRetry(initiator, victim, Update::Partial(0, {9}), 10);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
}

TEST(ShardCluster, UnscopedEpochCheckFailsOnShardedNodes) {
  Cluster cluster(Options());
  // Sharded nodes have no shared group epoch; the group-wide check cannot
  // gather a single poll response.
  bool fired = false;
  Status result;
  StartEpochCheck(&cluster.node(0), [&](Status s) {
    fired = true;
    result = std::move(s);
  });
  cluster.RunFor(60000);
  ASSERT_TRUE(fired);
  EXPECT_FALSE(result.ok());
}

TEST(ShardCluster, RouteCoordinatorPrefersLiveHomeNodes) {
  Cluster cluster(Options());
  ObjectId o = 6;
  const NodeSet& home = cluster.HomeNodes(o);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(home.Contains(cluster.RouteCoordinator(o)));
  }
  // With the whole home set down, routing still returns a live node.
  for (NodeId n : home) cluster.Crash(n);
  for (int i = 0; i < 8; ++i) {
    NodeId coord = cluster.RouteCoordinator(o);
    EXPECT_FALSE(home.Contains(coord));
    EXPECT_TRUE(cluster.UpNodes().Contains(coord));
  }
}

TEST(ShardCluster, MuxRunsChecksWithOneTimerPerNode) {
  ClusterOptions opts = Options();
  opts.num_objects = 64;
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300.0;
  Cluster cluster(opts);
  cluster.RunFor(4000);

  uint64_t total_ticks = 0;
  uint64_t total_checks = 0;
  for (NodeId n = 0; n < 7; ++n) {
    EpochMuxStats st = cluster.mux(n).stats();
    total_ticks += st.ticks;
    total_checks += st.checks_run;
    // Cadence amortization: the per-node tick period is derived from
    // check_interval / rounds, never more timers per node.
    EXPECT_GT(cluster.mux(n).tick_interval(), 0.0);
    EXPECT_LE(cluster.mux(n).tick_interval(),
              opts.epoch_check_interval);
  }
  EXPECT_GT(total_ticks, 0u);
  // All epochs healthy: checks run (duty-holder only) and succeed as
  // no-ops without installing anything.
  EXPECT_GT(total_checks, 0u);
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  for (ObjectId o = 0; o < cluster.num_objects(); ++o) {
    for (NodeId n : cluster.HomeNodes(o)) {
      EXPECT_EQ(cluster.node(n).store(o).epoch_number(), 0u);
    }
  }
}

TEST(ShardCluster, MuxRepairsEpochsAfterCrash) {
  ClusterOptions opts = Options();
  opts.num_objects = 32;
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 200.0;
  Cluster cluster(opts);
  cluster.RunFor(500);

  NodeId dead = 2;
  cluster.Crash(dead);
  cluster.RunFor(8 * opts.epoch_check_interval);

  // Every object homed on the dead node had its lineage shrunk by the
  // duty-holding mux; objects elsewhere stayed at epoch 0.
  uint32_t shrunk = 0;
  for (ObjectId o = 0; o < cluster.num_objects(); ++o) {
    const NodeSet& home = cluster.HomeNodes(o);
    if (home.Contains(dead)) {
      NodeSet live_home = home;
      live_home.Erase(dead);
      for (NodeId n : live_home) {
        EXPECT_GE(cluster.node(n).store(o).epoch_number(), 1u)
            << "object " << o << " node " << n;
      }
      ++shrunk;
    } else {
      for (NodeId n : home) {
        EXPECT_EQ(cluster.node(n).store(o).epoch_number(), 0u)
            << "object " << o << " node " << n;
      }
    }
  }
  EXPECT_GT(shrunk, 0u);
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());

  // After recovery the muxes re-admit the node: lineages grow again.
  cluster.Recover(dead);
  cluster.RunFor(8 * opts.epoch_check_interval);
  for (ObjectId o = 0; o < cluster.num_objects(); ++o) {
    const NodeSet& home = cluster.HomeNodes(o);
    if (!home.Contains(dead)) continue;
    for (NodeId n : home) {
      EXPECT_EQ(cluster.node(n).store(o).epoch_list(), home)
          << "object " << o << " node " << n;
    }
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

TEST(ShardCluster, MuxMarkDirtyTriggersPromptCheck) {
  ClusterOptions opts = Options();
  opts.num_objects = 32;
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 10000.0;  // Ring pass would take ages.
  Cluster cluster(opts);
  ObjectId o = 3;
  // The duty holder is the first live member of the placement ranking.
  NodeId duty = cluster.table()->placement(o).ranking[0];
  cluster.mux(duty).MarkDirty(o);
  cluster.RunFor(2 * cluster.mux(duty).tick_interval() + 100);
  EXPECT_GE(cluster.mux(duty).stats().dirty_checks, 1u);
}

TEST(ShardCluster, SameSeedSamePlacementFingerprint) {
  Cluster a(Options());
  Cluster b(Options());
  EXPECT_EQ(a.table()->Fingerprint(), b.table()->Fingerprint());
}

}  // namespace
}  // namespace dcp::protocol
