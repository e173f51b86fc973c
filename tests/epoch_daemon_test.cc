// The group-mode epoch driver: one EpochMux per node, one lineage (the
// group's shared epoch) ranked by descending node id. Duty follows
// received epoch polls: node 8 checks while its polls arrive, and the
// next node takes over once they stop, with no liveness oracle.
#include "protocol/epoch_mux.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

constexpr sim::Time kInterval = 200;

ClusterOptions DaemonOptions(uint32_t n = 9) {
  ClusterOptions opts;
  opts.num_nodes = n;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 13;
  opts.initial_value = {1};
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = kInterval;
  return opts;
}

std::vector<uint64_t> ChecksRun(Cluster& cluster) {
  std::vector<uint64_t> runs;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    runs.push_back(cluster.mux(n).stats().checks_run);
  }
  return runs;
}

TEST(EpochDaemon, OnlyTheTopRankedNodeChecksInAHealthyGroup) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(1000);  // Warmup: every mux has ticked.
  std::vector<uint64_t> before = ChecksRun(cluster);
  cluster.RunFor(20 * kInterval);
  std::vector<uint64_t> after = ChecksRun(cluster);
  // Node 8's polls reach everyone each interval and suppress the other
  // eight muxes; node 8 checks about once per interval.
  for (NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(after[n], before[n]) << "node " << n << " ran checks";
  }
  EXPECT_GE(after[8] - before[8], 19u);
  EXPECT_LE(after[8] - before[8], 21u);
  // No epoch change is needed in a healthy cluster.
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).store().epoch_number(), 0u);
  }
}

TEST(EpochDaemon, DaemonDetectsFailureAndChangesEpoch) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(500);
  cluster.Crash(4);
  cluster.RunFor(1500);  // Next periodic check notices and re-forms.
  NodeSet expected = NodeSet::Universe(9);
  expected.Erase(4);
  for (NodeId i = 0; i < 9; ++i) {
    if (i == 4) continue;
    EXPECT_GE(cluster.node(i).store().epoch_number(), 1u) << "node " << i;
    EXPECT_EQ(cluster.node(i).store().epoch_list(), expected) << "node " << i;
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
}

TEST(EpochDaemon, TopRankedCrashHandsDutyToTheNextNode) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(500);
  cluster.Crash(8);  // The top-ranked node.
  // Node 7 stops hearing node 8's polls, takes duty after two intervals
  // of silence, and runs the epoch check.
  cluster.RunFor(4000);
  NodeSet expected = NodeSet::Universe(9);
  expected.Erase(8);
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_GE(cluster.node(i).store().epoch_number(), 1u) << "node " << i;
    EXPECT_EQ(cluster.node(i).store().epoch_list(), expected);
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
}

TEST(EpochDaemon, RecoveredTopRankedNodeIsReadmitted) {
  Cluster cluster(DaemonOptions());
  cluster.RunFor(500);
  cluster.Crash(8);
  cluster.RunFor(4000);  // Node 7 checks; the epoch excludes 8.
  cluster.Recover(8);
  cluster.RunFor(4000);  // Node 8 checks again; the epoch re-admits 8.
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).store().epoch_list(), NodeSet::Universe(9))
        << "node " << i;
  }
  // Node 8 was re-admitted and caught up by propagation if needed.
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

TEST(EpochDaemon, PartitionedTopRankedNodeIsExcludedAndReadmitted) {
  // Node 8 stays up but is cut off: it keeps polling, its polls reach
  // nobody, and the other eight must take over from that silence alone.
  Cluster cluster(DaemonOptions());
  cluster.RunFor(500);
  NodeSet rest = NodeSet::Universe(9);
  rest.Erase(8);
  cluster.Partition({NodeSet({8}), rest});
  cluster.RunFor(4000);
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_GE(cluster.node(i).store().epoch_number(), 1u) << "node " << i;
    EXPECT_EQ(cluster.node(i).store().epoch_list(), rest) << "node " << i;
  }
  EXPECT_EQ(cluster.node(8).store().epoch_number(), 0u);

  auto w = cluster.WriteSyncRetry(0, 0, Update::Partial(0, {7}), 10);
  EXPECT_TRUE(w.ok()) << w.status().ToString();

  cluster.Heal();
  cluster.RunFor(4000);
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(cluster.node(i).store().epoch_list(), NodeSet::Universe(9))
        << "node " << i;
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(EpochDaemon, AutonomousOperationUnderFailures) {
  // Writes keep succeeding while daemons autonomously track a churn of
  // failures and repairs.
  Cluster cluster(DaemonOptions());
  int committed = 0;
  for (int round = 0; round < 6; ++round) {
    NodeId victim = static_cast<NodeId>((round * 2) % 9);
    cluster.Crash(victim);
    cluster.RunFor(1500);  // Daemon reacts.
    for (int i = 0; i < 3; ++i) {
      NodeId coord = static_cast<NodeId>((victim + 1 + i) % 9);
      auto w = cluster.WriteSyncRetry(coord, 0,
                                      Update::Partial(0, {uint8_t(round)}), 10);
      if (w.ok()) ++committed;
    }
    cluster.Recover(victim);
    cluster.RunFor(1500);
  }
  EXPECT_EQ(committed, 18);
  cluster.RunFor(4000);
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
  // The daemons did real work.
  uint64_t checks = 0;
  for (uint32_t i = 0; i < 9; ++i) {
    checks = std::max<uint64_t>(checks,
                                cluster.node(i).store().epoch_number());
  }
  EXPECT_GE(checks, 10u);
}

TEST(EpochDaemon, NoInterferenceWithoutFailures) {
  // Section 4.3: "in the absence of failures epoch checking does not
  // interfere with reads and writes" — polls take no locks, and no epoch
  // change means no 2PC.
  Cluster cluster(DaemonOptions());
  cluster.RunFor(5000);
  const auto& stats = cluster.network().stats();
  EXPECT_GT(stats.by_type.at("epoch-poll").sent, 100u);
  EXPECT_EQ(stats.by_type.count("2pc-prepare"), 0u);
  for (uint32_t i = 0; i < 9; ++i) {
    EXPECT_FALSE(cluster.node(i).store().IsLocked());
  }
}

}  // namespace
}  // namespace dcp::protocol
