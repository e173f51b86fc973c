// The adversarial correctness harness: seeded nemesis scenarios (crash
// storms, partitions, asymmetric cuts, flapping/slow links, message-chaos
// windows, background churn) on top of a standing >=5% drop + duplication +
// reordering fault model, against an open-loop workload. After the nemesis
// stops and heals, the cluster must reach quiescence and all four invariant
// checkers must pass — for every seed and every coterie kind.

#include "harness/nemesis.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::harness {
namespace {

using protocol::Cluster;
using protocol::ClusterOptions;
using protocol::CoterieKind;

constexpr sim::Time kHorizon = 12000;

ClusterOptions BaseOptions(CoterieKind kind, uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = kind;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  // The standing message-level fault model the whole run lives under:
  // >=5% drop plus duplication and reordering on every link.
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  opts.fault_model.global.reorder_spike = 20.0;
  return opts;
}

/// Runs the simulation in slices until the cluster is quiescent (no
/// prepared-but-undecided 2PC action anywhere), up to `budget` time.
bool RunToQuiescence(Cluster& cluster, sim::Time budget) {
  const sim::Time slice = 500;
  for (sim::Time spent = 0; spent < budget; spent += slice) {
    cluster.RunFor(slice);
    if (cluster.Quiescent()) return true;
  }
  return cluster.Quiescent();
}

class NemesisSweep
    : public ::testing::TestWithParam<std::tuple<CoterieKind, int>> {};

TEST_P(NemesisSweep, InvariantsHoldAndClusterQuiesces) {
  auto [kind, seed] = GetParam();
  Cluster cluster(BaseOptions(kind, uint64_t(seed)));

  Scenario scenario = RandomScenario(uint64_t(seed) * 7919 + 13,
                                     cluster.num_nodes(), kHorizon);
  Nemesis nemesis(&cluster, scenario);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = uint64_t(seed) + 1000;
  wopts.client_history = &history;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  nemesis.StopAndHeal();

  ASSERT_TRUE(RunToQuiescence(cluster, 20000))
      << "cluster failed to quiesce after faults were lifted (seed " << seed
      << ")";

  EXPECT_TRUE(cluster.CheckEpochInvariants().ok())
      << cluster.CheckEpochInvariants().ToString();
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok())
      << cluster.CheckReplicaConsistency().ToString();
  EXPECT_TRUE(cluster.CheckHistory().ok())
      << cluster.CheckHistory().ToString();
  EXPECT_TRUE(cluster.Quiescent());

  // End-to-end client-consistency verdict: the history the clients
  // actually observed (including open-interval timeouts) must be
  // linearizable against the versioned-object model.
  analysis::AuditOptions aopts;
  aopts.mode = analysis::AuditMode::kLinearizable;
  aopts.initial_value = std::vector<uint8_t>(32, 0);
  analysis::AuditVerdict verdict = analysis::AuditHistory(history, aopts);
  EXPECT_TRUE(verdict.ok) << verdict.ToString();
  EXPECT_FALSE(verdict.inconclusive) << verdict.ToString();

  // The run must actually have been adversarial: the nemesis applied
  // faults and the fault model interfered with real traffic.
  EXPECT_GT(nemesis.faults_applied(), 0u);
  EXPECT_GT(cluster.network().stats().total_dropped, 0u);
  EXPECT_GT(cluster.network().stats().total_duplicated, 0u);
  EXPECT_GT(cluster.network().stats().total_reordered, 0u);
  EXPECT_GT(workload.writes().attempted + workload.reads().attempted, 20u);
}

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<CoterieKind, int>>& info) {
  auto [kind, seed] = info.param;
  std::string k = kind == CoterieKind::kGrid       ? "Grid"
                  : kind == CoterieKind::kMajority ? "Majority"
                                                   : "Tree";
  return k + "Seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NemesisSweep,
    ::testing::Combine(::testing::Values(CoterieKind::kGrid,
                                         CoterieKind::kMajority,
                                         CoterieKind::kTree),
                       ::testing::Range(1, 21)),
    SweepName);

// After a heal with *no* further faults, the workload must make progress
// again (the chaos must not wedge the protocol machinery permanently).
TEST(Nemesis, ClusterServesWritesAfterStopAndHeal) {
  Cluster cluster(BaseOptions(CoterieKind::kGrid, 77));
  Scenario scenario = RandomScenario(77, cluster.num_nodes(), kHorizon);
  Nemesis nemesis(&cluster, scenario);
  cluster.RunFor(kHorizon);
  nemesis.StopAndHeal();
  ASSERT_TRUE(RunToQuiescence(cluster, 20000));
  cluster.ClearNetworkFaults();  // Idempotent with StopAndHeal.

  auto w =
      cluster.WriteSyncRetry(0, 0, protocol::Update::Partial(1, {'z'}), 20);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  auto r = cluster.ReadSyncRetry(4, 0, 20);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// The declarative scenario description round-trips into a readable log.
TEST(Nemesis, LogRecordsAppliedAndLiftedFaults) {
  Cluster cluster(BaseOptions(CoterieKind::kGrid, 5));
  Scenario scenario;
  scenario.name = "hand-written";
  NemesisEvent cut;
  cut.kind = NemesisEvent::Kind::kAsymmetricCut;
  cut.at = 100;
  cut.duration = 200;
  cut.src = 0;
  cut.dst = 1;
  scenario.events.push_back(cut);
  Nemesis nemesis(&cluster, scenario);

  cluster.RunFor(150);
  EXPECT_FALSE(cluster.network().Reachable(0, 1));
  EXPECT_TRUE(cluster.network().Reachable(1, 0));
  cluster.RunFor(200);
  EXPECT_TRUE(cluster.network().Reachable(0, 1));
  ASSERT_EQ(nemesis.log().size(), 2u);
  EXPECT_EQ(nemesis.log()[0].description, "apply asymmetric-cut 0->1");
  EXPECT_EQ(nemesis.log()[1].description, "lift asymmetric-cut 0->1");
}

// Stop() before any scheduled event fires turns the whole schedule into
// no-ops (the stop flag outlives queued closures).
TEST(Nemesis, StopBeforeEventsFireIsNoOp) {
  Cluster cluster(BaseOptions(CoterieKind::kGrid, 6));
  Scenario scenario = RandomScenario(6, cluster.num_nodes(), kHorizon);
  scenario.churn = false;
  Nemesis nemesis(&cluster, scenario);
  nemesis.Stop();
  cluster.RunFor(kHorizon);
  EXPECT_EQ(nemesis.faults_applied(), 0u);
  EXPECT_EQ(cluster.UpNodes().Size(), cluster.num_nodes());
}

}  // namespace
}  // namespace dcp::harness
