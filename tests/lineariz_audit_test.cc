// End-to-end client-consistency audits: every seeded fault family the
// harness owns — nemesis scenarios (crash storms, partitions, link
// chaos), crash-point storms against the durable engine — runs with a
// per-client history recorder attached to the workload, and the run's
// client-observable history must be linearizable (Wing-Gong search over
// the versioned-object model, open intervals treated as concurrent). A
// failure prints the minimized counterexample plus the JSONL history
// dump. Also the regression for client-side timeouts: abandoned
// operations must be recorded open-interval, not discarded, and the
// recorder must never perturb a seeded run.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "epoch_churn.h"
#include "harness/nemesis.h"
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
  opts.fault_model.global.drop = 0.05;
  opts.fault_model.global.duplicate = 0.05;
  opts.fault_model.global.reorder = 0.10;
  opts.fault_model.global.reorder_spike = 20.0;
  return opts;
}

ClusterOptions DurableOptions(CoterieKind kind, uint64_t seed) {
  ClusterOptions opts = BaseOptions(kind, seed);
  opts.durability.enabled = true;
  opts.durability.crash.tear_probability = 0.5;
  opts.durability.checkpoint_threshold_bytes = 4096;
  return opts;
}

bool RunToQuiescence(Cluster& cluster, sim::Time budget) {
  const sim::Time slice = 500;
  for (sim::Time spent = 0; spent < budget; spent += slice) {
    cluster.RunFor(slice);
    if (cluster.Quiescent()) return true;
  }
  return cluster.Quiescent();
}

analysis::AuditOptions AuditOptionsFor(const ClusterOptions& opts) {
  analysis::AuditOptions a;
  a.mode = analysis::AuditMode::kLinearizable;
  a.initial_value = opts.initial_value;
  return a;
}

/// Runs the audit and, on failure, attaches the minimized counterexample
/// plus the full JSONL history so the run is reproducible offline.
::testing::AssertionResult AuditPasses(const analysis::ClientHistory& history,
                                       const analysis::AuditOptions& options) {
  analysis::AuditVerdict v = analysis::AuditHistory(history, options);
  if (v.ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << v.ToString() << "\n--- client history (jsonl) ---\n"
         << history.ToJsonl();
}

// --- the seeded audit sweeps ----------------------------------------------

class AuditedNemesisSweep
    : public ::testing::TestWithParam<std::tuple<CoterieKind, int>> {};

TEST_P(AuditedNemesisSweep, ClientHistoryIsLinearizable) {
  auto [kind, seed] = GetParam();
  ClusterOptions opts = BaseOptions(kind, uint64_t(seed));
  Cluster cluster(opts);

  Scenario scenario = RandomScenario(uint64_t(seed) * 7919 + 13,
                                     cluster.num_nodes(), kHorizon);
  Nemesis nemesis(&cluster, scenario);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = uint64_t(seed) + 1000;
  wopts.client_history = &history;
  // A client-side deadline well above common-case latency: under the
  // fault storm some operations get abandoned, exercising open-interval
  // (possibly-committed) entries in the audited history.
  wopts.op_timeout = 2000;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  nemesis.StopAndHeal();
  ASSERT_TRUE(RunToQuiescence(cluster, 20000))
      << "cluster failed to quiesce (seed " << seed << ")";

  EXPECT_GT(workload.writes().attempted + workload.reads().attempted, 20u);
  EXPECT_FALSE(history.ops().empty());
  EXPECT_TRUE(AuditPasses(history, AuditOptionsFor(opts)));

  // Linearizable histories satisfy the weaker session modes a fortiori.
  analysis::AuditOptions session = AuditOptionsFor(opts);
  session.mode = analysis::AuditMode::kSession;
  EXPECT_TRUE(AuditPasses(history, session));
}

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<CoterieKind, int>>& info) {
  auto [kind, seed] = info.param;
  std::string k = kind == CoterieKind::kGrid       ? "Grid"
                  : kind == CoterieKind::kMajority ? "Majority"
                                                   : "Tree";
  return k + "Seed" + std::to_string(seed);
}

// The seeded 20x3-coterie audit matrix.
INSTANTIATE_TEST_SUITE_P(
    Seeds, AuditedNemesisSweep,
    ::testing::Combine(::testing::Values(CoterieKind::kGrid,
                                         CoterieKind::kMajority,
                                         CoterieKind::kTree),
                       ::testing::Range(1, 21)),
    SweepName);

class AuditedCrashPointSweep
    : public ::testing::TestWithParam<std::tuple<CoterieKind, int>> {};

TEST_P(AuditedCrashPointSweep, ClientHistoryIsLinearizable) {
  auto [kind, seed] = GetParam();
  ClusterOptions opts = DurableOptions(kind, uint64_t(seed));
  Cluster cluster(opts);

  Scenario scenario = CrashPointScenario(uint64_t(seed) * 104729 + 7,
                                         cluster.num_nodes(), kHorizon);
  Nemesis nemesis(&cluster, scenario);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = uint64_t(seed) + 1000;
  wopts.client_history = &history;
  wopts.op_timeout = 2000;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  nemesis.StopAndHeal();
  ASSERT_TRUE(RunToQuiescence(cluster, 20000))
      << "cluster failed to quiesce (seed " << seed << ")";

  EXPECT_FALSE(history.ops().empty());
  EXPECT_TRUE(AuditPasses(history, AuditOptionsFor(opts)));
}

std::string CrashSweepName(
    const ::testing::TestParamInfo<std::tuple<CoterieKind, int>>& info) {
  auto [kind, seed] = info.param;
  std::string k = kind == CoterieKind::kGrid ? "Grid" : "Majority";
  return k + "Seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AuditedCrashPointSweep,
    ::testing::Combine(::testing::Values(CoterieKind::kGrid,
                                         CoterieKind::kMajority),
                       ::testing::Range(1, 11)),
    CrashSweepName);

// --- epoch checks under durable churn ---------------------------------------

// The shortest known reproduction of a stale read through an epoch
// change. Node 8's check polled at t=11120.0, a write of object 3 decided
// v19 at t=11120.25, and the epoch prepare started at t=11122.7. An
// analysis that never saw v19 counted replicas still at v18 (recovered
// node 3 among them) as current, marked the v19 replicas "stale, desired
// v18", and a read quorum of the new epoch returned v18 at t=11308 after
// v19 was acked. The prepare now carries the polled tuples, and a
// participant whose state moved since the poll refuses the install.
TEST(EpochCheckAtomicity, ShortestStaleReadThroughEpochChange) {
  epoch_churn::RunResult run = epoch_churn::Run(
      epoch_churn::Options(/*seed=*/1, /*replication_factor=*/0),
      /*workload_seed=*/1, /*horizon=*/11600,
      {{5, 3566.8, 5356.4}, {3, 9971.4, 11003.0}});
  EXPECT_TRUE(run.quiesced);
  EXPECT_GT(run.ops_recorded, 400u);
  EXPECT_TRUE(run.verdict.ok) << run.verdict.ToString();
}

// --- the timeout regression (satellite fix) -------------------------------

// Workload timeouts used to discard the operation entirely. They must be
// recorded as open-interval invocations (the op may have committed) and
// surfaced in OpStats::timed_out — not silently dropped.
TEST(AuditTimeouts, AbandonedOpsAreRecordedOpenInterval) {
  ClusterOptions opts;
  opts.num_nodes = 3;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 11;
  opts.initial_value = std::vector<uint8_t>(8, 0);
  // Half of all messages vanish. A dropped *request* fast-fails the op
  // (transport on_failed), but a delivered request whose *response* is
  // dropped stalls the coordinator until the 100-unit RPC timeout —
  // well past the client's 50-unit deadline below, so a steady fraction
  // of operations is abandoned while genuinely still in flight.
  opts.fault_model.global.drop = 0.5;
  Cluster cluster(opts);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.02;
  wopts.seed = 7;
  wopts.client_history = &history;
  wopts.op_timeout = 50;  // Below the 100-unit RPC timeout: the client
                          // gives up while the op is still undecided.
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(4000);
  workload.Stop();
  cluster.RunFor(2000);

  const OpStats& w = workload.writes();
  const OpStats& r = workload.reads();
  ASSERT_GT(w.attempted + r.attempted, 10u);
  EXPECT_GT(w.timed_out + r.timed_out, 0u);

  // Every abandoned op is present, settled, and open-interval.
  uint64_t open_ops = 0;
  for (const analysis::ClientOp& op : history.ops()) {
    if (op.outcome == analysis::ClientOp::Outcome::kOpen) ++open_ops;
  }
  EXPECT_GE(open_ops, w.timed_out + r.timed_out);
  EXPECT_EQ(history.ops().size(), w.attempted + r.attempted);

  // Possibly-committed ops constrain nothing by themselves: the audit
  // treats them as concurrent and the history passes.
  analysis::AuditOptions a;
  a.initial_value = opts.initial_value;
  EXPECT_TRUE(AuditPasses(history, a));
}

// A late response after the client gave up must not flip the op's
// outcome or double-count stats. Driven through a cluster whose single
// partition heals after the deadline.
TEST(AuditTimeouts, LateResponseAfterAbandonIsIgnored) {
  ClusterOptions opts;
  opts.num_nodes = 3;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 12;
  opts.initial_value = std::vector<uint8_t>(8, 0);
  Cluster cluster(opts);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.02;
  wopts.seed = 9;
  wopts.client_history = &history;
  wopts.op_timeout = 1;  // Far below any achievable round trip.
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(3000);
  workload.Stop();
  cluster.RunFor(2000);

  const OpStats& w = workload.writes();
  const OpStats& r = workload.reads();
  ASSERT_GT(w.attempted + r.attempted, 10u);
  // Everything abandoned; completions that landed later were ignored.
  EXPECT_EQ(w.committed + r.committed, 0u);
  EXPECT_EQ(w.failed + r.failed, 0u);
  EXPECT_EQ(w.timed_out + r.timed_out, w.attempted + r.attempted);
  for (const analysis::ClientOp& op : history.ops()) {
    EXPECT_EQ(op.outcome, analysis::ClientOp::Outcome::kOpen)
        << op.Describe();
  }
  // The protocol still did the work behind the clients' backs — some
  // writes committed. The audit must accept them as rolled-forward.
  analysis::AuditOptions a;
  a.initial_value = opts.initial_value;
  EXPECT_TRUE(AuditPasses(history, a));
}

// --- observation purity ----------------------------------------------------

struct RunFingerprint {
  net::NetworkStats network_stats;
  uint64_t events_executed = 0;
  std::vector<storage::Version> write_versions;
  std::vector<uint64_t> replica_fingerprints;
};

RunFingerprint RunNemesisOnce(uint64_t seed, analysis::ClientHistory* history) {
  Cluster cluster(BaseOptions(CoterieKind::kGrid, seed));
  Scenario scenario =
      RandomScenario(seed * 7919 + 13, cluster.num_nodes(), kHorizon);
  Nemesis nemesis(&cluster, scenario);

  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 1000;
  wopts.client_history = history;  // The only difference between runs.
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(8000);

  RunFingerprint fp;
  fp.network_stats = cluster.network().stats();
  fp.events_executed = cluster.simulator().events_executed();
  for (const auto& w : cluster.history().writes()) {
    fp.write_versions.push_back(w.version);
  }
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    fp.replica_fingerprints.push_back(
        cluster.node(i).store().object().Fingerprint());
  }
  return fp;
}

// Attaching the recorder draws no randomness and schedules nothing, so a
// recorded run replays byte-identically to an unrecorded one.
TEST(AuditDeterminism, RecorderDoesNotPerturbSeededRuns) {
  analysis::ClientHistory history;
  RunFingerprint with = RunNemesisOnce(321, &history);
  RunFingerprint without = RunNemesisOnce(321, nullptr);
  EXPECT_EQ(with.network_stats, without.network_stats);
  EXPECT_EQ(with.events_executed, without.events_executed);
  EXPECT_EQ(with.write_versions, without.write_versions);
  EXPECT_EQ(with.replica_fingerprints, without.replica_fingerprints);
  EXPECT_FALSE(history.ops().empty());
}

// The JSONL export of a real adversarial run round-trips and audits to
// the same verdict — the offline-analysis contract.
TEST(AuditExport, RealRunHistoryRoundTripsThroughJsonl) {
  ClusterOptions opts = BaseOptions(CoterieKind::kMajority, 5);
  Cluster cluster(opts);
  Scenario scenario = RandomScenario(5 * 7919 + 13, cluster.num_nodes(), 6000);
  Nemesis nemesis(&cluster, scenario);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = 1005;
  wopts.client_history = &history;
  wopts.op_timeout = 2000;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(6000);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(8000);

  analysis::ClientHistory parsed;
  ASSERT_TRUE(analysis::ClientHistory::FromJsonl(history.ToJsonl(), &parsed));
  ASSERT_EQ(parsed.ops().size(), history.ops().size());
  analysis::AuditOptions a = AuditOptionsFor(opts);
  analysis::AuditVerdict direct = analysis::AuditHistory(history, a);
  analysis::AuditVerdict roundtrip = analysis::AuditHistory(parsed, a);
  EXPECT_EQ(direct.ok, roundtrip.ok);
  EXPECT_TRUE(direct.ok) << direct.ToString();
}

}  // namespace
}  // namespace dcp::harness
