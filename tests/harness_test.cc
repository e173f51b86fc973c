#include <gtest/gtest.h>

#include "harness/fault_injector.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

namespace dcp::harness {
namespace {

using protocol::Cluster;
using protocol::ClusterOptions;
using protocol::CoterieKind;

ClusterOptions Options() {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 5;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  return opts;
}

TEST(FaultInjector, InjectsFailuresAndRepairsAtConfiguredRates) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 1000;
  fopts.mttr = 250;
  fopts.seed = 3;
  FaultInjector injector(&cluster, fopts);
  cluster.RunFor(50000);
  // Expect roughly 9 * horizon / (mtbf + mttr) cycles = ~360 failures.
  EXPECT_GT(injector.failures_injected(), 200u);
  EXPECT_LT(injector.failures_injected(), 600u);
  // Repairs track failures within one in-flight cycle per node.
  EXPECT_NEAR(double(injector.repairs_injected()),
              double(injector.failures_injected()), 9.0);
  EXPECT_NEAR(injector.NodeAvailability(), 0.8, 1e-9);
}

TEST(FaultInjector, StopQuiescesInjection) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 500;
  fopts.mttr = 100;
  FaultInjector injector(&cluster, fopts);
  cluster.RunFor(5000);
  injector.Stop();
  uint64_t frozen = injector.failures_injected();
  cluster.RunFor(20000);
  EXPECT_EQ(injector.failures_injected(), frozen);
  // All nodes eventually... stay in whatever state they were; recover
  // them manually so the cluster is reusable.
  for (NodeId id = 0; id < 9; ++id) {
    if (!cluster.network().IsUp(id)) cluster.Recover(id);
  }
}

// Regression: the injector schedules its first fault events at
// construction; Stop() before any of them fire must turn the whole queued
// schedule into no-ops (the shared stop flag is checked inside each event;
// safe because the simulator is single-threaded).
TEST(FaultInjector, StopBeforePendingEventsFireMakesThemNoOps) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 100;  // Aggressive: events queued almost immediately.
  fopts.mttr = 10;
  FaultInjector injector(&cluster, fopts);
  injector.Stop();  // Nothing has run yet — the queue is full of events.
  cluster.RunFor(50000);
  EXPECT_EQ(injector.failures_injected(), 0u);
  EXPECT_EQ(injector.repairs_injected(), 0u);
  EXPECT_EQ(cluster.UpNodes().Size(), 9u);
}

TEST(FaultInjector, SafeToDestroyWithEventsQueued) {
  Cluster cluster(Options());
  {
    FaultInjector injector(&cluster, {});
    cluster.RunFor(100);
  }  // Destroyed with fault events still queued.
  cluster.RunFor(100000);  // Must not crash or mutate further.
  SUCCEED();
}

TEST(WorkloadDriver, DrivesOperationsAndRecordsStats) {
  Cluster cluster(Options());
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.05;
  wopts.write_fraction = 0.6;
  WorkloadDriver workload(&cluster, wopts);
  cluster.RunFor(20000);
  workload.Stop();
  // ~1000 operations, ~60% writes. Open-loop clients do not retry, so
  // concurrent arrivals can fail on lock conflicts even failure-free —
  // but the vast majority must succeed, and the history must serialize.
  EXPECT_GT(workload.writes().attempted, 400u);
  EXPECT_GT(workload.reads().attempted, 250u);
  EXPECT_GT(workload.writes().success_rate(), 0.75);
  EXPECT_GT(workload.reads().success_rate(), 0.85);
  EXPECT_GT(workload.writes().mean_latency(), 0.0);
  EXPECT_GT(workload.writes().mean_latency(),
            workload.reads().mean_latency());  // Writes pay 2PC rounds.
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(WorkloadDriver, SurvivesChurnWithDaemons) {
  Cluster cluster(Options());
  FaultInjector::Options fopts;
  fopts.mtbf = 5000;
  fopts.mttr = 800;
  FaultInjector faults(&cluster, fopts);
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  WorkloadDriver workload(&cluster, wopts);
  cluster.RunFor(100000);
  workload.Stop();
  faults.Stop();
  // Churn costs some operations but most must succeed (no retries!).
  EXPECT_GT(workload.writes().success_rate(), 0.7);
  EXPECT_GT(workload.reads().success_rate(), 0.7);
  EXPECT_GT(faults.failures_injected(), 50u);
  EXPECT_TRUE(cluster.CheckHistory().ok())
      << cluster.CheckHistory().ToString();
}

// Regression: same contract for the workload driver — its first arrival
// event is queued at construction, and Stop() before it fires must keep
// every statistic at zero.
TEST(WorkloadDriver, StopBeforePendingEventsFireMakesThemNoOps) {
  Cluster cluster(Options());
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 1.0;  // An arrival is due almost immediately.
  WorkloadDriver workload(&cluster, wopts);
  workload.Stop();  // The first arrival event is still queued.
  cluster.RunFor(20000);
  EXPECT_EQ(workload.writes().attempted, 0u);
  EXPECT_EQ(workload.reads().attempted, 0u);
  EXPECT_EQ(cluster.history().writes().size(), 0u);
}

TEST(WorkloadDriver, StaticStackWorks) {
  Cluster cluster(Options());
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.02;
  wopts.stack = Stack::kStatic;
  WorkloadDriver workload(&cluster, wopts);
  cluster.RunFor(10000);
  workload.Stop();
  EXPECT_GT(workload.writes().attempted, 50u);
  // Failure-free, but open-loop arrivals may still collide on locks.
  EXPECT_GT(workload.writes().success_rate(), 0.8);
}

}  // namespace
}  // namespace dcp::harness
