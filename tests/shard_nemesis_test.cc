// Sharded adversarial sweeps: a seeded matrix of partition runs over a
// 7-node / 64-object cluster (grid and majority coterie classes) in which
// one node is isolated mid-run. The multiplexed epoch daemons must shrink
// every lineage of an object homed on the isolated node whose other home
// members hold a write quorum — including those the isolated node ranks
// first, which only the silence of its polls hands over — while every
// other object's lineage stays untouched — per-object epochs diverge
// INDEPENDENTLY, the point of sharding — and after healing the cluster
// must converge back to full home lists with all invariants intact and
// the client-observable history of every object linearizable.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

using storage::ObjectId;
using storage::Update;

constexpr uint32_t kNodes = 7;
constexpr uint32_t kObjects = 64;
constexpr sim::Time kWarmup = 1000;
constexpr sim::Time kPartitionSpan = 3000;
constexpr sim::Time kCooldown = 4000;

ClusterOptions SweepOptions(CoterieKind kind, uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = kNodes;
  opts.num_objects = kObjects;
  opts.replication_factor = 5;
  opts.coterie = kind;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(8, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 400;
  return opts;
}

/// A minimal multi-object client driver: issues writes and reads against
/// placement-routed coordinators at exponential arrivals, recording every
/// invocation/response into one ClientHistory (ops carry their ObjectId;
/// the audit partitions per object). Ops unsettled at the end of the run
/// stay open-interval, exactly the possibly-committed freedom the checker
/// grants.
class ShardWorkload {
 public:
  ShardWorkload(Cluster* cluster, uint64_t seed,
                analysis::ClientHistory* history)
      // Stream root: the workload arrival/choice RNG, independent of the
      // cluster's seed streams.  // dcp-lint: allow(raw-rng)
      : cluster_(cluster), rng_(seed), history_(history) {
    stopped_ = std::make_shared<bool>(false);
    ArmNext();
  }

  void Stop() { *stopped_ = true; }
  uint64_t attempted() const { return attempted_; }

 private:
  void ArmNext() {
    std::shared_ptr<bool> stopped = stopped_;
    cluster_->simulator().Schedule(rng_.Exponential(0.02), [this, stopped] {
      if (*stopped) return;
      Issue();
      ArmNext();
    });
  }

  void Issue() {
    ObjectId object = static_cast<ObjectId>(rng_.Uniform(kObjects));
    NodeId coordinator = cluster_->RouteCoordinator(object);
    double now = cluster_->simulator().Now();
    uint64_t client = next_client_++;
    ++attempted_;
    if (rng_.Bernoulli(0.5)) {
      Update update = Update::Partial(rng_.Uniform(8),
                                      {static_cast<uint8_t>(counter_++)});
      uint64_t id = history_->InvokeWrite(client, object, update, now);
      analysis::ClientHistory* history = history_;
      sim::Simulator* sim = &cluster_->simulator();
      cluster_->Write(coordinator, object, update,
                      [history, sim, id](Result<WriteOutcome> r) {
                        if (r.ok()) {
                          history->ReturnWrite(id, sim->Now(),
                                               r.value().version);
                        } else {
                          history->Fail(id, sim->Now(),
                                        IsDefinite(r.status()));
                        }
                      });
    } else {
      uint64_t id = history_->InvokeRead(client, object, now);
      analysis::ClientHistory* history = history_;
      sim::Simulator* sim = &cluster_->simulator();
      cluster_->Read(coordinator, object,
                     [history, sim, id](Result<ReadOutcome> r) {
                       if (r.ok()) {
                         history->ReturnRead(id, sim->Now(),
                                             r.value().version,
                                             r.value().data);
                       } else {
                         history->Fail(id, sim->Now(),
                                       IsDefinite(r.status()));
                       }
                     });
    }
  }

  static bool IsDefinite(const Status& s) {
    switch (s.code()) {
      case StatusCode::kInvalidArgument:
      case StatusCode::kNotFound:
      case StatusCode::kAborted:
      case StatusCode::kConflict:
      case StatusCode::kStaleData:
        return true;
      default:
        return false;
    }
  }

  Cluster* cluster_;
  Rng rng_;
  analysis::ClientHistory* history_;
  std::shared_ptr<bool> stopped_;
  uint64_t next_client_ = 0;
  uint64_t attempted_ = 0;
  uint32_t counter_ = 1;
};

bool RunToQuiescence(Cluster& cluster, sim::Time budget) {
  const sim::Time slice = 500;
  for (sim::Time spent = 0; spent < budget; spent += slice) {
    cluster.RunFor(slice);
    if (cluster.Quiescent()) return true;
  }
  return cluster.Quiescent();
}

class ShardedNemesisSweep
    : public ::testing::TestWithParam<std::tuple<CoterieKind, int>> {};

TEST_P(ShardedNemesisSweep, LineagesDivergeIndependentlyAndAuditPasses) {
  auto [kind, seed] = GetParam();
  ClusterOptions opts = SweepOptions(kind, uint64_t(seed));
  Cluster cluster(opts);

  analysis::ClientHistory history;
  ShardWorkload workload(&cluster, uint64_t(seed) + 5000, &history);

  cluster.RunFor(kWarmup);

  // Isolate one (seed-chosen) node; the rest of the pool stays connected.
  // A victim-homed lineage whose other home members hold a write quorum
  // of its epoch list can (and so must) shrink to exclude the victim —
  // also where the victim is the lineage's top-ranked member, whose
  // polls the other members stop hearing.
  NodeId victim = static_cast<NodeId>(uint64_t(seed) % kNodes);
  std::vector<ObjectId> must_shrink;
  for (ObjectId o = 0; o < kObjects; ++o) {
    NodeSet others = cluster.HomeNodes(o);
    if (!others.Contains(victim)) continue;
    others.Erase(victim);
    const NodeSet& list = cluster.node(others.NthMember(0)).store(o)
                              .epoch_list();
    if (!cluster.rule().IsWriteQuorum(list, others)) continue;
    must_shrink.push_back(o);
  }
  NodeSet majority = NodeSet::Universe(kNodes);
  majority.Erase(victim);
  cluster.Partition({NodeSet({victim}), majority});
  cluster.RunFor(kPartitionSpan);

  // Mid-partition divergence: every such lineage has a non-victim member
  // on an epoch without the victim, while every object NOT homed on the
  // victim is still on its birth epoch — lineages move independently.
  for (ObjectId o : must_shrink) {
    bool shrunk = false;
    for (NodeId n : cluster.HomeNodes(o)) {
      if (n != victim && !cluster.node(n).store(o).epoch_list().Contains(
                             victim)) {
        shrunk = true;
      }
    }
    EXPECT_TRUE(shrunk) << "object " << o << " (ranking[0] "
                        << cluster.table()->placement(o).ranking[0]
                        << ") kept isolated node " << victim
                        << " in its epoch (seed " << seed << ")";
  }
  EXPECT_GT(must_shrink.size(), 0u);
  uint32_t untouched = 0;
  for (ObjectId o = 0; o < kObjects; ++o) {
    const NodeSet& home = cluster.HomeNodes(o);
    if (home.Contains(victim)) continue;
    ++untouched;
    for (NodeId n : home) {
      EXPECT_EQ(cluster.node(n).store(o).epoch_number(), 0u)
          << "object " << o << " (not homed on the isolated node " << victim
          << ") had its lineage disturbed";
    }
  }
  EXPECT_GT(untouched, 0u);

  cluster.Heal();
  cluster.RunFor(kCooldown);
  workload.Stop();
  ASSERT_TRUE(RunToQuiescence(cluster, 20000))
      << "cluster failed to quiesce (seed " << seed << ")";

  // Healed convergence: the muxes re-admit the victim, every lineage's
  // list is back to the full home set, and all invariants hold.
  for (ObjectId o = 0; o < kObjects; ++o) {
    for (NodeId n : cluster.HomeNodes(o)) {
      EXPECT_EQ(cluster.node(n).store(o).epoch_list(), cluster.HomeNodes(o))
          << "object " << o << " node " << n << " (seed " << seed << ")";
    }
  }
  EXPECT_TRUE(cluster.CheckEpochInvariants().ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());

  // The client-observable history must be linearizable per object
  // (Wing-Gong partitions over the op's ObjectId).
  EXPECT_GT(workload.attempted(), 20u);
  analysis::AuditOptions audit;
  audit.mode = analysis::AuditMode::kLinearizable;
  audit.initial_value = opts.initial_value;
  analysis::AuditVerdict verdict = analysis::AuditHistory(history, audit);
  EXPECT_TRUE(verdict.ok) << verdict.ToString()
                          << "\n--- client history (jsonl) ---\n"
                          << history.ToJsonl();
}

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<CoterieKind, int>>& info) {
  auto [kind, seed] = info.param;
  std::string k = kind == CoterieKind::kGrid ? "Grid" : "Majority";
  return k + "Seed" + std::to_string(seed);
}

// The seeded 20x2-class sweep.
INSTANTIATE_TEST_SUITE_P(
    Seeds, ShardedNemesisSweep,
    ::testing::Combine(::testing::Values(CoterieKind::kGrid,
                                         CoterieKind::kMajority),
                       ::testing::Range(1, 21)),
    SweepName);

// Placement determinism across the sweep's seeds: the object table is a
// pure function of its options — same seed, byte-identical table (the
// property that lets any node rebuild routing without coordination).
TEST(ShardedPlacementDeterminism, SameSeedByteIdenticalTable) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PlacementOptions p;
    p.num_nodes = kNodes;
    p.num_objects = kObjects;
    p.replication_factor = 5;
    p.seed = seed;
    ObjectTable a(p);
    ObjectTable b(p);
    ASSERT_EQ(a.Fingerprint(), b.Fingerprint()) << "seed " << seed;
    for (ObjectId o = 0; o < kObjects; ++o) {
      ASSERT_EQ(a.placement(o).replicas, b.placement(o).replicas);
      ASSERT_EQ(a.placement(o).ranking, b.placement(o).ranking);
    }
  }
}

}  // namespace
}  // namespace dcp::protocol
