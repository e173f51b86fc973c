// Randomized whole-stack property tests: a seeded fault injector crashes,
// recovers, and partitions nodes while clients issue reads and writes
// and the epoch daemons run; at the end, every invariant the paper's
// correctness argument rests on is checked:
//   - Lemma 1: epoch uniqueness (only the newest epoch can form quorums);
//   - Lemma 2/3 via the history: committed writes form a total, gapless,
//     real-time-respecting version order and reads return the latest data;
//   - replica consistency: equal-version non-stale replicas hold equal
//     bytes; propagation eventually clears staleness.

#include <gtest/gtest.h>

#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

struct Scenario {
  uint64_t seed;
  uint32_t nodes;
  CoterieKind kind;
};

class RandomizedProtocol : public ::testing::TestWithParam<Scenario> {};

std::string KindName(CoterieKind k) {
  switch (k) {
    case CoterieKind::kGrid:
      return "grid";
    case CoterieKind::kGridUnoptimized:
      return "gridU";
    case CoterieKind::kGridColumnSafe:
      return "gridCS";
    case CoterieKind::kMajority:
      return "maj";
    case CoterieKind::kTree:
      return "tree";
    case CoterieKind::kHierarchical:
      return "hqc";
  }
  return "?";
}

TEST_P(RandomizedProtocol, InvariantsHoldUnderChurn) {
  const Scenario& sc = GetParam();
  ClusterOptions opts;
  opts.num_nodes = sc.nodes;
  opts.coterie = sc.kind;
  opts.seed = sc.seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 150;
  Cluster cluster(opts);

  Rng rng(sc.seed * 7919);
  std::vector<bool> up(sc.nodes, true);
  uint32_t up_count = sc.nodes;
  bool partitioned = false;
  int committed_writes = 0;
  int attempted_writes = 0;
  int committed_reads = 0;

  for (int step = 0; step < 120; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.12 && up_count > sc.nodes / 2) {
      // Crash a random up node (keep a majority up so progress remains
      // likely and the test terminates quickly).
      uint32_t pick = static_cast<uint32_t>(rng.Uniform(up_count));
      for (NodeId id = 0; id < sc.nodes; ++id) {
        if (!up[id]) continue;
        if (pick-- == 0) {
          cluster.Crash(id);
          up[id] = false;
          --up_count;
          break;
        }
      }
    } else if (dice < 0.24 && up_count < sc.nodes) {
      uint32_t down = sc.nodes - up_count;
      uint32_t pick = static_cast<uint32_t>(rng.Uniform(down));
      for (NodeId id = 0; id < sc.nodes; ++id) {
        if (up[id]) continue;
        if (pick-- == 0) {
          cluster.Recover(id);
          up[id] = true;
          ++up_count;
          break;
        }
      }
    } else if (dice < 0.60) {
      // A write from a random up coordinator.
      uint32_t pick = static_cast<uint32_t>(rng.Uniform(up_count));
      NodeId coord = 0;
      for (NodeId id = 0; id < sc.nodes; ++id) {
        if (!up[id]) continue;
        if (pick-- == 0) {
          coord = id;
          break;
        }
      }
      ++attempted_writes;
      auto w = cluster.WriteSyncRetry(
          coord, 0,
          Update::Partial(rng.Uniform(32), {uint8_t(rng.Uniform(256))}), 6);
      if (w.ok()) ++committed_writes;
    } else if (dice < 0.80) {
      uint32_t pick = static_cast<uint32_t>(rng.Uniform(up_count));
      NodeId coord = 0;
      for (NodeId id = 0; id < sc.nodes; ++id) {
        if (!up[id]) continue;
        if (pick-- == 0) {
          coord = id;
          break;
        }
      }
      auto r = cluster.ReadSyncRetry(coord, 0, 6);
      if (r.ok()) ++committed_reads;
    } else if (dice < 0.86 && !partitioned) {
      // Partition: split into two random connectivity groups.
      NodeSet left, right;
      for (NodeId id = 0; id < sc.nodes; ++id) {
        (rng.Bernoulli(0.5) ? left : right).Insert(id);
      }
      if (!left.Empty() && !right.Empty()) {
        cluster.Partition({left, right});
        partitioned = true;
      }
    } else if (dice < 0.92 && partitioned) {
      cluster.Heal();
      partitioned = false;
    } else {
      // Let time pass: epoch daemons, propagation, terminations.
      cluster.RunFor(100 + rng.Uniform(400));
    }
  }
  if (partitioned) {
    cluster.Heal();
    partitioned = false;
  }

  // Quiesce: recover everyone, let daemons/propagation settle.
  for (NodeId id = 0; id < sc.nodes; ++id) {
    if (!up[id]) cluster.Recover(id);
  }
  cluster.RunFor(20000);

  EXPECT_TRUE(cluster.Quiescent());
  Status lemma1 = cluster.CheckEpochInvariants();
  EXPECT_TRUE(lemma1.ok()) << lemma1.ToString();
  Status consistency = cluster.CheckReplicaConsistency();
  EXPECT_TRUE(consistency.ok()) << consistency.ToString();
  Status history = cluster.CheckHistory();
  EXPECT_TRUE(history.ok()) << history.ToString();

  // The workload must have made real progress for the test to mean much.
  // (Small unoptimized grids have genuinely low availability, so scale
  // the expectation with the configuration.)
  if (sc.nodes >= 9) {
    EXPECT_GT(committed_writes, 7) << "of " << attempted_writes;
    EXPECT_GT(committed_reads, 3);
  } else {
    EXPECT_GT(committed_writes, 3) << "of " << attempted_writes;
  }

  // After full recovery + settling, no replica may remain stale:
  // propagation duty survives crashes (it is re-issued by every epoch
  // change), so staleness must drain. Note that a *non-stale* replica
  // may legitimately lag (it simply was not in any recent quorum); only
  // stale ones carry a promise of repair.
  for (uint32_t i = 0; i < sc.nodes; ++i) {
    const auto& store = cluster.node(i).store();
    EXPECT_FALSE(store.stale()) << store.DebugString();
  }

  // A final write + read observe a consistent, fresh object.
  auto wf = cluster.WriteSyncRetry(0, 0, Update::Partial(0, {0xEE}), 10);
  EXPECT_TRUE(wf.ok()) << wf.status().ToString();
  auto rf = cluster.ReadSyncRetry(1, 0, 10);
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  EXPECT_EQ(rf->version, wf->version);
  EXPECT_EQ(rf->data[0], 0xEE);
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> out;
  uint64_t seed = 1;
  for (CoterieKind kind :
       {CoterieKind::kGrid, CoterieKind::kGridUnoptimized,
        CoterieKind::kGridColumnSafe, CoterieKind::kMajority,
        CoterieKind::kTree, CoterieKind::kHierarchical}) {
    for (uint32_t nodes : {5u, 9u, 12u}) {
      out.push_back({seed++, nodes, kind});
    }
  }
  // Extra grid seeds: the headline configuration deserves depth.
  for (uint64_t s = 100; s < 110; ++s) {
    out.push_back({s, 9u, CoterieKind::kGrid});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Churn, RandomizedProtocol, ::testing::ValuesIn(MakeScenarios()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return KindName(info.param.kind) + "_n" +
             std::to_string(info.param.nodes) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dcp::protocol
