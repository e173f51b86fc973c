// Lock-conflict policies (the paper defers deadlock handling to [2]):
// refuse-and-retry (default) vs wound-wait. Both are deadlock-free;
// wound-wait additionally guarantees the oldest operation never starves.

#include <gtest/gtest.h>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions Options(LockPolicy policy) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = 71;
  opts.initial_value = {0};
  opts.node_options.lock_policy = policy;
  opts.latency = net::LatencyModel{1.0, 0.0};
  return opts;
}

TEST(WoundWait, OlderOperationWoundsYoungerHolder) {
  Cluster cluster(Options(LockPolicy::kWoundWait));
  // The YOUNGER operation grabs locks first; then an OLDER one (earlier
  // start time) arrives and must wound it. Simulate by sending raw lock
  // requests with explicit seniority.
  auto lock = [&](NodeId node, storage::LockOwner owner,
                  sim::Time started) {
    auto req = std::make_shared<LockRequest>();
    req->owner = owner;
    req->mode = LockMode::kExclusive;
    req->op_started = started;
    return cluster.node(node).HandleRequest(owner.coordinator, msg::kLock,
                                            req);
  };
  cluster.RunFor(100);  // Now = 100.
  storage::LockOwner young{1, 10};
  storage::LockOwner old{2, 11};
  ASSERT_TRUE(lock(5, young, 90).ok());   // Young op (started later)...
  // ...wait: started 90 < 95? Seniority = smaller start time. Make the
  // "young" one start at 95 and the "old" one at 90.
  cluster.node(5).store().Unlock(young);
  ASSERT_TRUE(lock(5, young, 95).ok());
  // Older operation (started 90) wounds the younger holder.
  EXPECT_TRUE(lock(5, old, 90).ok());
  EXPECT_TRUE(cluster.node(5).store().HoldsLock(old));
  EXPECT_FALSE(cluster.node(5).store().HoldsLock(young));
}

TEST(WoundWait, YoungerRequesterIsRefused) {
  Cluster cluster(Options(LockPolicy::kWoundWait));
  cluster.RunFor(100);
  auto lock = [&](NodeId node, storage::LockOwner owner,
                  sim::Time started) {
    auto req = std::make_shared<LockRequest>();
    req->owner = owner;
    req->mode = LockMode::kExclusive;
    req->op_started = started;
    return cluster.node(node).HandleRequest(owner.coordinator, msg::kLock,
                                            req);
  };
  storage::LockOwner old{1, 10};
  storage::LockOwner young{2, 11};
  ASSERT_TRUE(lock(5, old, 90).ok());
  auto refused = lock(5, young, 95);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsConflict());
  EXPECT_TRUE(cluster.node(5).store().HoldsLock(old));
}

TEST(WoundWait, StagedHoldersAreNeverWounded) {
  Cluster cluster(Options(LockPolicy::kWoundWait));
  cluster.RunFor(100);
  // Stage a transaction at node 5 (prepared = committing; untouchable).
  storage::LockOwner committing{1, 10};
  auto lock_req = std::make_shared<LockRequest>();
  lock_req->owner = committing;
  lock_req->mode = LockMode::kExclusive;
  lock_req->op_started = 95;
  ASSERT_TRUE(cluster.node(5).HandleRequest(1, msg::kLock, lock_req).ok());
  auto prepare = std::make_shared<PrepareRequest>();
  prepare->owner = committing;
  ObjectAction act;
  act.mark_stale = true;
  act.desired_version = 5;
  prepare->action.objects.push_back(act);
  prepare->participants = NodeSet({5});
  ASSERT_TRUE(cluster.node(5).HandleRequest(1, msg::kPrepare, prepare).ok());

  // An older operation cannot wound it.
  auto older = std::make_shared<LockRequest>();
  older->owner = storage::LockOwner{2, 11};
  older->mode = LockMode::kExclusive;
  older->op_started = 50;
  auto refused = cluster.node(5).HandleRequest(2, msg::kLock, older);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(cluster.node(5).store().HoldsLock(committing));
}

TEST(WoundWait, EndToEndContentionStillSerializable) {
  // Many concurrent writers under wound-wait: everything must stay 1SR
  // and the replicas consistent.
  Cluster cluster(Options(LockPolicy::kWoundWait));
  int done = 0, committed = 0;
  for (int i = 0; i < 20; ++i) {
    cluster.simulator().Schedule(i * 2.0, [&cluster, &done, &committed, i] {
      cluster.Write(static_cast<NodeId>(i % 9), Update::Partial(0, {uint8_t(i)}),
                    [&](Result<WriteOutcome> r) {
                      ++done;
                      if (r.ok()) ++committed;
                    });
    });
  }
  while (done < 20 && cluster.simulator().Step()) {
  }
  cluster.RunFor(5000);
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_TRUE(cluster.CheckHistory().ok()) << cluster.CheckHistory().ToString();
  EXPECT_TRUE(cluster.CheckReplicaConsistency().ok());
}

TEST(WoundWait, WoundedWriterRetriesAndSucceeds) {
  // A wounded coordinator's 2PC prepare fails (its lock is gone); the
  // retry machinery must recover, end-to-end.
  Cluster cluster(Options(LockPolicy::kWoundWait));
  int committed = 0;
  int done = 0;
  // Two writes racing on overlapping quorums, staggered so the second
  // (younger) acquires some locks before the older one's requests land.
  for (NodeId coord : {0, 4}) {
    cluster.simulator().Schedule(coord == 0 ? 0.0 : 0.1,
                                 [&cluster, &done, &committed, coord] {
      cluster.Write(coord, Update::Partial(0, {uint8_t(coord)}),
                    [&](Result<WriteOutcome> r) {
                      ++done;
                      if (r.ok()) ++committed;
                    });
    });
  }
  while (done < 2 && cluster.simulator().Step()) {
  }
  EXPECT_GE(committed, 1);
  // Whoever failed can retry and succeed now.
  auto w = cluster.WriteSyncRetry(7, 0, Update::Partial(0, {99}), 10);
  EXPECT_TRUE(w.ok());
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

TEST(RefusePolicy, IgnoresSeniority) {
  Cluster cluster(Options(LockPolicy::kRefuse));
  cluster.RunFor(100);
  auto lock = [&](NodeId node, storage::LockOwner owner,
                  sim::Time started) {
    auto req = std::make_shared<LockRequest>();
    req->owner = owner;
    req->mode = LockMode::kExclusive;
    req->op_started = started;
    return cluster.node(node).HandleRequest(owner.coordinator, msg::kLock,
                                            req);
  };
  storage::LockOwner young{1, 10};
  ASSERT_TRUE(lock(5, young, 95).ok());
  // Even a much older requester is refused under kRefuse.
  auto refused = lock(5, storage::LockOwner{2, 11}, 1);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(cluster.node(5).store().HoldsLock(young));
}

}  // namespace
}  // namespace dcp::protocol
