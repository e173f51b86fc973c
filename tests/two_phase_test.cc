#include "protocol/two_phase.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "protocol/cluster.h"

namespace dcp::protocol {
namespace {

ClusterOptions Options() {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.coterie = CoterieKind::kMajority;
  opts.seed = 11;
  opts.initial_value = {0};
  // Deterministic timing so crash points hit exact protocol phases:
  // prepare delivered t=1, prepare acks t=2 (= decision), commits t=3.
  opts.latency = net::LatencyModel{1.0, 0.0};
  return opts;
}

StagedAction MarkStaleAction(Version dv) {
  ObjectAction obj;
  obj.mark_stale = true;
  obj.desired_version = dv;
  StagedAction act;
  act.objects.push_back(std::move(obj));
  return act;
}

TEST(TwoPhase, CommitAppliesEverywhere) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(7);

  Status result = Status::Internal("unset");
  TxOutcome decided = TxOutcome::kUnknown;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](TxOutcome o) { decided = o; },
                      [&](Status s) { result = s; });
  cluster.simulator().Run();

  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(decided, TxOutcome::kCommitted);
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(cluster.node(n).store().stale());
    EXPECT_EQ(cluster.node(n).store().desired_version(), 7u);
    EXPECT_FALSE(cluster.node(n).store().IsLocked());
    EXPECT_EQ(cluster.node(n).LookupOutcome(tx), TxOutcome::kCommitted);
  }
  EXPECT_EQ(cluster.node(0).LookupOutcome(tx), TxOutcome::kCommitted);
}

TEST(TwoPhase, PrepareFailureAbortsEverywhere) {
  Cluster cluster(Options());
  cluster.Crash(3);  // One participant unreachable.
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(7);

  Status result;
  TxOutcome decided = TxOutcome::kUnknown;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](TxOutcome o) { decided = o; },
                      [&](Status s) { result = s; });
  cluster.simulator().Run();

  EXPECT_TRUE(result.IsAborted()) << result.ToString();
  EXPECT_EQ(decided, TxOutcome::kAborted);
  for (NodeId n = 1; n <= 2; ++n) {
    EXPECT_FALSE(cluster.node(n).store().stale());
    EXPECT_FALSE(cluster.node(n).store().IsLocked());
    EXPECT_EQ(cluster.node(n).LookupOutcome(tx), TxOutcome::kAborted);
  }
}

TEST(TwoPhase, ConflictingPreparesAbort) {
  Cluster cluster(Options());
  // Node 2 is locked by a foreign operation that is staged (never
  // expires), so prepare must fail there.
  LockOwner blocker{4, 999};
  ASSERT_TRUE(cluster.node(2).store().Lock(blocker, true).ok());
  auto blocker_prepare = std::make_shared<PrepareRequest>();
  blocker_prepare->owner = blocker;
  blocker_prepare->action = MarkStaleAction(1);
  blocker_prepare->participants = NodeSet({2, 4});
  ASSERT_TRUE(
      cluster.node(2).HandleRequest(4, msg::kPrepare, blocker_prepare).ok());

  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 2; ++n) actions[n] = MarkStaleAction(7);
  Status result;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions, nullptr,
                      [&](Status s) { result = s; });
  // Run bounded: the blocker's termination protocol polls forever.
  cluster.RunFor(2000);

  EXPECT_TRUE(result.IsAborted());
  EXPECT_FALSE(cluster.node(1).store().stale());
}

TEST(TwoPhase, ParticipantCrashAfterPrepareRecoversAndLearnsOutcome) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);

  // Crash node 2 after it prepared and acked (t=2) but before the commit
  // arrives (t=3).
  cluster.simulator().Schedule(2.5, [&] { cluster.Crash(2); });
  Status result;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions, nullptr,
                      [&](Status s) { result = s; });
  cluster.RunFor(500);
  EXPECT_TRUE(result.ok()) << result.ToString();  // Commit was decided.
  EXPECT_FALSE(cluster.node(2).store().stale());  // Missed the commit.

  // On recovery, cooperative termination asks the coordinator and
  // applies the commit (the staged action is persistent).
  cluster.Recover(2);
  cluster.RunFor(500);
  EXPECT_TRUE(cluster.node(2).store().stale());
  EXPECT_EQ(cluster.node(2).store().desired_version(), 9u);
  EXPECT_TRUE(cluster.Quiescent());
}

TEST(TwoPhase, CoordinatorCrashBeforeDecisionPresumesAbort) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);

  // Crash the coordinator while prepares are in flight (before acks
  // return at ~2 time units).
  cluster.simulator().Schedule(1.6, [&] { cluster.Crash(0); });
  bool fired = false;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions, nullptr,
                      [&](Status) { fired = true; });
  cluster.RunFor(100);
  EXPECT_FALSE(fired);  // The dead coordinator never resolves.
  // Participants are prepared and blocked.
  EXPECT_FALSE(cluster.Quiescent());

  // Recover the coordinator: it has no decision record and is not
  // deciding, so termination resolves to presumed abort.
  cluster.Recover(0);
  cluster.RunFor(1000);
  EXPECT_TRUE(cluster.Quiescent());
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_FALSE(cluster.node(n).store().stale());
    EXPECT_FALSE(cluster.node(n).store().IsLocked());
    EXPECT_GT(cluster.node(n).stats().presumed_aborts +
                  cluster.node(n).stats().aborts,
              0u);
  }
}

TEST(TwoPhase, CoordinatorCrashAfterDecisionCommitsViaTermination) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);

  TxOutcome decided = TxOutcome::kUnknown;
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions,
                      [&](TxOutcome o) {
                        decided = o;
                        // Crash the instant the decision is logged —
                        // before any commit message is delivered.
                        cluster.Crash(0);
                      },
                      [&](Status) {});
  cluster.RunFor(200);
  EXPECT_EQ(decided, TxOutcome::kCommitted);
  EXPECT_FALSE(cluster.Quiescent());  // Blocked on the dead coordinator.

  cluster.Recover(0);
  cluster.RunFor(1000);
  EXPECT_TRUE(cluster.Quiescent());
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(cluster.node(n).store().stale())
        << "node " << n << " lost a decided commit";
  }
}

TEST(TwoPhase, PeersResolveWhenCoordinatorStaysDown) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);

  // Prepares ack at t=2 (decision); commits are delivered at t=3. Crash
  // node 3 AND the coordinator at t=2.5: the commits (already on the
  // wire) still reach nodes 1 and 2, but node 3 misses its copy. Node 3
  // recovers while the coordinator stays down, so it must learn the
  // outcome from its PEERS.
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions, nullptr,
                      [&](Status) {});
  cluster.simulator().Schedule(2.5, [&] {
    cluster.Crash(3);
    cluster.Crash(0);
  });
  cluster.RunFor(200);
  cluster.Recover(3);  // Coordinator stays down.
  cluster.RunFor(2000);
  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_TRUE(cluster.node(3).store().stale())
      << "node 3 should learn the commit from peers 1/2";
}

TEST(TwoPhase, LateCommitAfterPropagationCatchUpIsSubsumed) {
  // Regression test for a real bug: a participant staged a do-update,
  // crashed through the commit, was re-admitted and caught up PAST the
  // transaction's target version by propagation (whose source had
  // already applied that very update), and then cooperative termination
  // delivered the commit — which must be recognized as subsumed, not
  // re-applied (re-applying minted a phantom version with out-of-order
  // contents).
  Cluster cluster(Options());

  // Everyone starts at v1 (scripted; equivalent to a committed write).
  for (NodeId n = 0; n < 5; ++n) {
    cluster.node(n).store().object().Apply(
        storage::Update::Partial(0, {1}));
  }

  // W2 (-> v2): a 2PC from node 0 applying at {1,2,3}. Node 3 crashes
  // after acking its prepare (t=2) but before the commit lands (t=3).
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  std::map<NodeId, StagedAction> actions;
  for (NodeId n = 1; n <= 3; ++n) {
    ObjectAction obj;
    obj.apply_update = true;
    obj.update = storage::Update::Partial(1, {2});
    obj.update_target_version = 2;
    StagedAction act;
    act.objects.push_back(std::move(obj));
    actions[n] = std::move(act);
  }
  Status w2_status = Status::Internal("unset");
  TwoPhaseCommit::Run(&cluster.node(0), tx, actions, nullptr,
                      [&](Status s) { w2_status = s; });
  cluster.simulator().Schedule(2.5, [&] { cluster.Crash(3); });
  cluster.RunFor(300);
  ASSERT_TRUE(w2_status.ok());  // Committed; nodes 1,2 applied v2.
  ASSERT_EQ(cluster.node(1).store().version(), 2u);
  ASSERT_TRUE(cluster.node(3).has_staged_transaction());
  ASSERT_EQ(cluster.node(3).store().version(), 1u);

  // The object moves on: v3 lands on nodes 1 and 2 (scripted). Node 3
  // (still down, still staged) is marked stale for v3, and node 1 is
  // given the propagation duty — exactly what a later write + epoch
  // change would do.
  cluster.node(1).store().object().Apply(storage::Update::Partial(0, {3}));
  cluster.node(2).store().object().Apply(storage::Update::Partial(0, {3}));
  cluster.node(3).store().MarkStale(3);
  cluster.node(1).AddPropagationTargets(0, NodeSet({3}));

  // Recovery: propagation catches node 3 up to v3 (which INCLUDES W2's
  // effect) before/while cooperative termination resolves the staged W2
  // as committed. The late commit must be subsumed, not re-applied.
  cluster.Recover(3);
  cluster.RunFor(5000);

  EXPECT_TRUE(cluster.Quiescent());
  EXPECT_FALSE(cluster.node(3).store().stale());
  // The phantom would show as v4 with W2's patch re-applied on top.
  EXPECT_EQ(cluster.node(3).store().version(), 3u)
      << cluster.node(3).store().DebugString();
  EXPECT_EQ(cluster.node(3).store().object().data(),
            cluster.node(1).store().object().data());
  EXPECT_EQ(cluster.node(3).LookupOutcome(tx), TxOutcome::kCommitted);
}

TEST(TwoPhase, EmptyParticipantSetCommitsTrivially) {
  Cluster cluster(Options());
  LockOwner tx{0, cluster.node(0).NextOperationId()};
  Status result = Status::Internal("unset");
  TwoPhaseCommit::Run(&cluster.node(0), tx, {}, nullptr,
                      [&](Status s) { result = s; });
  cluster.simulator().Run();
  EXPECT_TRUE(result.ok());
}

TEST(TwoPhase, CoordinatorCrashInsideOnDecideNeverCallsDone) {
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durability on" : "durability off");
    ClusterOptions opts = Options();
    opts.durability.enabled = durable;
    Cluster cluster(opts);
    LockOwner tx{0, cluster.node(0).NextOperationId()};
    std::map<NodeId, StagedAction> actions;
    for (NodeId n = 1; n <= 3; ++n) actions[n] = MarkStaleAction(9);

    bool fired = false;
    TwoPhaseCommit::Run(
        &cluster.node(0), tx, actions,
        [&](TxOutcome o) {
          EXPECT_EQ(o, TxOutcome::kCommitted);
          cluster.Crash(0);
        },
        [&](Status) { fired = true; });
    cluster.RunFor(200);
    EXPECT_FALSE(fired) << "a crashed coordinator answered its client";

    cluster.Recover(0);
    cluster.RunFor(1000);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(cluster.Quiescent());
    for (NodeId n = 1; n <= 3; ++n) {
      EXPECT_TRUE(cluster.node(n).store().stale());
    }
  }
}

// --- a write is acknowledged at its durable commit decision ---------------

class EarlyAck : public ::testing::TestWithParam<bool> {
 protected:
  ClusterOptions DurabilityOptions() const {
    ClusterOptions opts = Options();
    opts.durability.enabled = GetParam();
    return opts;
  }
};

// The coordinator dies the instant its client sees the ack, and its
// outgoing links are cut so that no commit already on the wire lands:
// the write lives on only in the coordinator's decision record and in
// its participants' staged actions. Reads meanwhile conflict with the
// staged locks, and once the coordinator is back, termination commits
// the write.
TEST_P(EarlyAck, AckedWriteSurvivesCoordinatorCrashBeforeAnyCommit) {
  Cluster cluster(DurabilityOptions());
  bool fired = false;
  Result<WriteOutcome> ack = Status::Internal("unset");
  cluster.Write(0, 0, Update::Total({42}), [&](Result<WriteOutcome> r) {
    fired = true;
    ack = r;
    for (NodeId n = 1; n < cluster.num_nodes(); ++n) cluster.CutLink(0, n);
    cluster.Crash(0);
  });
  while (!fired && cluster.simulator().Step()) {
  }
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->version, 1u);

  cluster.RunFor(200);
  EXPECT_FALSE(cluster.Quiescent());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.node(n).store().version(), 0u)
        << "node " << n << " applied a commit that was never delivered";
  }
  for (NodeId reader = 1; reader < cluster.num_nodes(); ++reader) {
    auto r = cluster.ReadSync(reader);
    EXPECT_TRUE(r.status().IsConflict()) << r.status().ToString();
  }

  for (NodeId n = 1; n < cluster.num_nodes(); ++n) cluster.RestoreLink(0, n);
  cluster.Recover(0);
  cluster.RunFor(1000);
  EXPECT_TRUE(cluster.Quiescent());
  auto r = cluster.ReadSyncRetry(3, 0, 10);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 1u);
  EXPECT_EQ(r->data, std::vector<uint8_t>{42});
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

// Coordinator 0's outgoing links, its link to itself included, are slow
// (50 units a hop), so its commit reaches the participants long after its
// client has the ack. Reads from other coordinators, started after the
// ack and retried until the commit has landed, see the new version or a
// lock conflict, never the old version.
TEST_P(EarlyAck, ReadsAfterTheAckNeverSeeTheOldVersion) {
  Cluster cluster(DurabilityOptions());
  net::LinkFaults slow;
  slow.latency = net::LatencyModel{50.0, 0.0};
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    cluster.InjectLinkFault(0, n, slow);
  }
  bool fired = false;
  cluster.Write(0, 0, Update::Total({7}), [&](Result<WriteOutcome> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    fired = true;
  });
  while (!fired && cluster.simulator().Step()) {
  }
  ASSERT_TRUE(fired);
  EXPECT_FALSE(cluster.Quiescent()) << "the commit should still be in flight";

  int conflicts = 0;
  int fresh = 0;
  for (int i = 0; fresh == 0 && i < 40; ++i) {
    auto r = cluster.ReadSync(static_cast<NodeId>(1 + i % 4));
    if (r.ok()) {
      EXPECT_EQ(r->version, 1u) << "read the pre-write version after the ack";
      EXPECT_EQ(r->data, std::vector<uint8_t>{7});
      ++fresh;
    } else {
      EXPECT_TRUE(r.status().IsConflict()) << r.status().ToString();
      ++conflicts;
      cluster.RunFor(5);
    }
  }
  EXPECT_GT(conflicts, 0) << "no read started inside the commit window";
  EXPECT_EQ(fresh, 1);
  EXPECT_TRUE(cluster.CheckHistory().ok());
}

INSTANTIATE_TEST_SUITE_P(BothPersistenceModels, EarlyAck,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DurabilityOn"
                                             : "DurabilityOff";
                         });

}  // namespace
}  // namespace dcp::protocol
