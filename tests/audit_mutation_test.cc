// Mutation tests for the end-to-end consistency audit: deliberately
// disable a protocol defense behind a test-only hook
// (ReplicaNodeOptions::MutationHooks), run a seeded fault storm, and
// assert the client-history auditor catches the seeded violation with a
// minimized counterexample. This proves the audit has teeth: each hook
// resurrects a real bug class (reading around in-doubt prepared writes;
// serving stale replicas as current; installing an epoch over state that
// moved after its poll) that the protocol's defenses exist to prevent —
// if the auditor cannot see these, it cannot see a regression either.
//
// The first two scenarios stretch the repair windows the defenses guard
// (background propagation, cooperative termination) far beyond their
// defaults. That is deliberate: with instant repair, a disabled defense
// is often masked within a round-trip or two, and the client-visible
// window shrinks to near nothing. A slow-repair cluster is still a
// legal configuration — the honest control runs below must stay
// linearizable under the exact same knobs.

#include <gtest/gtest.h>

#include <functional>
#include <string>
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

constexpr sim::Time kHorizon = 8000;

struct MutationRun {
  analysis::AuditVerdict verdict;
  uint64_t ops_recorded = 0;
  uint64_t hook_fired = 0;  ///< mutation.* counter for the active hook.
};

/// One seeded adversarial run with the given cluster options and fault
/// schedule, returning the audit verdict over the client-observed
/// history.
MutationRun RunAudited(ClusterOptions opts, uint64_t seed,
                       const Scenario& scenario,
                       const std::string& hook_counter) {
  Cluster cluster(opts);
  Nemesis nemesis(&cluster, scenario);

  analysis::ClientHistory history;
  WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.02;
  wopts.seed = seed + 1000;
  wopts.client_history = &history;
  wopts.op_timeout = 2000;
  WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  nemesis.StopAndHeal();
  cluster.RunFor(12000);  // Heal window; quiescence not asserted — the
                          // mutated protocol forfeits that guarantee.

  analysis::AuditOptions a;
  a.mode = analysis::AuditMode::kLinearizable;
  a.initial_value = opts.initial_value;
  MutationRun run;
  run.verdict = analysis::AuditHistory(history, a);
  run.ops_recorded = history.ops().size();
  run.hook_fired = cluster.metrics().counter(hook_counter)->value();
  return run;
}

/// Scans seeds until the auditor reports a definite violation; returns
/// the seed (0 if none found). Requires the counterexample to be
/// non-empty and minimized on the catch.
uint64_t ScanForCaughtViolation(
    const std::function<ClusterOptions(uint64_t)>& make_opts,
    const std::function<Scenario(uint64_t)>& make_scenario,
    const std::string& hook_counter, uint64_t max_seed,
    std::string* diagnosis) {
  uint64_t windows_seen = 0;
  for (uint64_t seed = 1; seed <= max_seed; ++seed) {
    MutationRun run =
        RunAudited(make_opts(seed), seed, make_scenario(seed), hook_counter);
    EXPECT_GT(run.ops_recorded, 0u);
    windows_seen += run.hook_fired;
    if (!run.verdict.ok && !run.verdict.inconclusive) {
      EXPECT_FALSE(run.verdict.counterexample.empty())
          << "violation without a counterexample: "
          << run.verdict.ToString();
      *diagnosis = run.verdict.ToString();
      return seed;
    }
  }
  // The scan failed. Distinguish "the hook never even fired" (scenario
  // no longer reaches the defense) from "it fired but stayed invisible
  // to clients" (audit lost its teeth) — different bugs.
  ADD_FAILURE() << "no violation caught in " << max_seed
                << " seeds; hook fired " << windows_seen << " times";
  return 0;
}

// --- hook 1: skip RelockStaged on recovery --------------------------------

// Without re-locking staged (prepared-but-undecided) actions on
// recovery, a reader can lock around an in-doubt write and return data a
// globally committed transaction already superseded.
//
// The storm that makes this client-visible: a train of total staged
// crashes (every node holding a prepared action dies mid-commit) against
// a grid coterie. When most or all of a write's participants crash
// between prepare and commit, the acked write survives only in their
// staged WAL entries; with the relock skipped, their recovered replicas
// serve the pre-write state to any read cover that dodges the surviving
// witnesses. Grid covers are 3 nodes, so dodging happens; majority
// quorums (contiguous 5-of-9 arcs) always re-intersect the witnesses,
// which is why this test pins kGrid. Message drops keep participants
// staged long enough (a dropped phase-2 commit leaves the participant
// in-doubt until its termination poll) for the crash train to connect.
TEST(AuditMutations, SkipRelockStagedIsCaught) {
  auto make_opts = [](uint64_t seed) {
    ClusterOptions opts;
    opts.num_nodes = 9;
    opts.coterie = CoterieKind::kGrid;
    opts.seed = seed;
    opts.initial_value = std::vector<uint8_t>(32, 0);
    opts.start_epoch_daemons = false;  // Keep the 3x3 layout fixed.
    opts.fault_model.global.drop = 0.05;
    opts.durability.enabled = true;
    opts.durability.crash.tear_probability = 0.5;
    opts.durability.checkpoint_threshold_bytes = 4096;
    // Slow repair: recovered replicas stay behind, in-doubt actions stay
    // undecided, for thousands of ticks instead of a round-trip.
    opts.node_options.propagation_start_delay = 10000;
    opts.node_options.propagation_retry_delay = 10000;
    opts.node_options.termination_poll_interval = 5000;
    opts.node_options.mutation_hooks.skip_relock_staged = true;
    return opts;
  };
  auto make_scenario = [](uint64_t seed) {
    Scenario sc;
    sc.name = "staged-total-" + std::to_string(seed);
    for (sim::Time t = 300; t < kHorizon * 0.7; t += 700) {
      NemesisEvent ev;
      ev.kind = NemesisEvent::Kind::kStagedCrash;
      ev.at = t + static_cast<sim::Time>(seed % 7) * 13;
      ev.duration = 300;
      ev.crash_count = 9;  // Everyone mid-commit dies.
      sc.events.push_back(ev);
    }
    return sc;
  };
  std::string diagnosis;
  uint64_t caught =
      ScanForCaughtViolation(make_opts, make_scenario,
                             "mutation.relock_skipped",
                             /*max_seed=*/30, &diagnosis);
  ASSERT_NE(caught, 0u)
      << "no seed produced a client-visible violation with RelockStaged "
         "disabled — the audit has no teeth against the relock bug";
  SCOPED_TRACE(diagnosis);

  // Control: the same seed with the defense restored must pass.
  ClusterOptions control = make_opts(caught);
  control.node_options.mutation_hooks.skip_relock_staged = false;
  MutationRun clean = RunAudited(control, caught, make_scenario(caught),
                                 "mutation.relock_skipped");
  EXPECT_TRUE(clean.verdict.ok) << clean.verdict.ToString();
  EXPECT_EQ(clean.hook_fired, 0u);
}

// --- hook 2: serve stale-flagged replicas as current ----------------------

// Lying about the stale flag in read-lock responses lets a read quorum
// whose only witness of the newest write is a stale-flagged replica
// serve old data instead of escalating to a heavy read (or failing).
// Partial-write propagation under partitions and crashes creates stale
// replicas constantly; slowing background propagation keeps them stale
// long enough for reads to trip over them, so random nemesis storms
// produce a stale read the auditor catches.
TEST(AuditMutations, ServeStaleReadsIsCaught) {
  auto make_opts = [](uint64_t seed) {
    ClusterOptions opts;
    opts.num_nodes = 9;
    opts.coterie = CoterieKind::kMajority;
    opts.seed = seed;
    opts.initial_value = std::vector<uint8_t>(32, 0);
    opts.start_epoch_daemons = true;
    opts.epoch_check_interval = 300;
    opts.fault_model.global.drop = 0.05;
    opts.fault_model.global.duplicate = 0.05;
    opts.fault_model.global.reorder = 0.10;
    opts.fault_model.global.reorder_spike = 20.0;
    // Slow repair: a replica marked stale stays stale instead of being
    // caught up within a propagation round-trip.
    opts.node_options.propagation_start_delay = 2000;
    opts.node_options.propagation_retry_delay = 2000;
    opts.node_options.mutation_hooks.serve_stale_reads = true;
    return opts;
  };
  auto make_scenario = [](uint64_t seed) {
    return RandomScenario(seed * 7919 + 13, 9, kHorizon);
  };
  std::string diagnosis;
  uint64_t caught =
      ScanForCaughtViolation(make_opts, make_scenario,
                             "mutation.stale_lied",
                             /*max_seed=*/20, &diagnosis);
  ASSERT_NE(caught, 0u)
      << "no seed produced a client-visible violation with the stale flag "
         "suppressed — the audit has no teeth against stale reads";
  SCOPED_TRACE(diagnosis);

  ClusterOptions control = make_opts(caught);
  control.node_options.mutation_hooks.serve_stale_reads = false;
  MutationRun clean = RunAudited(control, caught, make_scenario(caught),
                                 "mutation.stale_lied");
  EXPECT_TRUE(clean.verdict.ok) << clean.verdict.ToString();
  EXPECT_EQ(clean.hook_fired, 0u);
}

// --- hook 3: install epochs over state that moved since the poll ---------

// The epoch check polls without a lock and locks at prepare. Without the
// prepare's polled-state check, a write that commits in between is
// invisible to the analysis: the new epoch counts replicas still at the
// older version (a recovered durable node among them) as current and
// marks the new version's replicas stale for the older one, so a read
// quorum of the new epoch can miss an acknowledged write. The audited
// daemon-on durable churn sweep (epoch_churn_audit_test) must catch it
// on its own configurations and seeds.
TEST(AuditMutations, SkipEpochStateCheckIsCaught) {
  constexpr sim::Time kChurnHorizon = 300000;
  // Group mode exercises the group check; rf 9 the scoped check.
  for (uint32_t replication_factor : {0u, 9u}) {
    SCOPED_TRACE("replication_factor " + std::to_string(replication_factor));
    uint64_t caught = 0;
    uint64_t skipped = 0;
    for (uint64_t seed = epoch_churn::kFirstSeed;
         seed <= epoch_churn::kLastSeed && caught == 0; ++seed) {
      protocol::ClusterOptions opts =
          epoch_churn::Options(seed, replication_factor);
      opts.node_options.mutation_hooks.skip_epoch_state_check = true;
      epoch_churn::RunResult run = epoch_churn::Run(
          opts, seed, kChurnHorizon,
          epoch_churn::SiteModelOutages(seed, 9, kChurnHorizon));
      skipped += run.epoch_checks_skipped;
      if (!run.verdict.ok && !run.verdict.inconclusive) {
        EXPECT_FALSE(run.verdict.counterexample.empty())
            << run.verdict.ToString();
        EXPECT_GT(run.epoch_checks_skipped, 0u);
        caught = seed;
      }
    }
    // The control is the sweep itself: the same seeds with the check on.
    EXPECT_NE(caught, 0u)
        << "the churn sweep caught no violation with the epoch state check "
           "skipped; the hook let "
        << skipped << " installs through";
  }
}

}  // namespace
}  // namespace dcp::harness
