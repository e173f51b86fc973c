// Partition demo: shows the uniqueness guarantee of epochs (Lemma 1) —
// when the network splits, at most one partition can keep the data item
// alive, and after healing the minority is re-admitted and caught up.
//
// Also runs the background epoch daemons (whichever node has heard no
// higher-ranked node's epoch poll for a while runs the checks), so epoch
// changes happen autonomously rather than by explicit CheckEpoch calls.
//
// Act two goes beyond the paper's fail-stop model: a message-chaos window
// (10% drop + duplication + reordering on every link) plus an asymmetric
// one-way link cut, driven through the cluster's nemesis knobs. Writes
// ride out the chaos on retries, and the invariants still hold.
//
// With --durability the demo instead runs the storage-engine act: every
// node gets a simulated disk + write-ahead log, a coordinator is crashed
// mid-2PC (after staging, before the outcome is decided), and recovery
// replays the log — committed versions come back from redo records, the
// in-doubt staged transaction comes back locked, and cooperative
// termination with the surviving peers resolves it.
//
//   ./build/examples/partition_demo [--durability]

#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "protocol/cluster.h"

namespace {

void PrintEpochs(dcp::protocol::Cluster& cluster) {
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    const auto& store = cluster.node(i).store();
    std::printf("  node %u: epoch %llu %s%s%s\n", i,
                static_cast<unsigned long long>(store.epoch_number()),
                store.epoch_list().ToString().c_str(),
                store.stale() ? " STALE" : "",
                cluster.network().IsUp(i) ? "" : " (down)");
  }
}

int DurabilityAct() {
  using namespace dcp;
  using namespace dcp::protocol;

  ClusterOptions options;
  options.num_nodes = 5;
  options.coterie = CoterieKind::kMajority;
  options.seed = 7;
  options.initial_value = {'v', '0'};
  options.durability.enabled = true;
  Cluster cluster(options);

  std::printf("5 nodes, majority coterie, durability ON: each node logs to "
              "a WAL\non a simulated disk and acks only after fsync\n\n");

  for (int i = 1; i <= 2; ++i) {
    auto w = cluster.WriteSyncRetry(
        0, 0, Update::Partial(1, {static_cast<uint8_t>('0' + i)}), 10);
    std::printf("write %d: %s (v%llu)\n", i,
                w.ok() ? "committed" : w.status().ToString().c_str(),
                w.ok() ? static_cast<unsigned long long>(w->version) : 0ULL);
  }
  std::printf("WAL records so far (cluster-wide): %llu\n",
              static_cast<unsigned long long>(
                  cluster.metrics().counter("wal.records")->value()));

  // An in-flight write coordinated by node 0. A poller crashes node 0
  // the moment its own staged record exists: mid-2PC, after the prepare
  // is durable but before any outcome is decided — the classic in-doubt
  // window.
  std::printf("\n== write from node 0; crash the coordinator mid-2PC ==\n");
  bool acked = false;
  cluster.Write(0, Update::Partial(0, {'X'}),
                [&](Result<WriteOutcome>) { acked = true; });
  std::function<void()> maybe_crash = [&] {
    auto& wal = cluster.node(0).durable_store()->wal();
    // Staged AND fully synced: the prepare's redo record survived the
    // platter, so recovery below must find the in-doubt transaction.
    if (cluster.node(0).has_staged_transaction() &&
        wal.durable_end_lsn() == wal.end_lsn()) {
      std::printf("t=%.2f: node 0 has a durable staged action -> CRASH\n",
                  cluster.simulator().Now());
      cluster.Crash(0);
      return;
    }
    cluster.simulator().Schedule(0.25, maybe_crash);
  };
  cluster.simulator().Schedule(0.25, maybe_crash);
  cluster.RunFor(500);
  std::printf("coordinator ack ever delivered: %s (died with the node)\n",
              acked ? "yes (unexpected)" : "no");

  std::printf("\n== recovering node 0 from its disk ==\n");
  cluster.Recover(0);
  const auto& rec = cluster.node(0).durable_store()->last_recovery();
  const auto& store = cluster.node(0).store();
  std::printf("replayed %llu redo records (%s checkpoint, %llu torn bytes "
              "trimmed)\n",
              static_cast<unsigned long long>(rec.replayed_records),
              rec.from_checkpoint ? "from" : "no",
              static_cast<unsigned long long>(rec.torn_bytes));
  std::printf("state after replay: v%llu%s, in-doubt staged txn: %s "
              "(footprint re-locked)\n",
              static_cast<unsigned long long>(store.version()),
              store.stale() ? " STALE" : "",
              cluster.node(0).has_staged_transaction() ? "yes" : "no");

  // Cooperative termination with the surviving peers resolves the
  // in-doubt transaction; then the cluster is fully writable again.
  cluster.RunFor(3000);
  std::printf("\nafter termination: v%llu, staged txn pending: %s\n",
              static_cast<unsigned long long>(
                  cluster.node(0).store().version()),
              cluster.node(0).has_staged_transaction() ? "yes" : "no");

  auto w = cluster.WriteSyncRetry(0, 0, Update::Partial(1, {'z'}), 10);
  auto r = cluster.ReadSyncRetry(0, 0, 10);
  std::printf("post-recovery write: %s, read: v%llu\n",
              w.ok() ? "committed" : w.status().ToString().c_str(),
              r.ok() ? static_cast<unsigned long long>(r->version) : 0ULL);
  std::printf("disk crashes: %llu, recoveries: %llu, recovered records: "
              "%llu\n",
              static_cast<unsigned long long>(
                  cluster.metrics().counter("disk.crashes")->value()),
              static_cast<unsigned long long>(
                  cluster.metrics().counter("store.recoveries")->value()),
              static_cast<unsigned long long>(
                  cluster.metrics().counter("store.recovered_records")
                      ->value()));

  Status lemma1 = cluster.CheckEpochInvariants();
  Status history = cluster.CheckHistory();
  Status replicas = cluster.CheckReplicaConsistency();
  std::printf("\nLemma 1 invariants: %s\nreplica consistency: %s\n"
              "history check:      %s\n",
              lemma1.ToString().c_str(), replicas.ToString().c_str(),
              history.ToString().c_str());
  return lemma1.ok() && history.ok() && replicas.ok() && w.ok() && r.ok() &&
                 !cluster.node(0).has_staged_transaction()
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcp;
  using namespace dcp::protocol;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--durability") == 0) return DurabilityAct();
  }

  ClusterOptions options;
  options.num_nodes = 9;
  options.coterie = CoterieKind::kGrid;
  options.seed = 321;
  options.initial_value = {'v', '0'};
  options.start_epoch_daemons = true;  // Autonomous epoch management.
  options.epoch_check_interval = 300;
  Cluster cluster(options);

  std::printf("9 nodes, grid coterie, background epoch daemons "
              "(check interval 300)\n\n");

  auto w0 = cluster.WriteSyncRetry(0, 0, Update::Partial(1, {'1'}), 10);
  std::printf("pre-partition write: %s\n",
              w0.ok() ? "committed" : w0.status().ToString().c_str());

  // Partition: {0,1,2,3,6} holds a full grid column {0,3,6} plus reps of
  // columns 1 and 2 -> it is a write quorum and survives. {4,5,7,8} is
  // not a quorum of the 3x3 grid.
  std::printf("\n== partitioning into {0,1,2,3,6} | {4,5,7,8} ==\n");
  cluster.Partition({NodeSet({0, 1, 2, 3, 6}), NodeSet({4, 5, 7, 8})});

  // Let the daemons notice and re-form the epoch on the quorum side.
  cluster.RunFor(2500);
  PrintEpochs(cluster);

  auto w_major = cluster.WriteSyncRetry(0, 0, Update::Partial(1, {'2'}), 10);
  auto w_minor = cluster.WriteSync(4, Update::Partial(1, {'X'}));
  std::printf("\nwrite on quorum side (node 0): %s\n",
              w_major.ok() ? "committed" : w_major.status().ToString().c_str());
  std::printf("write on minority side (node 4): %s\n",
              w_minor.ok() ? "committed (BUG!)"
                           : w_minor.status().ToString().c_str());

  // Heal. The daemons re-admit the minority, mark its replicas stale,
  // and propagation catches them up.
  std::printf("\n== healing the partition ==\n");
  cluster.Heal();
  cluster.RunFor(4000);
  PrintEpochs(cluster);

  auto r = cluster.ReadSyncRetry(4, 0, 10);
  std::printf("\nread from ex-minority node 4: %s v%llu\n",
              r.ok() ? "ok" : r.status().ToString().c_str(),
              r.ok() ? static_cast<unsigned long long>(r->version) : 0ULL);

  // Act two: message-level chaos the paper's model cannot express. Every
  // link drops, duplicates, and reorders messages; additionally node 0's
  // messages to node 4 vanish one-way (4 can still reach 0).
  std::printf("\n== message chaos: 10%% drop+dup, 20%% reorder, "
              "one-way cut 0->4 ==\n");
  dcp::net::LinkFaults chaos;
  chaos.drop = 0.10;
  chaos.duplicate = 0.10;
  chaos.reorder = 0.20;
  cluster.SetGlobalFaults(chaos);
  cluster.CutLink(0, 4);
  std::printf("reachable 0->4: %s, 4->0: %s (asymmetric)\n",
              cluster.network().Reachable(0, 4) ? "yes" : "no",
              cluster.network().Reachable(4, 0) ? "yes" : "no");

  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    // A dropped prepare aborts the write's 2PC. An abort is a definite
    // failure (nothing was applied), so the client may simply try again.
    auto w = cluster.WriteSyncRetry(
        0, 0, Update::Partial(2, {static_cast<uint8_t>('a' + i)}), 20);
    for (int retry = 0; retry < 4 && w.status().IsAborted(); ++retry) {
      w = cluster.WriteSyncRetry(
          0, 0, Update::Partial(2, {static_cast<uint8_t>('a' + i)}), 20);
    }
    if (w.ok()) ++committed;
  }
  const auto& nstats = cluster.network().stats();
  std::printf("10 writes through the chaos: %d committed "
              "(dropped %llu, duplicated %llu, reordered %llu messages)\n",
              committed,
              static_cast<unsigned long long>(nstats.total_dropped),
              static_cast<unsigned long long>(nstats.total_duplicated),
              static_cast<unsigned long long>(nstats.total_reordered));

  std::printf("\n== lifting message faults ==\n");
  cluster.ClearNetworkFaults();
  cluster.RunFor(4000);  // Let propagation and epoch daemons settle.

  Status lemma1 = cluster.CheckEpochInvariants();
  Status history = cluster.CheckHistory();
  Status replicas = cluster.CheckReplicaConsistency();
  std::printf("\nLemma 1 invariants: %s\nreplica consistency: %s\n"
              "history check:      %s\n",
              lemma1.ToString().c_str(), replicas.ToString().c_str(),
              history.ToString().c_str());
  return lemma1.ok() && history.ok() && replicas.ok() && !w_minor.ok() &&
                 committed > 0
             ? 0
             : 1;
}
