// A small replicated "file server": several files live on the same
// 9-node replica group and share a single epoch (Section 2's group
// epoch management). Clients on different nodes patch different files
// concurrently, a node crashes and recovers mid-workload, and the
// background epoch daemons keep the group healthy — with ONE epoch
// stream for all files, not one per file.
//
//   ./build/examples/file_server

#include <cstdio>
#include <string>
#include <vector>

#include "protocol/cluster.h"

namespace {

constexpr uint32_t kFiles = 6;
constexpr uint32_t kNodes = 9;

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

}  // namespace

int main() {
  using namespace dcp;
  using namespace dcp::protocol;

  ClusterOptions options;
  options.num_nodes = kNodes;
  options.num_objects = kFiles;
  options.coterie = CoterieKind::kGrid;
  options.seed = 7;
  options.initial_value = Bytes("................................");
  options.start_epoch_daemons = true;
  options.epoch_check_interval = 250;
  Cluster cluster(options);

  std::printf("file server: %u files on %u nodes, one shared epoch, "
              "epoch daemons on\n\n", kFiles, kNodes);

  // Concurrent-ish workload: each client appends its tag to "its" file,
  // then cross-writes another file.
  int commits = 0;
  for (int round = 0; round < 4; ++round) {
    for (storage::ObjectId file = 0; file < kFiles; ++file) {
      NodeId client = static_cast<NodeId>((file + round) % kNodes);
      if (!cluster.network().IsUp(client)) continue;
      auto w = cluster.WriteSyncRetry(
          client, file,
          Update::Partial(static_cast<uint64_t>(round) * 4,
                          Bytes("r" + std::to_string(round) + "f" +
                                std::to_string(file))),
          10);
      if (w.ok()) ++commits;
    }
    if (round == 1) {
      std::printf("crashing node 3 mid-workload...\n");
      cluster.Crash(3);
      cluster.RunFor(1500);  // Daemons re-form the epoch without node 3.
      std::printf("  epoch now %llu, members %s\n",
                  static_cast<unsigned long long>(cluster.node(0).epoch().number),
                  cluster.node(0).epoch().list.ToString().c_str());
    }
    if (round == 2) {
      std::printf("recovering node 3...\n");
      cluster.Recover(3);
      cluster.RunFor(1500);
      uint32_t stale_files = 0;
      for (storage::ObjectId f = 0; f < kFiles; ++f) {
        if (cluster.node(3).store(f).stale()) ++stale_files;
      }
      std::printf("  node 3 re-admitted; %u of %u files still stale "
                  "(propagation may already have caught them up)\n",
                  stale_files, kFiles);
    }
  }
  cluster.RunFor(5000);  // Drain propagation.

  std::printf("\n%d/%d writes committed\n", commits, 4 * kFiles);

  // Every file is readable and identical on every in-epoch replica.
  bool all_ok = true;
  for (storage::ObjectId file = 0; file < kFiles; ++file) {
    auto r = cluster.ReadSyncRetry(4, file, 10);
    if (!r.ok()) {
      std::printf("file %u: read failed: %s\n", file,
                  r.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    std::printf("file %u @v%llu: %.32s\n", file,
                static_cast<unsigned long long>(r->version),
                std::string(r->data.begin(), r->data.end()).c_str());
  }

  // The amortization, visible: poll traffic happened once per group.
  const auto& stats = cluster.network().stats();
  std::printf("\nepoch-poll messages for the whole %u-file group: %llu "
              "(a per-file scheme would send ~%ux that)\n",
              kFiles,
              static_cast<unsigned long long>(
                  stats.by_type.at("epoch-poll").sent),
              kFiles);

  Status history = cluster.CheckHistory();
  Status lemma1 = cluster.CheckEpochInvariants();
  std::printf("history: %s | epoch invariants: %s\n",
              history.ToString().c_str(), lemma1.ToString().c_str());
  return all_ok && history.ok() && lemma1.ok() ? 0 : 1;
}
