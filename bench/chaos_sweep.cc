// Ext-K (chaos): client-visible cost of message-level network faults.
//
// Sweeps the global drop probability (with proportional duplication and
// reordering) and, for each level, drives an open-loop workload under a
// seeded nemesis schedule. Reports single-attempt success rates, latency,
// and the network fault counters — the degradation curve the paper's
// fail-stop analysis cannot see, since its model has no lossy links.
//
//   ./build/bench/chaos_sweep

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "harness/nemesis.h"
#include "harness/workload.h"
#include "protocol/cluster.h"

using namespace dcp;
using namespace dcp::protocol;

namespace {

constexpr sim::Time kHorizon = 40000;

struct Row {
  double drop;
  double write_rate;
  double read_rate;
  double write_latency;
  uint64_t dropped;
  uint64_t duplicated;
  uint64_t reordered;
  uint64_t faults_applied;
};

Row RunOne(double drop, bool with_nemesis, uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 9;
  opts.coterie = CoterieKind::kGrid;
  opts.seed = seed;
  opts.initial_value = std::vector<uint8_t>(32, 0);
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 300;
  opts.fault_model.global.drop = drop;
  opts.fault_model.global.duplicate = drop;      // Dup tracks drop level.
  opts.fault_model.global.reorder = 2.0 * drop;  // Reorder twice as common.
  opts.fault_model.global.reorder_spike = 20.0;
  Cluster cluster(opts);

  std::unique_ptr<harness::Nemesis> nemesis;
  if (with_nemesis) {
    nemesis = std::make_unique<harness::Nemesis>(
        &cluster, harness::RandomScenario(seed + 31, 9, kHorizon));
  }

  harness::WorkloadDriver::Options wopts;
  wopts.arrival_rate = 0.01;
  wopts.seed = seed + 2;
  harness::WorkloadDriver workload(&cluster, wopts);

  cluster.RunFor(kHorizon);
  workload.Stop();
  if (nemesis) nemesis->Stop();

  Row row;
  row.drop = drop;
  row.write_rate = workload.writes().success_rate();
  row.read_rate = workload.reads().success_rate();
  row.write_latency = workload.writes().mean_latency();
  row.dropped = cluster.network().stats().total_dropped;
  row.duplicated = cluster.network().stats().total_duplicated;
  row.reordered = cluster.network().stats().total_reordered;
  row.faults_applied = nemesis ? nemesis->faults_applied() : 0;
  return row;
}

void PrintTable(const char* title, const std::vector<Row>& rows) {
  std::printf("%s\n", title);
  std::printf("  %-6s %-8s %-8s %-9s %-9s %-9s %-9s %s\n", "drop", "write%",
              "read%", "w-lat", "dropped", "dup'd", "reorder", "nemesis-ev");
  for (const Row& r : rows) {
    std::printf("  %-6.2f %-8.3f %-8.3f %-9.2f %-9llu %-9llu %-9llu %llu\n",
                r.drop, r.write_rate, r.read_rate, r.write_latency,
                static_cast<unsigned long long>(r.dropped),
                static_cast<unsigned long long>(r.duplicated),
                static_cast<unsigned long long>(r.reordered),
                static_cast<unsigned long long>(r.faults_applied));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = dcp::bench::MetricsJsonPathFromArgs(argc, argv);
  const std::vector<double> kDropLevels = {0.0, 0.02, 0.05, 0.10, 0.20};

  std::vector<Row> clean, chaotic;
  for (double drop : kDropLevels) {
    clean.push_back(RunOne(drop, /*with_nemesis=*/false, /*seed=*/101));
    chaotic.push_back(RunOne(drop, /*with_nemesis=*/true, /*seed=*/101));
  }
  std::printf("9 nodes, grid coterie, open-loop Poisson clients "
              "(no retries), horizon %.0f\n\n", double(kHorizon));
  PrintTable("message faults only (drop = dup = reorder/2):", clean);
  PrintTable("message faults + nemesis schedule (storms, partitions, "
             "cuts, flapping/slow links):", chaotic);

  if (!json_path.empty()) {
    dcp::bench::BenchJsonWriter json("chaos_sweep");
    auto emit = [&json](const char* mode, const std::vector<Row>& rows) {
      for (const Row& r : rows) {
        char name[64];
        std::snprintf(name, sizeof(name), "%s-drop%.2f", mode, r.drop);
        json.Row(name);
        json.Metric("write_success", r.write_rate);
        json.Metric("read_success", r.read_rate);
        json.Metric("write_latency", r.write_latency);
        json.Metric("messages_dropped", double(r.dropped));
        json.Metric("messages_duplicated", double(r.duplicated));
        json.Metric("messages_reordered", double(r.reordered));
        json.Metric("nemesis_faults", double(r.faults_applied));
      }
    };
    emit("clean", clean);
    emit("nemesis", chaotic);
    if (!json.WriteFile(json_path)) return 1;
  }
  return 0;
}
