// Sharded-cluster bench: (1) the timer-load saving of the multiplexed
// epoch daemon — one periodic timer per node driving every hosted
// object's epoch bookkeeping — against the naive task-per-object design
// (one periodic timer per hosted object), at the same per-object check
// cadence over the same placement; (2) client throughput of a multi-
// object sharded cluster with the muxes running.
//
// The timer comparison runs both designs in-process on the same
// deterministic simulator, so the event-count ratio is exact and the
// wall-clock ratio is machine-robust; both are gated as *_speedup in the
// bench-regression CI job (bench/baseline_shard.json). Absolute
// throughputs are informational only.
//
// Flags: --quick (smaller object counts, CI rot-prevention lane),
//        --metrics-json <path> (bench_json schema; "-" for stdout).
//
// Wall clock here measures the bench harness itself (only the speedup
// RATIO is gated; absolute times are informational), so the
// sim-time rule does not apply.  // dcp-lint: allow-file(wall-clock)

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "runtime/runtime.h"
#include "protocol/cluster.h"
#include "sim/simulator.h"

namespace {

using namespace dcp;

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct TimerLoadResult {
  uint64_t timers = 0;        ///< Periodic timers registered.
  uint64_t events = 0;        ///< Simulator events executed.
  uint64_t visits = 0;        ///< Per-object bookkeeping visits performed.
  double wall_ms = 0;
};

/// Hosted-object lists per node for a rendezvous placement of `objects`
/// over `nodes` — both designs drive the identical assignment.
std::vector<std::vector<storage::ObjectId>> HostedLists(uint32_t nodes,
                                                        uint32_t objects) {
  protocol::PlacementOptions p;
  p.num_nodes = nodes;
  p.num_objects = objects;
  p.replication_factor = 3;
  p.seed = 99;
  protocol::ObjectTable table(p);
  std::vector<std::vector<storage::ObjectId>> hosted(nodes);
  for (storage::ObjectId o = 0; o < objects; ++o) {
    for (NodeId n : table.placement(o).replicas) hosted[n].push_back(o);
  }
  return hosted;
}

/// Naive design: every hosted object gets its own PeriodicTimer at the
/// check cadence. Timer count = sum of hosted lists = objects x rf.
TimerLoadResult RunTaskPerObject(
    const std::vector<std::vector<storage::ObjectId>>& hosted,
    rt::Time period, rt::Time horizon) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<rt::PeriodicTimer>> timers;
  uint64_t visits = 0;
  auto start = std::chrono::steady_clock::now();
  for (const auto& ring : hosted) {
    for (storage::ObjectId o : ring) {
      (void)o;
      timers.push_back(std::make_unique<rt::PeriodicTimer>(
          &sim, period, period, [&visits] { ++visits; }));
    }
  }
  sim.RunUntil(horizon);
  TimerLoadResult r;
  r.wall_ms = WallMsSince(start);
  r.timers = timers.size();
  r.events = sim.events_executed();
  r.visits = visits;
  return r;
}

/// Multiplexed design (protocol::EpochMux's schedule): ONE timer per node,
/// ticking at period / ceil(hosted / batch) and advancing a round-robin
/// cursor by `batch` objects per tick — every object is still visited
/// once per `period`.
TimerLoadResult RunMultiplexed(
    const std::vector<std::vector<storage::ObjectId>>& hosted,
    rt::Time period, uint32_t batch, rt::Time horizon) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<rt::PeriodicTimer>> timers;
  std::vector<size_t> cursors(hosted.size(), 0);
  uint64_t visits = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t n = 0; n < hosted.size(); ++n) {
    const std::vector<storage::ObjectId>& ring = hosted[n];
    if (ring.empty()) continue;
    uint32_t rounds = (static_cast<uint32_t>(ring.size()) + batch - 1) / batch;
    rt::Time tick = period / rounds;
    size_t* cursor = &cursors[n];
    timers.push_back(std::make_unique<rt::PeriodicTimer>(
        &sim, tick, tick, [&visits, &ring, cursor, batch] {
          for (uint32_t i = 0; i < batch && i < ring.size(); ++i) {
            ++visits;
            *cursor = (*cursor + 1) % ring.size();
          }
        }));
  }
  sim.RunUntil(horizon);
  TimerLoadResult r;
  r.wall_ms = WallMsSince(start);
  r.timers = timers.size();
  r.events = sim.events_executed();
  r.visits = visits;
  return r;
}

struct ClusterResult {
  uint64_t ops = 0;
  uint64_t sim_events = 0;
  double sim_time = 0;
  double wall_ms = 0;
  uint64_t mux_checks = 0;
};

/// Client throughput of a live sharded cluster (muxes on): synchronous
/// write+read pairs round-robin over every object.
ClusterResult RunSharded(uint32_t objects, uint32_t ops) {
  protocol::ClusterOptions opts;
  opts.num_nodes = 7;
  opts.num_objects = objects;
  opts.replication_factor = 3;
  opts.coterie = protocol::CoterieKind::kMajority;
  opts.seed = 7;
  opts.initial_value = {0, 0, 0, 0};
  opts.start_epoch_daemons = true;
  opts.epoch_check_interval = 500;
  protocol::Cluster cluster(opts);

  ClusterResult r;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    storage::ObjectId o = static_cast<storage::ObjectId>(i % objects);
    auto w = cluster.WriteSyncRetry(
        cluster.RouteCoordinator(o), o,
        storage::Update::Partial(i % 4, {static_cast<uint8_t>(i)}), 10);
    if (w.ok()) ++r.ops;
    auto read = cluster.ReadSyncRetry(cluster.RouteCoordinator(o), o, 10);
    if (read.ok()) ++r.ops;
  }
  r.wall_ms = WallMsSince(start);
  r.sim_events = cluster.simulator().events_executed();
  r.sim_time = cluster.simulator().Now();
  for (NodeId n = 0; n < opts.num_nodes; ++n) {
    r.mux_checks += cluster.mux(n).stats().checks_run;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::string json_path = bench::MetricsJsonPathFromArgs(argc, argv);
  bench::BenchJsonWriter json("shard_throughput");

  const uint32_t kNodes = 7;
  const uint32_t kObjects = quick ? 512 : 4096;
  const uint32_t kBatch = 16;
  const rt::Time kPeriod = 300;
  const rt::Time kHorizon = quick ? 3000 : 9000;

  std::printf("Multiplexed epoch daemon vs task-per-object timers\n"
              "(%u nodes, %u objects, rf 3, cadence %.0f, horizon %.0f)\n\n",
              kNodes, kObjects, kPeriod, kHorizon);

  auto hosted = HostedLists(kNodes, kObjects);
  TimerLoadResult task = RunTaskPerObject(hosted, kPeriod, kHorizon);
  TimerLoadResult mux = RunMultiplexed(hosted, kPeriod, kBatch, kHorizon);

  std::printf("%-18s %-10s %-12s %-12s %-10s\n", "design", "timers",
              "sim events", "visits", "wall ms");
  std::printf("%-18s %-10" PRIu64 " %-12" PRIu64 " %-12" PRIu64 " %-10.1f\n",
              "task-per-object", task.timers, task.events, task.visits,
              task.wall_ms);
  std::printf("%-18s %-10" PRIu64 " %-12" PRIu64 " %-12" PRIu64 " %-10.1f\n",
              "multiplexed", mux.timers, mux.events, mux.visits, mux.wall_ms);

  // Self-checks: both designs must deliver the promised cadence (every
  // object visited ~horizon/period times), and the mux must actually cut
  // the timer count to O(nodes) and the event count by ~batch.
  uint64_t expected_visits =
      uint64_t(task.timers) * uint64_t(kHorizon / kPeriod);
  bool ok = true;
  if (task.visits < expected_visits * 9 / 10 ||
      mux.visits < expected_visits * 9 / 10) {
    std::fprintf(stderr, "FAIL: a design fell behind the cadence "
                 "(expected ~%" PRIu64 " visits, task %" PRIu64
                 ", mux %" PRIu64 ")\n",
                 expected_visits, task.visits, mux.visits);
    ok = false;
  }
  if (mux.timers != kNodes || task.timers <= mux.timers) {
    std::fprintf(stderr, "FAIL: timer counts (task %" PRIu64 ", mux %" PRIu64
                 ")\n", task.timers, mux.timers);
    ok = false;
  }
  if (mux.events >= task.events) {
    std::fprintf(stderr, "FAIL: multiplexing did not reduce event count\n");
    ok = false;
  }

  double events_speedup = double(task.events) / double(mux.events);
  double overhead_speedup = task.wall_ms / mux.wall_ms;
  double timer_count_ratio = double(task.timers) / double(mux.timers);
  std::printf("\nevents speedup (task/mux):   %.2fx (~batch size %u)\n"
              "wall-clock speedup:          %.2fx\n"
              "timer-count ratio:           %.0fx (O(objects) -> O(nodes))\n",
              events_speedup, kBatch, overhead_speedup, timer_count_ratio);

  json.Row(quick ? "timer_load_quick" : "timer_load");
  json.Metric("timers_task_per_object", double(task.timers));
  json.Metric("timers_multiplexed", double(mux.timers));
  json.Metric("sim_events_task_per_object", double(task.events));
  json.Metric("sim_events_multiplexed", double(mux.events));
  json.Metric("timer_events_speedup", events_speedup);
  json.Metric("timer_overhead_speedup", overhead_speedup);

  const uint32_t cluster_objects = quick ? 16 : 64;
  const uint32_t cluster_ops = quick ? 64 : 256;
  ClusterResult cr = RunSharded(cluster_objects, cluster_ops);
  std::printf("\nSharded cluster (7 nodes, %u objects, muxes on): "
              "%" PRIu64 "/%u ops committed, %" PRIu64 " sim events, "
              "%" PRIu64 " mux checks, %.1f wall ms\n",
              cluster_objects, cr.ops, cluster_ops * 2, cr.sim_events,
              cr.mux_checks, cr.wall_ms);
  if (cr.ops < cluster_ops * 2) {
    std::fprintf(stderr, "FAIL: sharded cluster ops failed (%" PRIu64
                 "/%u committed)\n", cr.ops, cluster_ops * 2);
    ok = false;
  }

  json.Row(quick ? "sharded_cluster_quick" : "sharded_cluster");
  json.Metric("ops_committed", double(cr.ops));
  json.Metric("sim_events", double(cr.sim_events));
  json.Metric("mux_checks", double(cr.mux_checks));
  json.Metric("wall_ms", cr.wall_ms);

  if (!json_path.empty() && !json.WriteFile(json_path)) return 1;
  return ok ? 0 : 1;
}
