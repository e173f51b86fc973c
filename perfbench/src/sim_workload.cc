// Simulator workload sim_durable_churn: a 9-node dynamic grid with
// durability on (WAL, group commit, checkpoints on SimDisk) under a seeded
// site-model crash/recover schedule, driven by open-loop Poisson clients.
//
// The run length of one cluster is fixed (kHorizonMs of simulated time):
// per-op cost grows with run length because checkpoints grow, so a run is
// a sequence of fixed-length rounds, each on a fresh cluster, repeated
// until --seconds of wall time have been measured. Epoch daemons stay off:
// with them on, this churn yields stale reads that the audit rejects (see
// perfbench/NOTES.md), and that workload waits for the fix.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "protocol/cluster.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcp::NodeId;
using dcp::Result;
using dcp::Status;
using dcp::protocol::Cluster;
using dcp::protocol::ReadOutcome;
using dcp::protocol::WriteOutcome;
using dcp::storage::ObjectId;
using dcp::storage::Update;

constexpr uint32_t kNodes = 9;
constexpr uint32_t kObjects = 16;
constexpr uint32_t kObjectSize = 32;
/// Simulated length of one round, in ms.
constexpr double kHorizonMs = 200000;
/// Poisson arrivals at 0.05 ops/ms.
constexpr double kArrivalMeanMs = 20;
constexpr double kWriteFrac = 0.5;  ///< Half of the writes are total.
/// Site model per node: exponential up and down times.
constexpr double kMtbfMs = 20000;
constexpr double kMttrMs = 2000;
/// At most this many nodes down at once, so a 3x3 grid always has a read
/// and a write quorum and every op can eventually commit.
constexpr int kMaxDown = 2;
/// A client abandons an attempt after this long (the attempt stays open in
/// the audited history) and retries at another coordinator.
constexpr double kAttemptTimeoutMs = 2000;
/// An op not committed this long after it was due counts as failed.
constexpr double kOpDeadlineMs = 30000;
constexpr double kSliceMs = 10000;
/// Kernel steps per MachineSpeed sample taken between rounds (~60 ms).
constexpr uint64_t kSpeedSampleOps = 100000;

struct CrashEvent {
  double at;
  NodeId node;
  bool crash;
};

/// The seeded site model: each node alternates exponential up/down times;
/// a crash that would exceed kMaxDown is skipped.
std::vector<CrashEvent> CrashSchedule(InputRng& rng) {
  std::vector<CrashEvent> events;
  std::vector<double> next(kNodes);
  std::vector<bool> down(kNodes, false);
  for (double& t : next) t = rng.Exp(kMtbfMs);
  int down_count = 0;
  for (;;) {
    const auto it = std::min_element(next.begin(), next.end());
    const double t = *it;
    const NodeId n = static_cast<NodeId>(it - next.begin());
    if (t >= kHorizonMs) break;
    if (down[n]) {
      down[n] = false;
      --down_count;
      events.push_back({t, n, false});
      next[n] = t + rng.Exp(kMtbfMs);
    } else if (down_count < kMaxDown) {
      down[n] = true;
      ++down_count;
      events.push_back({t, n, true});
      next[n] = t + rng.Exp(kMttrMs);
    } else {
      next[n] = t + rng.Exp(kMtbfMs);
    }
  }
  return events;
}

dcp::protocol::ClusterOptions SimOptions(uint64_t seed) {
  dcp::protocol::ClusterOptions o;
  o.num_nodes = kNodes;
  o.num_objects = kObjects;
  o.coterie = dcp::protocol::CoterieKind::kGrid;
  o.seed = seed;
  o.latency = dcp::net::LatencyModel{1.0, 0.5};  // uniform [1.0, 1.5] ms
  o.initial_value = std::vector<uint8_t>(kObjectSize, 0);
  o.durability.enabled = true;
  o.start_epoch_daemons = false;
  return o;
}

/// What a phase (a sequence of rounds) measured. The per-layer counts are
/// summed over rounds.
struct PhaseOut {
  RoundSeries series;
  Samples recover_ms;
  uint64_t writes_committed = 0, reads_committed = 0, conflict_retries = 0;
  double user_bytes = 0;
  std::map<std::string, double> counters;
  double wal_batch_sum = 0, wal_batch_count = 0;
  MessageLedger::Counts ledger;
  std::vector<Span> spans;
};

/// One round: a fresh cluster, kHorizonMs of open-loop load under churn,
/// then heal, drain and check.
class Round {
 public:
  Round(uint64_t seed, int index, bool traced, PhaseOut* out,
        dcp::analysis::ClientHistory* history, Report* report,
        std::string where)
      : rng_(MixSeed(seed, 7)),
        traced_(traced),
        virtual_base_ns_(static_cast<int64_t>(index) * 1'000'000'000'000),
        out_(out),
        history_(history),
        report_(report),
        where_(std::move(where)),
        ledger_(/*replies_decoded=*/false) {
    const int64_t t0 = NowNs();
    cluster_ = std::make_unique<Cluster>(SimOptions(MixSeed(seed, 8)));
    out_->series.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (traced_) {
      cluster_->network().set_send_tap(
          [this](const dcp::net::Message& m) { ledger_.OnSend(m); });
    }
  }

  void Run() {
    dcp::sim::Simulator& sim = cluster_->simulator();
    for (const CrashEvent& e : CrashSchedule(rng_)) {
      sim.ScheduleAt(e.at, [this, e] {
        if (e.crash) {
          cluster_->Crash(e.node);
        } else {
          TimedRecover(e.node);
        }
      });
    }
    // Heal just before the horizon so every node is up for the drain.
    sim.ScheduleAt(kHorizonMs - 1, [this] {
      for (NodeId n = 0; n < kNodes; ++n) {
        if (!cluster_->network().IsUp(n)) TimedRecover(n);
      }
    });
    sim.ScheduleAt(rng_.Exp(kArrivalMeanMs), [this] { Arrive(); });

    for (double t = 0; t < kHorizonMs; t += kSliceMs) TimedRunFor(kSliceMs);
    for (double t = 0; in_flight_ > 0 && t < kOpDeadlineMs + kSliceMs;
         t += 500) {
      TimedRunFor(500);
    }
    if (in_flight_ > 0) {
      report_->Fail(where_ + std::to_string(in_flight_) +
                    " ops never settled");
    }
    out_->series.measured_s += measured_s_;
    out_->series.ops_per_s.push_back(
        Ratio(static_cast<double>(committed_), measured_s_));
    out_->series.write_ms.push_back(std::move(write_ms_));
    out_->series.read_ms.push_back(std::move(read_ms_));

    // Counters as of the end of the measured window.
    for (const auto& [name, counter] : cluster_->metrics().counters()) {
      AccumulateCounter(&out_->counters, name,
                        static_cast<double>(counter->value()));
    }
    for (const auto& [name, h] : cluster_->metrics().histograms()) {
      if (name == "wal.batch_records") {
        out_->wal_batch_sum += h->sum();
        out_->wal_batch_count += static_cast<double>(h->count());
      }
    }
    out_->ledger.Add(ledger_.counts());
    Check();
  }

 private:
  struct PendingOp {
    uint64_t id = 0;
    bool write = false;
    ObjectId object = 0;
    Update update;
    double due = 0;
  };

  double Now() { return cluster_->simulator().Now(); }
  int64_t VirtualNs(double ms) const {
    return virtual_base_ns_ + static_cast<int64_t>(ms * 1e6);
  }

  void TimedRunFor(double ms) {
    const int64_t t0 = NowNs();
    cluster_->RunFor(ms);
    const int64_t dt = NowNs() - t0;
    measured_s_ += static_cast<double>(dt) / 1e9;
    SpanLog::Get().Record(
        Span{0, t0, dt, SpanName::kRunFor, OpKind::kOther, false, 0});
  }

  void TimedRecover(NodeId n) {
    const int64_t t0 = NowNs();
    cluster_->Recover(n);
    const int64_t dt = NowNs() - t0;
    out_->recover_ms.Add(static_cast<double>(dt) / 1e6);
    SpanLog::Get().Record(
        Span{0, t0, dt, SpanName::kRecover, OpKind::kOther, false, 0});
  }

  void Arrive() {
    if (Now() >= kHorizonMs) return;
    auto op = std::make_shared<PendingOp>();
    op->id = ++next_op_;
    op->due = Now();
    const double u = rng_.Unit();
    op->write = u < kWriteFrac;
    op->object = static_cast<ObjectId>(rng_.Below(kObjects));
    if (op->write && u < kWriteFrac / 2) {
      std::vector<uint8_t> bytes(kObjectSize);
      for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng_.Next());
      op->update = Update::Total(std::move(bytes));
    } else if (op->write) {
      op->update = Update::Partial(rng_.Below(kObjectSize),
                                   {static_cast<uint8_t>(rng_.Next())});
    }
    ++out_->series.attempted;
    ++in_flight_;
    Attempt(op);
    cluster_->simulator().Schedule(rng_.Exp(kArrivalMeanMs),
                                   [this] { Arrive(); });
  }

  NodeId PickLiveCoordinator() {
    std::vector<NodeId> up;
    for (NodeId n = 0; n < kNodes; ++n) {
      if (cluster_->network().IsUp(n)) up.push_back(n);
    }
    return up[rng_.Below(up.size())];
  }

  void Attempt(const std::shared_ptr<PendingOp>& op) {
    const NodeId coordinator = PickLiveCoordinator();
    const double started = Now();
    // Each attempt is its own session: an abandoned attempt may still be in
    // flight when its retry starts.
    const uint64_t client = ++next_client_;
    const uint64_t hid =
        op->write ? history_->InvokeWrite(client, op->object, op->update,
                                          started)
                  : history_->InvokeRead(client, op->object, started);
    auto settled = std::make_shared<bool>(false);
    const OpKind kind = op->write ? OpKind::kWrite : OpKind::kRead;
    auto timer = std::make_shared<dcp::rt::TimerId>();
    *timer = cluster_->simulator().Schedule(
        kAttemptTimeoutMs, [this, op, settled, hid] {
          if (*settled) return;
          *settled = true;
          history_->Abandon(hid, Now());
          Retry(op, 0);
        });
    auto finish = [this, op, settled, timer, hid, started, kind](
                      const Status& status, dcp::storage::Version version,
                      std::vector<uint8_t> data) {
      if (*settled) return;
      *settled = true;
      cluster_->simulator().Cancel(*timer);
      if (traced_) {
        SpanLog::Get().Record(Span{op->id, VirtualNs(started),
                                   static_cast<int64_t>((Now() - started) * 1e6),
                                   SpanName::kProtocolOp, kind, true, 0});
      }
      if (status.ok()) {
        if (op->write) {
          history_->ReturnWrite(hid, Now(), version);
        } else {
          if (data.size() != kObjectSize) ++bad_reads_;
          history_->ReturnRead(hid, Now(), version, std::move(data));
        }
        Complete(op, true);
        return;
      }
      history_->Fail(hid, Now(), IsDefiniteFailure(status));
      if (status.IsConflict()) ++out_->conflict_retries;
      const bool retryable =
          status.code() != dcp::StatusCode::kInvalidArgument &&
          status.code() != dcp::StatusCode::kInternal;
      if (retryable) {
        Retry(op, 5 + rng_.Unit() * 20);
      } else {
        Complete(op, false);
      }
    };

    std::optional<ScopedOpBinding> bind;
    if (traced_) bind.emplace(op->id, kind);
    if (op->write) {
      cluster_->Write(coordinator, op->object, op->update,
                      [finish](Result<WriteOutcome> r) {
                        finish(r.status(), r.ok() ? r.value().version : 0, {});
                      });
    } else {
      cluster_->Read(coordinator, op->object, [finish](Result<ReadOutcome> r) {
        if (r.ok()) {
          finish(r.status(), r.value().version, std::move(r.value().data));
        } else {
          finish(r.status(), 0, {});
        }
      });
    }
  }

  void Retry(const std::shared_ptr<PendingOp>& op, double backoff) {
    if (Now() + backoff - op->due > kOpDeadlineMs) {
      Complete(op, false);
      return;
    }
    cluster_->simulator().Schedule(backoff, [this, op] { Attempt(op); });
  }

  void Complete(const std::shared_ptr<PendingOp>& op, bool ok) {
    --in_flight_;
    const double latency = Now() - op->due;
    if (traced_) {
      SpanLog::Get().Record(Span{op->id, VirtualNs(op->due),
                                 static_cast<int64_t>(latency * 1e6),
                                 SpanName::kClientOp,
                                 op->write ? OpKind::kWrite : OpKind::kRead,
                                 true, 0});
    }
    if (!ok) {
      ++out_->series.failed;
      return;
    }
    ++committed_;
    if (op->write) {
      ++out_->writes_committed;
      out_->user_bytes += static_cast<double>(op->update.bytes.size());
      write_ms_.Add(latency);
    } else {
      ++out_->reads_committed;
      read_ms_.Add(latency);
    }
  }

  /// Heals, lets the cluster quiesce, then checks its invariants.
  void Check() {
    for (int i = 0; i < 200 && !Settled(); ++i) cluster_->RunFor(500);
    if (!Settled()) {
      report_->Fail(where_ + "cluster did not quiesce after heal");
      return;
    }
    Status epochs = cluster_->CheckEpochInvariants();
    if (!epochs.ok()) report_->Fail(where_ + epochs.ToString());
    Status replicas = cluster_->CheckReplicaConsistency();
    if (!replicas.ok()) report_->Fail(where_ + replicas.ToString());
    if (bad_reads_ != 0) {
      report_->Fail(where_ + std::to_string(bad_reads_) +
                    " reads returned other than " +
                    std::to_string(kObjectSize) + " bytes");
    }
  }

  bool Settled() {
    if (!cluster_->Quiescent()) return false;
    for (NodeId n = 0; n < kNodes; ++n) {
      for (ObjectId o = 0; o < kObjects; ++o) {
        if (!cluster_->node(n).pending_propagation(o).Empty()) return false;
      }
    }
    return true;
  }

  InputRng rng_;
  const bool traced_;
  const int64_t virtual_base_ns_;
  PhaseOut* out_;
  dcp::analysis::ClientHistory* history_;
  Report* report_;
  const std::string where_;
  MessageLedger ledger_;
  std::unique_ptr<Cluster> cluster_;
  uint64_t next_op_ = 0;
  uint64_t next_client_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t bad_reads_ = 0;
  uint64_t committed_ = 0;
  double measured_s_ = 0;
  Samples write_ms_, read_ms_;
};

/// Rounds until `seconds` of measured time; each round's history is
/// audited as soon as the round ends.
PhaseOut RunPhase(uint64_t seed, double seconds, bool traced,
                  const char* phase, Report* report) {
  PhaseOut out;
  SpanLog::Get().set_enabled(traced);
  dcp::analysis::AuditOptions audit;
  audit.mode = dcp::analysis::AuditMode::kLinearizable;
  audit.initial_value = std::vector<uint8_t>(kObjectSize, 0);
  int rounds = 0;
  size_t audited = 0;
  // The machine's speed is sampled between rounds; a round's speed is the
  // mean of the samples on either side of it.
  double speed_before = MachineSpeed(kSpeedSampleOps);
  while (rounds == 0 || out.series.measured_s < seconds) {
    const std::string where = std::string(phase) + " round " +
                              std::to_string(rounds) + ": ";
    dcp::analysis::ClientHistory history;
    {
      Round round(MixSeed(seed, static_cast<uint64_t>(rounds)), rounds,
                  traced, &out, &history, report, where);
      round.Run();
    }
    const double speed_after = MachineSpeed(kSpeedSampleOps);
    out.series.speed.push_back((speed_before + speed_after) / 2);
    speed_before = speed_after;
    ++rounds;
    const dcp::analysis::AuditVerdict verdict =
        dcp::analysis::AuditHistory(history, audit);
    audited += history.ops().size();
    if (!verdict.ok) {
      report->Fail(where + "linearizability audit: " +
                   verdict.ToString().substr(0, 2000));
      break;
    }
    out.series.EndRound();
  }
  SpanLog::Get().set_enabled(false);
  if (traced) out.spans = SpanLog::Get().Collect();
  report->notes.push_back(std::string(phase) + ": " + std::to_string(rounds) +
                          " rounds, " + std::to_string(audited) +
                          " attempts audited");
  return out;
}

}  // namespace

void RunSimWorkload(const RunOptions& o, Report* r) {
  if (!o.trace) {
    PhaseOut p = RunPhase(o.seed, o.seconds, false, "run", r);
    r->AddEndToEnd(p.series);
    return;
  }

  PhaseOut ref = RunPhase(o.seed, std::max(1.0, o.seconds / 2), false,
                          "untraced reference", r);
  PhaseOut p = RunPhase(o.seed, o.seconds, true, "traced", r);
  r->attempted = ref.series.attempted + p.series.attempted;
  r->failed = ref.series.failed + p.series.failed;

  const double writes = static_cast<double>(p.writes_committed);
  const double reads = static_cast<double>(p.reads_committed);
  const double ops = writes + reads;
  LayerValues v;
  FillProtocolLayers(ReadProtocolCounts(p.counters), p.ledger, p.spans,
                     writes, reads, static_cast<double>(p.conflict_retries),
                     1e-3, &v);
  const double events = Get(p.counters, "sim.events_executed");
  v.sim_events_per_op = Ratio(events, ops);
  v.sim_ns_per_event = Ratio(p.series.measured_s * 1e9, events);
  v.wal_records_per_write = Ratio(Get(p.counters, "wal.records"), writes);
  v.fsyncs_per_write = Ratio(Get(p.counters, "disk.syncs"), writes);
  v.group_commit_batch = Ratio(p.wal_batch_sum, p.wal_batch_count);
  v.wal_bytes_per_user_byte =
      Ratio(Get(p.counters, "wal.record_bytes"), p.user_bytes);
  v.checkpoint_bytes_per_write =
      Ratio(Get(p.counters, "store.checkpoint_bytes"), writes);
  r->notes.push_back(
      "mean checkpoint size " +
      std::to_string(static_cast<int64_t>(
          Ratio(Get(p.counters, "store.checkpoint_bytes"),
                Get(p.counters, "store.checkpoints")))) +
      " B over " +
      std::to_string(static_cast<int64_t>(Get(p.counters, "store.checkpoints"))) +
      " checkpoints");
  v.recover_ms_p50 = p.recover_ms.Percentile(50);
  v.recover_ms_p99 = p.recover_ms.Percentile(99);
  v.sample_counts.push_back({"store.recover_ms_p50", p.recover_ms.count()});
  v.sample_counts.push_back({"store.recover_ms_p99", p.recover_ms.count()});
  v.ops_per_s_traced = Median(p.series.ops_per_s);
  v.ops_per_s_untraced = Median(ref.series.ops_per_s);
  Samples client_w = SpanDurations(p.spans, SpanName::kClientOp,
                                   OpKind::kWrite, false, 1e-3);
  v.client_write_us_p50 = client_w.Percentile(50);
  v.sample_counts.push_back({"trace.client_write_us_p50", client_w.count()});
  // Simulated time: the protocol span is the whole op whenever no retry ran.
  v.layer_sum_frac = Ratio(v.write_us_p50, v.client_write_us_p50);
  AddLayerMetrics(v, r);

  const std::string trace_path = o.out_dir + "/" + o.workload + ".trace.json";
  if (WriteChromeTrace(p.spans, 50000, trace_path)) {
    r->notes.push_back("spans (first 50000 of " +
                       std::to_string(p.spans.size()) + ") written to " +
                       trace_path);
  }
}

}  // namespace perfbench
