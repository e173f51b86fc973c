// Socket-backend workloads: a 9-node dynamic grid over a loopback TCP mesh
// (rt::SocketTransport), driven by two closed-loop client threads.
//
// The cluster is assembled here the way harness::SocketCluster does it, so
// the benchmark can wrap the wire codec and install a send tap in the
// traced run. Each client owns a disjoint half of the objects, so the only
// lock conflicts are with the protocol's own asynchronous unlock of the
// client's previous op; they are retried.

#include <algorithm>
#include <condition_variable>
#include <iterator>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/client_history.h"
#include "analysis/linearize.h"
#include "coterie/coterie.h"
#include "protocol/cluster.h"
#include "protocol/operations.h"
#include "protocol/replica_node.h"
#include "protocol/wire_codec.h"
#include "runtime/socket_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcp::NodeId;
using dcp::Result;
using dcp::Status;
using dcp::analysis::ClientOp;
using dcp::protocol::ReadOutcome;
using dcp::protocol::ReplicaNode;
using dcp::protocol::WriteOutcome;
using dcp::storage::ObjectId;
using dcp::storage::Update;

constexpr uint32_t kNodes = 9;
constexpr uint32_t kObjects = 64;
constexpr int kClients = 2;
/// Ops each client runs on a fresh cluster before the measured ops of a
/// round (audited, not timed).
constexpr int kWarmupOpsPerClient = 100;
/// A client gives up on one attempt after this long (the op stays open in
/// the audited history and counts as failed).
constexpr auto kAttemptBudget = std::chrono::seconds(5);
constexpr int kMaxAttempts = 200;

struct SockConfig {
  uint32_t object_size;
  double read_frac;
  double total_write_frac;  ///< The rest of the mix is 1-byte partial writes.
  /// Measured ops per round, sized so that every round has at least 1000
  /// reads and 1000 writes (a p99 with 10 samples beyond it).
  int ops_per_round;
};

SockConfig ConfigFor(const std::string& workload) {
  if (workload == "sock_partial_4k") return SockConfig{4096, 0.20, 0.20, 6000};
  return SockConfig{64, 0.50, 0.25, 4000};  // sock_small
}

/// Nodes over one socket mesh. Member order matters: the transport stops
/// (joining every thread) before any node is destroyed.
class SockCluster {
 public:
  SockCluster(const SockConfig& cfg, dcp::rt::WireCodec codec)
      : rule_(dcp::protocol::MakeCoterieRule(dcp::protocol::CoterieKind::kGrid)),
        transport_(Options(std::move(codec))) {
    const dcp::NodeSet all = dcp::NodeSet::Universe(kNodes);
    std::vector<std::vector<uint8_t>> values(
        kObjects, std::vector<uint8_t>(cfg.object_size, 0));
    for (uint32_t i = 0; i < kNodes; ++i) {
      nodes_.push_back(std::make_unique<ReplicaNode>(
          &transport_, NodeId{i}, all, rule_.get(), values));
    }
  }
  ~SockCluster() { transport_.Stop(); }
  SockCluster(const SockCluster&) = delete;
  SockCluster& operator=(const SockCluster&) = delete;

  dcp::rt::SocketTransport& transport() { return transport_; }
  ReplicaNode* node(NodeId id) { return nodes_[id].get(); }

 private:
  static dcp::rt::SocketTransportOptions Options(dcp::rt::WireCodec codec) {
    dcp::rt::SocketTransportOptions o;
    o.num_nodes = kNodes;
    o.codec = std::move(codec);
    return o;
  }

  std::unique_ptr<dcp::coterie::CoterieRule> rule_;
  dcp::rt::SocketTransport transport_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
};

/// One attempt's completion, shared by the client thread and the done
/// callback (which may fire after the client gave up).
struct Slot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  dcp::storage::Version version = 0;
  std::vector<uint8_t> data;
  int64_t start_ns = 0;  ///< Closure began (traced runs).
  int64_t done_ns = 0;   ///< Done callback ran (traced runs).

  void Finish(bool traced, Status s, dcp::storage::Version v,
              std::vector<uint8_t> d) {
    std::lock_guard<std::mutex> lock(mu);
    if (traced) done_ns = NowNs();
    status = std::move(s);
    version = v;
    data = std::move(d);
    done = true;
    cv.notify_one();
  }
};

struct ClientStats {
  Samples write_ms, read_ms;  ///< Measured ops only.
  uint64_t window_committed = 0;
  int64_t start_ns = 0;  ///< When this client's measured ops began.
  uint64_t attempted = 0, failed = 0;
  uint64_t writes_committed = 0, reads_committed = 0;
  uint64_t conflict_retries = 0;
  uint64_t bad_reads = 0;
  int64_t end_ns = 0;
  std::vector<ClientOp> history;
};

class Client {
 public:
  /// Op ids (shared by the spans of one client op) count up from
  /// `op_base`.
  Client(int index, const SockConfig& cfg, uint64_t seed, SockCluster* cluster,
         bool traced, int64_t base_ns, uint64_t op_base)
      : index_(index),
        cfg_(cfg),
        rng_(MixSeed(seed, 100 + static_cast<uint64_t>(index))),
        cluster_(cluster),
        traced_(traced),
        base_ns_(base_ns),
        next_op_(op_base) {}

  /// Runs the warm-up ops, meets the other clients at `start`, then runs
  /// `measured_ops` timed ops.
  void Run(int measured_ops, std::latch* start) {
    for (int i = 0; i < kWarmupOpsPerClient; ++i) RunOp(false);
    start->arrive_and_wait();
    stats.start_ns = NowNs();
    for (int i = 0; i < measured_ops; ++i) RunOp(true);
    stats.end_ns = NowNs();
  }

  ClientStats stats;

 private:
  struct Attempt {
    bool finished = false;
    Status status;
    dcp::storage::Version version = 0;
    std::vector<uint8_t> data;
    int64_t post_ns = 0, start_ns = 0, done_ns = 0, wake_ns = 0;
  };

  double Ms(int64_t ns) const {
    return static_cast<double>(ns - base_ns_) / 1e6;
  }

  void RunOp(bool measured) {
    const uint64_t op_id = ++next_op_;
    const double u = rng_.Unit();
    const bool write = u >= cfg_.read_frac;
    // Client i owns the objects congruent to i modulo kClients.
    const ObjectId object = static_cast<ObjectId>(
        rng_.Below(kObjects / kClients) * kClients +
        static_cast<uint64_t>(index_));
    Update update;
    if (write && u < cfg_.read_frac + cfg_.total_write_frac) {
      std::vector<uint8_t> bytes(cfg_.object_size);
      for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng_.Next());
      update = Update::Total(std::move(bytes));
    } else if (write) {
      update = Update::Partial(rng_.Below(cfg_.object_size),
                               {static_cast<uint8_t>(rng_.Next())});
    }
    const OpKind kind = write ? OpKind::kWrite : OpKind::kRead;
    ++stats.attempted;

    int64_t first_post = 0;
    Attempt a;
    for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
      const NodeId coordinator = static_cast<NodeId>(rng_.Below(kNodes));
      a = RunAttempt(write, object, update, coordinator, op_id, kind);
      if (attempt == 1) first_post = a.post_ns;
      Record(write, object, update, a);
      if (!a.finished || !a.status.IsConflict()) break;
      ++stats.conflict_retries;
      std::this_thread::sleep_for(std::chrono::microseconds(20 * attempt));
    }

    const bool ok = a.finished && a.status.ok();
    if (!ok) ++stats.failed;
    if (ok && write) ++stats.writes_committed;
    if (ok && !write) {
      ++stats.reads_committed;
      if (a.data.size() != cfg_.object_size) ++stats.bad_reads;
    }
    if (traced_) {
      SpanLog::Get().Record(Span{op_id, first_post, a.wake_ns - first_post,
                                 SpanName::kClientOp, kind, false, 0});
    }
    if (ok && measured) {
      ++stats.window_committed;
      const double ms = static_cast<double>(a.wake_ns - first_post) / 1e6;
      (write ? stats.write_ms : stats.read_ms).Add(ms);
    }
  }

  Attempt RunAttempt(bool write, ObjectId object, const Update& update,
                     NodeId coordinator, uint64_t op_id, OpKind kind) {
    auto slot = std::make_shared<Slot>();
    ReplicaNode* node = cluster_->node(coordinator);
    const bool traced = traced_;
    Attempt a;
    a.post_ns = NowNs();
    cluster_->transport().runtime(coordinator)->Schedule(
        0, [node, slot, write, object, update, traced, op_id, kind]() mutable {
          if (traced) {
            std::lock_guard<std::mutex> lock(slot->mu);
            slot->start_ns = NowNs();
          }
          std::optional<ScopedOpBinding> bind;
          if (traced) bind.emplace(op_id, kind);
          if (write) {
            dcp::protocol::StartWrite(
                node, object, std::move(update), {}, nullptr,
                [slot, traced](Result<WriteOutcome> r) {
                  slot->Finish(traced, r.status(),
                               r.ok() ? r.value().version : 0, {});
                });
          } else {
            dcp::protocol::StartRead(
                node, object, nullptr, [slot, traced](Result<ReadOutcome> r) {
                  if (!r.ok()) return slot->Finish(traced, r.status(), 0, {});
                  slot->Finish(traced, r.status(), r.value().version,
                               std::move(r.value().data));
                });
          }
        });

    std::unique_lock<std::mutex> lock(slot->mu);
    a.finished =
        slot->cv.wait_for(lock, kAttemptBudget, [&] { return slot->done; });
    a.wake_ns = NowNs();
    if (a.finished) {
      a.status = slot->status;
      a.version = slot->version;
      a.data = std::move(slot->data);
      a.start_ns = slot->start_ns;
      a.done_ns = slot->done_ns;
    }
    lock.unlock();

    if (traced_ && a.finished) {
      SpanLog& log = SpanLog::Get();
      log.Record(Span{op_id, a.post_ns, a.start_ns - a.post_ns,
                      SpanName::kPostWait, kind, false, 0});
      log.Record(Span{op_id, a.start_ns, a.done_ns - a.start_ns,
                      SpanName::kProtocolOp, kind, false, 0});
      log.Record(Span{op_id, a.done_ns, a.wake_ns - a.done_ns,
                      SpanName::kCompletionWait, kind, false, 0});
    }
    return a;
  }

  /// Appends one attempt to the client's history.
  void Record(bool write, ObjectId object, const Update& update,
              const Attempt& a) {
    ClientOp op;
    op.client = static_cast<uint64_t>(index_);
    op.object = object;
    op.kind = write ? ClientOp::Kind::kWrite : ClientOp::Kind::kRead;
    op.invoked_at = Ms(a.post_ns);
    op.returned_at = Ms(a.wake_ns);
    if (write) op.update = update;
    if (!a.finished) {
      op.outcome = ClientOp::Outcome::kOpen;
    } else if (a.status.ok()) {
      op.outcome = ClientOp::Outcome::kOk;
      op.version = a.version;
      if (!write) op.data = a.data;
    } else {
      op.outcome = IsDefiniteFailure(a.status) ? ClientOp::Outcome::kFailed
                                               : ClientOp::Outcome::kOpen;
    }
    stats.history.push_back(std::move(op));
  }

  const int index_;
  const SockConfig cfg_;
  InputRng rng_;
  SockCluster* cluster_;
  const bool traced_;
  const int64_t base_ns_;
  uint64_t next_op_;
};

/// What a phase (a sequence of rounds) measured. The per-layer counts are
/// summed over rounds.
struct PhaseOut {
  RoundSeries series;
  uint64_t writes_committed = 0, reads_committed = 0, conflict_retries = 0;
  dcp::rt::TransportCounters counters;
  uint64_t pool_hits = 0, pool_misses = 0;
  std::map<std::string, double> node_counters;
  MessageLedger::Counts ledger;
  uint64_t frames_encoded = 0, bytes_encoded = 0;
  std::vector<Span> spans;
};

/// One round: a fresh cluster, warm-up, `cfg.ops_per_round` measured ops
/// from the two clients, stop, then the output checks of the round.
void RunRound(const SockConfig& cfg, uint64_t seed, int round, bool traced,
              const std::string& where, PhaseOut* out, Report* report) {
  MessageLedger ledger(/*replies_decoded=*/true);
  auto codec_counts = std::make_shared<CodecCounts>();
  dcp::rt::WireCodec codec = dcp::protocol::MakeWireCodec();
  if (traced) codec = TimedCodec(std::move(codec), &ledger, codec_counts);

  const int64_t t0 = NowNs();
  SockCluster cluster(cfg, std::move(codec));
  if (traced) {
    cluster.transport().set_send_tap(
        [&ledger](const dcp::net::Message& m) { ledger.OnSend(m); });
  }
  Status started = cluster.transport().Start();
  out->series.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  if (!started.ok()) {
    report->Fail(where + "transport start: " + started.ToString());
    return;
  }

  const int64_t base_ns = NowNs();
  std::latch start(kClients);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, cfg, MixSeed(seed, static_cast<uint64_t>(i)), &cluster, traced,
        base_ns,
        (static_cast<uint64_t>(round + 1) << 32) |
            (static_cast<uint64_t>(i + 1) << 28)));
  }
  for (auto& c : clients) {
    threads.emplace_back([&c, &cfg, &start] {
      c->Run(cfg.ops_per_round / kClients, &start);
    });
  }
  for (std::thread& t : threads) t.join();

  cluster.transport().Stop();
  const dcp::rt::TransportCounters c = cluster.transport().counters();
  out->counters.frames_sent += c.frames_sent;
  out->counters.frames_received += c.frames_received;
  out->counters.frames_dropped += c.frames_dropped;
  out->counters.decode_failures += c.decode_failures;
  out->counters.send_queue_overflows += c.send_queue_overflows;
  out->counters.writev_calls += c.writev_calls;
  out->pool_hits += cluster.transport().buffer_pool().hits();
  out->pool_misses += cluster.transport().buffer_pool().misses();
  for (uint32_t i = 0; i < kNodes; ++i) {
    const auto& registry = cluster.transport().runtime(NodeId{i})->metrics();
    for (const auto& [name, counter] : registry.counters()) {
      AccumulateCounter(&out->node_counters, name,
                        static_cast<double>(counter->value()));
    }
  }
  out->ledger.Add(ledger.counts());
  out->frames_encoded += codec_counts->frames_encoded.load();
  out->bytes_encoded += codec_counts->bytes_encoded.load();

  int64_t start_ns = clients[0]->stats.start_ns, end_ns = 0;
  uint64_t window_committed = 0, bad_reads = 0;
  Samples write_ms, read_ms;
  std::vector<ClientOp> ops;
  for (auto& client : clients) {
    ClientStats& s = client->stats;
    write_ms.Append(s.write_ms);
    read_ms.Append(s.read_ms);
    window_committed += s.window_committed;
    out->series.attempted += s.attempted;
    out->series.failed += s.failed;
    out->writes_committed += s.writes_committed;
    out->reads_committed += s.reads_committed;
    out->conflict_retries += s.conflict_retries;
    bad_reads += s.bad_reads;
    start_ns = std::min(start_ns, s.start_ns);
    end_ns = std::max(end_ns, s.end_ns);
    std::move(s.history.begin(), s.history.end(), std::back_inserter(ops));
  }
  const double seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  out->series.measured_s += seconds;
  out->series.ops_per_s.push_back(
      Ratio(static_cast<double>(window_committed), seconds));
  out->series.write_ms.push_back(std::move(write_ms));
  out->series.read_ms.push_back(std::move(read_ms));

  // --- output checks (outside the timed window) ---
  if (c.frames_dropped != 0 || c.decode_failures != 0 ||
      c.send_queue_overflows != 0) {
    report->Fail(where + "transport lost frames: dropped " +
                 std::to_string(c.frames_dropped) + ", decode failures " +
                 std::to_string(c.decode_failures) + ", queue overflows " +
                 std::to_string(c.send_queue_overflows));
  }
  if (bad_reads != 0) {
    report->Fail(where + std::to_string(bad_reads) +
                 " reads returned other than " +
                 std::to_string(cfg.object_size) + " bytes");
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ClientOp& a, const ClientOp& b) {
                     return a.invoked_at < b.invoked_at;
                   });
  dcp::analysis::ClientHistory history;
  for (ClientOp& op : ops) history.Add(std::move(op));
  dcp::analysis::AuditOptions audit;
  audit.mode = dcp::analysis::AuditMode::kLinearizable;
  audit.initial_value = std::vector<uint8_t>(cfg.object_size, 0);
  const dcp::analysis::AuditVerdict verdict =
      dcp::analysis::AuditHistory(history, audit);
  if (!verdict.ok) {
    report->Fail(where + "linearizability audit over " +
                 std::to_string(history.ops().size()) +
                 " ops: " + verdict.ToString().substr(0, 2000));
  }
}

/// Rounds until `seconds` of measured time; every op of every round is
/// audited.
PhaseOut RunPhase(const SockConfig& cfg, uint64_t seed, double seconds,
                  bool traced, const char* phase, Report* report) {
  PhaseOut out;
  SpanLog::Get().set_enabled(traced);
  int rounds = 0;
  while (rounds == 0 || out.series.measured_s < seconds) {
    const std::string where = std::string(phase) + " round " +
                              std::to_string(rounds) + ": ";
    RunRound(cfg, MixSeed(seed, static_cast<uint64_t>(rounds)), rounds, traced,
             where, &out, report);
    out.series.EndRound();
    ++rounds;
    if (!report->correct()) break;
  }
  SpanLog::Get().set_enabled(false);
  if (traced) out.spans = SpanLog::Get().Collect();
  report->notes.push_back(std::string(phase) + ": " + std::to_string(rounds) +
                          " rounds, " + std::to_string(out.series.attempted) +
                          " client ops, every attempt audited");
  return out;
}

}  // namespace

void RunSocketWorkload(const RunOptions& o, Report* r) {
  const SockConfig cfg = ConfigFor(o.workload);
  if (!o.trace) {
    PhaseOut p = RunPhase(cfg, o.seed, o.seconds, false, "run", r);
    r->AddEndToEnd(p.series);
    return;
  }

  // Traced run: an untraced reference phase on the same inputs gives the
  // tracing overhead; every per-layer number comes from the traced phase.
  PhaseOut ref = RunPhase(cfg, o.seed, std::max(1.0, o.seconds / 2),
                          false, "untraced reference", r);
  PhaseOut p = RunPhase(cfg, o.seed, o.seconds, true, "traced", r);
  r->attempted = ref.series.attempted + p.series.attempted;
  r->failed = ref.series.failed + p.series.failed;

  LayerValues v;
  const double writes = static_cast<double>(p.writes_committed);
  const double reads = static_cast<double>(p.reads_committed);
  const double ops = writes + reads;
  Samples post = SpanDurations(p.spans, SpanName::kPostWait, OpKind::kOther,
                               true, 1e-3);
  Samples completion = SpanDurations(p.spans, SpanName::kCompletionWait,
                                     OpKind::kOther, true, 1e-3);
  Samples encode = SpanDurations(p.spans, SpanName::kEncode, OpKind::kOther,
                                 true, 1.0);
  Samples decode = SpanDurations(p.spans, SpanName::kDecode, OpKind::kOther,
                                 true, 1.0);
  size_t stalled_posts = 0;
  for (const Span& span : p.spans) {
    if (span.name == SpanName::kPostWait && span.dur_ns >= 50'000'000) {
      ++stalled_posts;
    }
  }
  r->notes.push_back("posts that waited >= 50 ms: " +
                     std::to_string(stalled_posts) + " of " +
                     std::to_string(post.count()));
  v.post_wait_us_p50 = post.Percentile(50);
  v.post_wait_us_p99 = post.Percentile(99);
  v.completion_wait_us_p50 = completion.Percentile(50);
  v.encode_ns_p50 = encode.Percentile(50);
  v.decode_ns_p50 = decode.Percentile(50);
  v.sample_counts = {{"runtime.post_wait_us_p50", post.count()},
                     {"runtime.post_wait_us_p99", post.count()},
                     {"runtime.completion_wait_us_p50", completion.count()},
                     {"codec.encode_ns_p50", encode.count()},
                     {"codec.decode_ns_p50", decode.count()}};
  v.frames_per_op = Ratio(static_cast<double>(p.counters.frames_sent), ops);
  v.frames_per_writev = Ratio(static_cast<double>(p.counters.frames_sent),
                              static_cast<double>(p.counters.writev_calls));
  v.pool_hit_rate = Ratio(static_cast<double>(p.pool_hits),
                          static_cast<double>(p.pool_hits + p.pool_misses));
  v.bytes_per_frame = Ratio(static_cast<double>(p.bytes_encoded),
                            static_cast<double>(p.frames_encoded));
  v.bytes_per_op = Ratio(static_cast<double>(p.bytes_encoded), ops);
  FillProtocolLayers(ReadProtocolCounts(p.node_counters), p.ledger, p.spans,
                     writes, reads, static_cast<double>(p.conflict_retries),
                     1e-3, &v);

  v.ops_per_s_traced = Median(p.series.ops_per_s);
  v.ops_per_s_untraced = Median(ref.series.ops_per_s);
  Samples client_w = SpanDurations(p.spans, SpanName::kClientOp,
                                   OpKind::kWrite, false, 1e-3);
  v.client_write_us_p50 = client_w.Percentile(50);
  v.sample_counts.push_back({"trace.client_write_us_p50", client_w.count()});
  const double layer_sum =
      SpanDurations(p.spans, SpanName::kPostWait, OpKind::kWrite, false, 1e-3)
          .Percentile(50) +
      v.write_us_p50 +
      SpanDurations(p.spans, SpanName::kCompletionWait, OpKind::kWrite, false,
                    1e-3)
          .Percentile(50);
  // Within the traced run: do the layers account for the client's time?
  v.layer_sum_frac = Ratio(layer_sum, v.client_write_us_p50);
  AddLayerMetrics(v, r);

  const std::string trace_path = o.out_dir + "/" + o.workload + ".trace.json";
  if (WriteChromeTrace(p.spans, 50000, trace_path)) {
    r->notes.push_back("spans (first 50000 of " +
                       std::to_string(p.spans.size()) + ") written to " +
                       trace_path);
  }
}

}  // namespace perfbench
