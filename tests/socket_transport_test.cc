// Threaded smoke test for the socket transport backend: five
// ReplicaNodes over a real loopback TCP mesh driving the actual
// protocol stack — total writes, partial writes, reads, and an epoch
// change around a failed node. Each protocol scenario ends by stopping
// the cluster and running the shared invariant checkers (Lemma 1 and
// replica consistency) over the nodes' final state. This is the suite
// the TSan CI lane runs under -fsanitize=thread.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "harness/socket_cluster.h"
#include "protocol/wire_codec.h"
#include "storage/versioned_object.h"

namespace dcp::harness {
namespace {

using storage::Update;

SocketClusterOptions SmokeOptions() {
  SocketClusterOptions o;
  o.num_nodes = 5;
  o.coterie = protocol::CoterieKind::kMajority;
  o.initial_value = {0, 0, 0, 0, 0, 0, 0, 0};
  return o;
}

/// Stops the cluster, then checks the epoch and replica invariants over
/// the quiesced nodes.
void StopAndCheckInvariants(SocketCluster& cluster) {
  cluster.Stop();
  Status epochs = cluster.CheckEpochInvariants();
  EXPECT_TRUE(epochs.ok()) << epochs.ToString();
  Status replicas = cluster.CheckReplicaConsistency();
  EXPECT_TRUE(replicas.ok()) << replicas.ToString();
}

TEST(SocketTransportTest, StartStopIsCleanAndIdempotent) {
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Start().ok());  // Second Start is a no-op.
  cluster.Stop();
  cluster.Stop();  // Second Stop is a no-op.
}

TEST(SocketTransportTest, WritesReadsAndPartialWritesOverSockets) {
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());

  // Total write from node 0.
  auto w1 = cluster.WriteSyncRetry(0, 0, Update::Total({1, 2, 3, 4}), 10);
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  EXPECT_EQ(w1->version, 1u);

  // Partial write from a different coordinator: the paper's partial-write
  // support, over real sockets.
  auto w2 = cluster.WriteSyncRetry(2, 0, Update::Partial(1, {9, 9}), 10);
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  EXPECT_EQ(w2->version, 2u);

  // Every coordinator reads back the merged value.
  for (NodeId reader = 0; reader < cluster.num_nodes(); ++reader) {
    auto r = cluster.ReadSync(reader);
    ASSERT_TRUE(r.ok()) << "reader " << reader << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->version, 2u) << "reader " << reader;
    EXPECT_EQ(r->data, (std::vector<uint8_t>{1, 9, 9, 4})) << "reader "
                                                           << reader;
  }

  // Real frames crossed the wire (not just self-delivery).
  EXPECT_GT(cluster.transport().frames_sent(), 0u);
  EXPECT_GT(cluster.transport().frames_received(), 0u);
  StopAndCheckInvariants(cluster);
}

TEST(SocketTransportTest, EpochChangeExcludesAndReadmitsAFailedNode) {
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());

  auto w1 = cluster.WriteSyncRetry(0, 0, Update::Total({7, 7}), 10);
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();

  // Node 4 fail-stops; the epoch check shrinks the epoch to the
  // respondents {0,1,2,3}.
  cluster.SetNodeUp(4, false);
  Status s = cluster.CheckEpochSync(0);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(0).epoch().list.ToVector(),
            (std::vector<NodeId>{0, 1, 2, 3}));

  // The protocol keeps serving writes and reads without node 4.
  auto w2 = cluster.WriteSyncRetry(1, 0, Update::Partial(1, {8}), 10);
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  auto r = cluster.ReadSync(3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data, (std::vector<uint8_t>{7, 8}));

  // Node 4 returns; a second epoch check readmits it (marked stale, then
  // caught up by propagation). The check starts on a quiet cluster: an
  // epoch install refuses a replica that w2's propagation still locks or
  // has moved since the poll.
  cluster.SetNodeUp(4, true);
  ASSERT_TRUE(cluster.AwaitIdle(SmokeOptions().op_timeout_ms));
  s = cluster.CheckEpochSync(2);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(2).epoch().list.ToVector(),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));

  // A read coordinated by the readmitted node sees the current value.
  auto r4 = cluster.ReadSync(4);
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  EXPECT_EQ(r4->data, (std::vector<uint8_t>{7, 8}));
  StopAndCheckInvariants(cluster);
}

TEST(SocketTransportTest, ConcurrentCoordinatorsMakeProgress) {
  // Writers on distinct coordinators race for the same object from real
  // threads; conflict-retry must let every one land eventually.
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());

  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  std::vector<Status> results(kWriters, Status::OK());
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&cluster, &results, i] {
      auto w = cluster.WriteSyncRetry(
          NodeId{static_cast<uint32_t>(i)}, 0,
          Update::Partial(static_cast<uint64_t>(i), {uint8_t(i + 1)}),
          /*max_attempts=*/50);
      results[static_cast<size_t>(i)] = w.status();
    });
  }
  for (auto& t : writers) t.join();
  for (int i = 0; i < kWriters; ++i) {
    EXPECT_TRUE(results[static_cast<size_t>(i)].ok())
        << "writer " << i << ": " << results[static_cast<size_t>(i)].ToString();
  }

  auto r = cluster.ReadSync(0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, static_cast<storage::Version>(kWriters));
  EXPECT_EQ(std::vector<uint8_t>(r->data.begin(), r->data.begin() + kWriters),
            (std::vector<uint8_t>{1, 2, 3, 4}));
  StopAndCheckInvariants(cluster);
}

TEST(SocketTransportTest, ShardedMultiObjectClusterOverSockets) {
  // Sharded deployment over the real transport: objects live on
  // placement-chosen subsets with private epoch lineages.
  SocketClusterOptions o = SmokeOptions();
  o.num_objects = 16;
  o.replication_factor = 3;
  SocketCluster cluster(o);
  ASSERT_TRUE(cluster.Start().ok());
  const protocol::ObjectTable* table = cluster.table();
  ASSERT_NE(table, nullptr);

  for (storage::ObjectId obj = 0; obj < o.num_objects; ++obj) {
    NodeId coord = table->placement(obj).ranking[0];
    auto w = cluster.WriteSyncRetry(
        coord, obj, Update::Total({static_cast<uint8_t>(obj), 0xAB}), 10);
    ASSERT_TRUE(w.ok()) << "object " << obj << ": " << w.status().ToString();
    EXPECT_EQ(w->version, 1u);
    // Read back through a different home replica.
    NodeId reader = table->placement(obj).ranking[1];
    auto r = cluster.ReadSync(reader, obj);
    ASSERT_TRUE(r.ok()) << "object " << obj << ": " << r.status().ToString();
    EXPECT_EQ(r->data,
              (std::vector<uint8_t>{static_cast<uint8_t>(obj), 0xAB}));
  }

  // The group-wide epoch check has no meaning here and must not succeed.
  EXPECT_FALSE(cluster.CheckEpochSync(0).ok());
  StopAndCheckInvariants(cluster);
}

TEST(SocketTransportTest, ShardedScopedEpochCheckShrinksOneLineage) {
  SocketClusterOptions o = SmokeOptions();
  o.num_objects = 16;
  o.replication_factor = 3;
  SocketCluster cluster(o);
  ASSERT_TRUE(cluster.Start().ok());
  const protocol::ObjectTable* table = cluster.table();
  ASSERT_NE(table, nullptr);

  // One object homed on node 4, one not — their lineages must move
  // independently.
  storage::ObjectId on4 = o.num_objects, off4 = o.num_objects;
  for (storage::ObjectId obj = 0; obj < o.num_objects; ++obj) {
    if (table->placement(obj).replicas.Contains(4)) {
      if (on4 == o.num_objects) on4 = obj;
    } else if (off4 == o.num_objects) {
      off4 = obj;
    }
  }
  ASSERT_LT(on4, o.num_objects);
  ASSERT_LT(off4, o.num_objects);

  cluster.SetNodeUp(4, false);
  NodeSet live_home = table->placement(on4).replicas;
  live_home.Erase(4);
  NodeId initiator = live_home.NthMember(0);
  Status s = cluster.CheckObjectEpochSync(initiator, on4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(initiator).store(on4).epoch_number(), 1u);
  EXPECT_EQ(cluster.node(initiator).store(on4).epoch_list(), live_home);
  // The other object's lineage is untouched by node 4's failure.
  NodeId other = table->placement(off4).ranking[0];
  EXPECT_EQ(cluster.node(other).store(off4).epoch_number(), 0u);

  // Writes keep landing in the shrunken lineage.
  auto w = cluster.WriteSyncRetry(initiator, on4, Update::Total({5, 5}), 10);
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  // Node 4 returns; a second scoped check readmits it.
  cluster.SetNodeUp(4, true);
  s = cluster.CheckObjectEpochSync(initiator, on4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.node(initiator).store(on4).epoch_list(),
            table->placement(on4).replicas);
  auto r = cluster.ReadSync(live_home.NthMember(1), on4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data, (std::vector<uint8_t>{5, 5}));
  StopAndCheckInvariants(cluster);
}

TEST(SocketTransportTest, IdlePostsDoNotWaitOutThePollTimeout) {
  // A Schedule(0) posted from a non-node thread must run promptly on an
  // idle cluster: it may land while the I/O thread is scanning timers
  // after waking for a due one, and must still interrupt the next poll
  // rather than wait out its ~100 ms cap. Each round arms a short timer on
  // the last node (the scan visits it last) and, the moment it runs,
  // posts to node 0 (already scanned) — the window where a stale
  // deadline comparison used to skip the wakeup.
  SocketCluster cluster(SmokeOptions());
  ASSERT_TRUE(cluster.Start().ok());
  rt::Runtime* last = cluster.transport().runtime(cluster.num_nodes() - 1);
  rt::Runtime* first = cluster.transport().runtime(0);
  constexpr int kRounds = 300;
  int slow = 0;
  for (int i = 0; i < kRounds; ++i) {
    auto timer_ran = std::make_shared<std::promise<void>>();
    std::future<void> timer_done = timer_ran->get_future();
    last->Schedule(2.0, [timer_ran] { timer_ran->set_value(); });
    timer_done.wait();

    auto post_ran = std::make_shared<std::promise<void>>();
    std::future<void> post_done = post_ran->get_future();
    const auto posted = std::chrono::steady_clock::now();  // dcp-lint: allow(wall-clock) — real-time wakeup latency
    first->Schedule(0, [post_ran] { post_ran->set_value(); });
    post_done.wait();
    const auto waited = std::chrono::steady_clock::now() - posted;  // dcp-lint: allow(wall-clock) — real-time wakeup latency
    if (waited >= std::chrono::milliseconds(50)) ++slow;
  }
  EXPECT_EQ(slow, 0) << slow << " of " << kRounds
                     << " idle posts waited >= 50 ms for the I/O thread";
}

TEST(SocketTransportTest, DefaultLoopCountStaysWithinItsClamps) {
  // The default is sized from the CPUs this process may run on, clamped
  // to [2, 8] and to the node count; an explicit count is taken as is.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const uint32_t cpus = static_cast<uint32_t>(CPU_COUNT(&set));
  for (uint32_t nodes : {1u, 2u, 3u, 9u, 64u}) {
    rt::SocketTransportOptions o;
    o.num_nodes = nodes;
    o.codec = protocol::MakeWireCodec();
    rt::SocketTransport transport(o);
    const uint32_t loops = transport.num_loops();
    EXPECT_GE(loops, 2u) << nodes << " nodes";
    EXPECT_LE(loops, 8u) << nodes << " nodes";
    EXPECT_LE(loops, std::max(2u, std::min(nodes, cpus / 2)))
        << nodes << " nodes, " << cpus << " usable CPUs";
  }
  rt::SocketTransportOptions o;
  o.num_nodes = 9;
  o.num_workers = 3;
  o.codec = protocol::MakeWireCodec();
  EXPECT_EQ(rt::SocketTransport(o).num_loops(), 3u);
}

/// Records, per node, which OS threads ran the node's callbacks and
/// whether two of them ever overlapped.
class ActorProbe {
 public:
  explicit ActorProbe(uint32_t nodes) : nodes_(nodes) {}

  void Enter(NodeId n) {
    if (nodes_[n].active.fetch_add(1) != 0) overlaps_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[n].threads.insert(std::this_thread::get_id());
    ++nodes_[n].calls;
  }
  void Exit(NodeId n) { nodes_[n].active.fetch_sub(1); }

  /// Wraps `fn` so it runs inside a probe scope for node `n`.
  std::function<void()> Probed(NodeId n, std::function<void()> fn) {
    return [this, n, fn = std::move(fn)] {
      Enter(n);
      fn();
      Exit(n);
    };
  }

  int overlaps() const { return overlaps_.load(); }
  std::set<std::thread::id> threads(NodeId n) const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_[n].threads;
  }
  uint64_t calls(NodeId n) const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_[n].calls;
  }

 private:
  struct PerNode {
    std::atomic<int> active{0};
    std::set<std::thread::id> threads;
    uint64_t calls = 0;
  };
  mutable std::mutex mu_;
  std::vector<PerNode> nodes_;
  std::atomic<int> overlaps_{0};
};

/// Delivers to the node's RPC runtime inside a probe scope.
class ProbedSink : public net::MessageSink {
 public:
  ProbedSink(ActorProbe* probe, NodeId node, net::MessageSink* inner)
      : probe_(probe), node_(node), inner_(inner) {}
  void Deliver(net::Message msg) override {
    probe_->Enter(node_);
    inner_->Deliver(std::move(msg));
    probe_->Exit(node_);
  }

 private:
  ActorProbe* probe_;
  NodeId node_;
  net::MessageSink* inner_;
};

TEST(SocketTransportTest, EachNodeRunsOnOneThreadWithoutOverlap) {
  // The actor contract the run-to-completion loops provide: every
  // Deliver, posted closure and timer callback of a node runs on one OS
  // thread for the transport's lifetime (the loop that owns the node),
  // and no two of them overlap — under protocol traffic from several
  // client threads plus posts and timers from foreign threads and from
  // other nodes' callbacks.
  SocketClusterOptions o = SmokeOptions();
  o.num_nodes = 7;
  o.num_objects = 4;
  o.num_workers = 3;
  SocketCluster cluster(o);
  rt::SocketTransport& transport = cluster.transport();
  const uint32_t n = cluster.num_nodes();
  ActorProbe probe(n);
  std::vector<std::unique_ptr<ProbedSink>> sinks;
  for (NodeId i = 0; i < n; ++i) {
    sinks.push_back(
        std::make_unique<ProbedSink>(&probe, i, &cluster.node(i).rpc()));
    transport.Register(i, sinks.back().get());
  }
  ASSERT_TRUE(cluster.Start().ok());

  std::atomic<bool> done{false};
  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 60;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kOpsPerClient / 2; ++i) {
        const NodeId coord = static_cast<NodeId>((c + 3 * i) % n);
        const storage::ObjectId obj = static_cast<storage::ObjectId>(c);
        auto w = cluster.WriteSyncRetry(
            coord, obj, Update::Partial(0, {static_cast<uint8_t>(i)}), 50);
        if (w.ok()) committed.fetch_add(1);
        if (cluster.ReadSyncRetry((coord + 1) % n, obj, 50).ok()) {
          committed.fetch_add(1);
        }
      }
    });
  }
  // Foreign posts and timers; each one, from its node's thread, also
  // posts to the next node (a cross-node post between loops or within
  // one loop).
  threads.emplace_back([&] {
    for (uint32_t i = 0; !done.load(); ++i) {
      const NodeId target = i % n;
      const NodeId next = (target + 1) % n;
      rt::Runtime* next_rt = transport.runtime(next);
      auto chained = probe.Probed(target, [&probe, next, next_rt] {
        next_rt->Schedule(0, probe.Probed(next, [] {}));
        next_rt->Schedule(0.2, probe.Probed(next, [] {}));
      });
      transport.runtime(target)->Schedule((i % 3) * 0.1, chained);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  done.store(true);
  threads.back().join();
  // Let the last timers fire before the loops stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cluster.Stop();

  // Traffic flowed; an op that outlived its 100 ms RPC timeout on a
  // stalled host may fail, and the contract below must hold either way.
  EXPECT_GT(committed.load(), kClients * kOpsPerClient / 2);
  EXPECT_EQ(probe.overlaps(), 0);
  const uint32_t k = transport.num_loops();
  ASSERT_EQ(k, 3u);
  std::set<std::thread::id> all;
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_GT(probe.calls(i), 0u) << "node " << i;
    const std::set<std::thread::id> mine = probe.threads(i);
    EXPECT_EQ(mine.size(), 1u) << "node " << i << " ran on " << mine.size()
                               << " threads";
    // Loop i % k owns node i.
    EXPECT_EQ(mine, probe.threads(i % k)) << "node " << i;
    all.insert(mine.begin(), mine.end());
  }
  EXPECT_EQ(all.size(), k);
  StopAndCheckInvariants(cluster);
}

}  // namespace
}  // namespace dcp::harness
