#include "harness/socket_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "protocol/invariants.h"
#include "protocol/wire_codec.h"

namespace dcp::harness {

using protocol::ReadOutcome;
using protocol::WriteOutcome;

namespace {

rt::SocketTransportOptions TransportOptions(const SocketClusterOptions& o) {
  rt::SocketTransportOptions t;
  t.num_nodes = o.num_nodes;
  t.num_workers = o.num_workers;
  t.codec = protocol::MakeWireCodec();
  t.max_batch_frames = o.max_batch_frames;
  t.pool_buffers = o.pool_buffers;
  return t;
}

// The sync wrappers' budgets are real time.
using Clock = std::chrono::steady_clock;  // dcp-lint: allow(wall-clock)

/// Returns once `holds(node)`, evaluated on the node's own loop, reads
/// true (then true), or at `deadline` (then false). Probes back off from
/// 50 us to 2 ms, so the wait does not crowd the loop it is waiting on.
template <typename Pred>
bool AwaitOnLoop(protocol::ReplicaNode* node, Pred holds,
                 Clock::time_point deadline) {
  auto backoff = std::chrono::microseconds(50);
  for (;;) {
    auto probe = std::make_shared<std::promise<bool>>();
    std::future<bool> answer = probe->get_future();
    node->runtime()->Schedule(0, [node, holds, probe] {
      probe->set_value(holds(node));
    });
    if (answer.wait_until(deadline) != std::future_status::ready) {
      return false;
    }
    if (answer.get()) return true;
    if (Clock::now() + backoff >= deadline) return false;
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, decltype(backoff)(2000));
  }
}

bool NoCallsInFlight(protocol::ReplicaNode* node) {
  return node->rpc().outstanding_calls() == 0;
}

/// Posts `start(node, done)` onto `node`'s runtime (protocol code must
/// run on its node's execution context) and blocks until `done` fires or
/// the harness's per-op budget runs out. An operation answers before its
/// commit or unlock has reached the replicas, so the call then also waits
/// (within another budget) until the coordinator's calls have drained: a
/// synchronous caller inspects state or issues its next call after the
/// operation's tail has landed. The promise lives in the posted closure
/// (shared_ptr), so a timed-out operation completing late writes into an
/// orphaned promise, not a dead frame.
template <typename R, typename Start>
R RunOnNode(protocol::ReplicaNode* node, rt::Time timeout_ms,
            const char* what, Start start) {
  auto promise = std::make_shared<std::promise<R>>();
  std::future<R> future = promise->get_future();
  node->runtime()->Schedule(0, [node, promise, start]() mutable {
    start(node, [promise](R r) { promise->set_value(std::move(r)); });
  });
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(timeout_ms));
  if (future.wait_for(budget) != std::future_status::ready) {
    return Status::TimedOut(std::string("socket ") + what +
                            " exceeded the harness budget");
  }
  AwaitOnLoop(node, NoCallsInFlight, Clock::now() + budget);
  return future.get();
}

/// Repeats `attempt()` while it fails with a lock conflict, up to
/// `max_attempts` times, with linear real-time backoff.
template <typename R, typename Attempt>
R RetryOnConflict(int max_attempts, Attempt attempt) {
  R result = Status::InvalidArgument("max_attempts must be >= 1");
  for (int i = 1; i <= max_attempts; ++i) {
    result = attempt();
    if (result.ok() || !result.status().IsConflict()) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(5L * i));
  }
  return result;
}

}  // namespace

SocketCluster::SocketCluster(SocketClusterOptions options)
    : options_(std::move(options)),
      rule_(protocol::MakeCoterieRule(options_.coterie)),
      transport_(TransportOptions(options_)) {
  protocol::ClusterOptions deployment;
  deployment.num_nodes = options_.num_nodes;
  deployment.num_objects = options_.num_objects;
  deployment.replication_factor = options_.replication_factor;
  deployment.seed = options_.placement_seed;
  deployment.initial_value = options_.initial_value;
  if (deployment.initial_value.empty()) deployment.initial_value = {0};
  deployment.node_options = options_.node_options;
  table_ = protocol::MakeObjectTable(deployment);
  nodes_ = protocol::BuildNodes(&transport_, deployment, rule_.get(),
                                table_.get());
}

SocketCluster::~SocketCluster() {
  // Stop the threads before any node is destroyed: a live loop may be
  // deep inside protocol code.
  transport_.Stop();
}

Status SocketCluster::Start() { return transport_.Start(); }

void SocketCluster::Stop() { transport_.Stop(); }

void SocketCluster::SetNodeUp(NodeId id, bool up) {
  transport_.SetNodeUp(id, up);
}

bool SocketCluster::AwaitIdle(rt::Time timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  auto misses = std::make_shared<std::atomic<int>>(0);
  auto idle = [misses](protocol::ReplicaNode* node) {
    const bool is_idle = NoCallsInFlight(node) &&
                         !node->has_staged_transaction() &&
                         !node->HasPendingPropagation();
    if (!is_idle) misses->fetch_add(1);
    return is_idle;
  };
  // Work on one node can hand work to another (a commit leaves
  // propagation duty at its participants), so repeat until one pass
  // finds every node idle at its first probe.
  for (;;) {
    const int before = misses->load();
    for (auto& node : nodes_) {
      if (!AwaitOnLoop(node.get(), idle, deadline)) return false;
    }
    if (misses->load() == before) return true;
  }
}

Status SocketCluster::CheckEpochInvariants() const {
  return protocol::CheckEpochInvariants(nodes_);
}

Status SocketCluster::CheckReplicaConsistency() const {
  return protocol::CheckReplicaConsistency(nodes_);
}

Result<WriteOutcome> SocketCluster::WriteSync(NodeId coordinator,
                                              storage::ObjectId object,
                                              storage::Update update) {
  return RunOnNode<Result<WriteOutcome>>(
      nodes_[coordinator].get(), options_.op_timeout_ms, "write",
      [object, update = std::move(update),
       write_options = options_.write_options](
          protocol::ReplicaNode* node, protocol::WriteDone done) mutable {
        protocol::StartWrite(node, object, std::move(update), write_options,
                             /*history=*/nullptr, std::move(done));
      });
}

Result<ReadOutcome> SocketCluster::ReadSync(NodeId coordinator,
                                            storage::ObjectId object) {
  return RunOnNode<Result<ReadOutcome>>(
      nodes_[coordinator].get(), options_.op_timeout_ms, "read",
      [object](protocol::ReplicaNode* node, protocol::ReadDone done) {
        protocol::StartRead(node, object, /*history=*/nullptr,
                            std::move(done));
      });
}

Status SocketCluster::CheckEpochSync(NodeId initiator) {
  return RunOnNode<Status>(
      nodes_[initiator].get(), options_.op_timeout_ms, "epoch check",
      [](protocol::ReplicaNode* node, protocol::EpochCheckDone done) {
        protocol::StartEpochCheck(node, std::move(done));
      });
}

Status SocketCluster::CheckObjectEpochSync(NodeId initiator,
                                           storage::ObjectId object) {
  return RunOnNode<Status>(
      nodes_[initiator].get(), options_.op_timeout_ms, "epoch check",
      [object](protocol::ReplicaNode* node, protocol::EpochCheckDone done) {
        protocol::StartObjectEpochCheck(node, object, std::move(done));
      });
}

Result<WriteOutcome> SocketCluster::WriteSyncRetry(NodeId coordinator,
                                                   storage::ObjectId object,
                                                   storage::Update update,
                                                   int max_attempts) {
  return RetryOnConflict<Result<WriteOutcome>>(max_attempts, [&] {
    return WriteSync(coordinator, object, update);
  });
}

Result<ReadOutcome> SocketCluster::ReadSyncRetry(NodeId coordinator,
                                                 storage::ObjectId object,
                                                 int max_attempts) {
  return RetryOnConflict<Result<ReadOutcome>>(
      max_attempts, [&] { return ReadSync(coordinator, object); });
}

}  // namespace dcp::harness
