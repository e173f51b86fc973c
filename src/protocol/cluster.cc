#include "protocol/cluster.h"

#include <string>
#include <utility>

#include "coterie/hierarchical.h"
#include "coterie/majority.h"
#include "coterie/tree.h"
#include "protocol/invariants.h"

namespace dcp::protocol {

std::unique_ptr<coterie::CoterieRule> MakeCoterieRule(CoterieKind kind) {
  switch (kind) {
    case CoterieKind::kGrid:
      return std::make_unique<coterie::GridCoterie>();
    case CoterieKind::kGridUnoptimized: {
      coterie::GridOptions opts;
      opts.short_column_optimization = false;
      return std::make_unique<coterie::GridCoterie>(opts);
    }
    case CoterieKind::kGridColumnSafe: {
      coterie::GridOptions opts;
      opts.layout = coterie::GridLayout::kColumnSafe;
      return std::make_unique<coterie::GridCoterie>(opts);
    }
    case CoterieKind::kMajority:
      return std::make_unique<coterie::MajorityCoterie>();
    case CoterieKind::kTree:
      return std::make_unique<coterie::TreeCoterie>();
    case CoterieKind::kHierarchical:
      return std::make_unique<coterie::HierarchicalCoterie>();
  }
  return nullptr;
}

std::unique_ptr<ObjectTable> MakeObjectTable(const ClusterOptions& options) {
  if (options.replication_factor == 0) return nullptr;
  PlacementOptions p;
  p.num_nodes = options.num_nodes;
  p.num_objects = std::max(1u, options.num_objects);
  p.replication_factor = options.replication_factor;
  p.seed = options.seed;
  return std::make_unique<ObjectTable>(p);
}

std::vector<std::unique_ptr<ReplicaNode>> BuildNodes(
    rt::Transport* transport, const ClusterOptions& options,
    const coterie::CoterieRule* rule, const ObjectTable* table) {
  const NodeSet all = NodeSet::Universe(options.num_nodes);
  const uint32_t objects = std::max(1u, options.num_objects);
  // Directory: every object's home set, shipped to every sharded node so
  // any node can coordinate cross-object transactions.
  std::map<storage::ObjectId, NodeSet> directory;
  if (table != nullptr) {
    for (storage::ObjectId o = 0; o < objects; ++o) {
      directory[o] = table->placement(o).replicas;
    }
  }
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  nodes.reserve(options.num_nodes);
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    ReplicaNodeOptions node_options = options.node_options;
    if (options.durability.enabled) {
      node_options.durability = options.durability;
      // Independent per-node crash RNG: tears on node i never consume
      // draws another node (or the network) would have seen.
      node_options.durability.crash.seed =
          options.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    }
    if (table == nullptr) {
      nodes.push_back(std::make_unique<ReplicaNode>(
          transport, i, all, rule,
          std::vector<std::vector<uint8_t>>(objects, options.initial_value),
          node_options));
      continue;
    }
    std::vector<HostedObjectSpec> catalog;
    for (const auto& [o, home] : directory) {
      if (home.Contains(i)) catalog.push_back({o, home, options.initial_value});
    }
    nodes.push_back(std::make_unique<ReplicaNode>(
        transport, i, all, rule, std::move(catalog), directory, node_options));
  }
  return nodes;
}

Cluster::Cluster(ClusterOptions options)
    // Stream root: THE root — every other stream in a simulation forks
    // (directly or lazily) from this seed.  // dcp-lint: allow(raw-rng)
    : options_(std::move(options)), rng_(options_.seed),
      table_(MakeObjectTable(options_)) {
  if (options_.enable_tracing) sim_.tracer().set_enabled(true);
  rule_ = MakeCoterieRule(options_.coterie);
  network_ = std::make_unique<net::Network>(&sim_, rng_.Fork(),
                                            options_.latency);
  if (!options_.fault_model.trivial()) {
    network_->set_fault_model(options_.fault_model);
  }
  nodes_ = BuildNodes(network_.get(), options_, rule_.get(), table_.get());
  if (!options_.start_epoch_daemons) return;
  for (const auto& node : nodes_) {
    if (table_ == nullptr) {
      daemons_.push_back(
          std::make_unique<EpochDaemon>(node.get(), options_.daemon_options));
      continue;
    }
    std::vector<std::pair<storage::ObjectId, std::vector<NodeId>>> ranked;
    for (storage::ObjectId o : node->HostedObjects()) {
      ranked.push_back({o, table_->placement(o).ranking});
    }
    muxes_.push_back(std::make_unique<EpochMux>(
        node.get(), std::move(ranked), options_.daemon_options.check_interval));
  }
}

Cluster::~Cluster() = default;

NodeId Cluster::RouteCoordinator(storage::ObjectId object) {
  const NodeSet& home = HomeNodes(object);
  NodeSet live_home;
  for (NodeId n : home) {
    if (network_->IsUp(n)) live_home.Insert(n);
  }
  if (!live_home.Empty()) {
    return live_home.NthMember(
        static_cast<uint32_t>(rng_.Uniform(live_home.Size())));
  }
  NodeSet live = UpNodes();
  if (!live.Empty()) {
    return live.NthMember(static_cast<uint32_t>(rng_.Uniform(live.Size())));
  }
  return home.NthMember(0);
}

void Cluster::Write(NodeId coordinator, storage::ObjectId object,
                    Update update, WriteDone done) {
  StartWrite(&node(coordinator), object, std::move(update),
             options_.write_options, &histories_[object], std::move(done));
}

void Cluster::Read(NodeId coordinator, storage::ObjectId object,
                   ReadDone done) {
  StartRead(&node(coordinator), object, &histories_[object], std::move(done));
}

void Cluster::CheckEpoch(NodeId initiator, EpochCheckDone done) {
  StartEpochCheck(&node(initiator), std::move(done));
}

void Cluster::TxnWrite(NodeId coordinator, std::vector<TxnWriteSpec> specs,
                       TxnWriteDone done) {
  StartTxnWrite(
      &node(coordinator), std::move(specs),
      [this](storage::ObjectId o) { return &histories_[o]; }, std::move(done));
}

void Cluster::CheckObjectEpoch(NodeId initiator, storage::ObjectId object,
                               EpochCheckDone done) {
  StartObjectEpochCheck(&node(initiator), object, std::move(done));
}

template <typename R, typename Start>
R Cluster::RunSync(NodeId coordinator, const char* what, Start start) {
  bool fired = false;
  R result = Status::Internal("unset");
  start([&](R r) {
    fired = true;
    result = std::move(r);
  });
  if (!RunUntilSettled(coordinator, fired)) {
    return Status::Internal(std::string("simulation drained before ") +
                            what + " completed");
  }
  return result;
}

bool Cluster::RunUntilSettled(NodeId coordinator, const bool& done) {
  const net::RpcRuntime& rpc = node(coordinator).rpc();
  while (!done || rpc.outstanding_calls() > 0) {
    if (!sim_.Step()) return done;
  }
  return true;
}

template <typename R, typename Attempt>
R Cluster::RetrySync(int max_attempts, Attempt attempt) {
  const RetryPolicy& policy = options_.retry_policy;
  R last = Status::Internal("no attempts made");
  for (int i = 0; i < max_attempts; ++i) {
    last = attempt();
    if (last.ok() || !policy.ShouldRetry(last.status())) return last;
    // Randomized backoff breaks symmetric lock contention and rides out
    // transient unavailability (when the policy opts in).
    RunFor(policy.backoff_base + rng_.NextDouble() * policy.backoff_jitter);
  }
  return last;
}

Result<WriteOutcome> Cluster::WriteSync(NodeId coordinator,
                                        storage::ObjectId object,
                                        Update update) {
  return RunSync<Result<WriteOutcome>>(coordinator, "write", [&](WriteDone done) {
    Write(coordinator, object, std::move(update), std::move(done));
  });
}

Result<ReadOutcome> Cluster::ReadSync(NodeId coordinator,
                                      storage::ObjectId object) {
  return RunSync<Result<ReadOutcome>>(coordinator, "read", [&](ReadDone done) {
    Read(coordinator, object, std::move(done));
  });
}

Status Cluster::CheckEpochSync(NodeId initiator) {
  return RunSync<Status>(initiator, "epoch check", [&](EpochCheckDone done) {
    CheckEpoch(initiator, std::move(done));
  });
}

Result<TxnWriteOutcome> Cluster::TxnWriteSync(
    NodeId coordinator, std::vector<TxnWriteSpec> specs) {
  return RunSync<Result<TxnWriteOutcome>>(coordinator, "txn", [&](TxnWriteDone done) {
    TxnWrite(coordinator, std::move(specs), std::move(done));
  });
}

Status Cluster::CheckObjectEpochSync(NodeId initiator,
                                     storage::ObjectId object) {
  return RunSync<Status>(initiator, "epoch check", [&](EpochCheckDone done) {
    CheckObjectEpoch(initiator, object, std::move(done));
  });
}

Result<WriteOutcome> Cluster::WriteSyncRetry(NodeId coordinator,
                                             storage::ObjectId object,
                                             Update update,
                                             int max_attempts) {
  return RetrySync<Result<WriteOutcome>>(max_attempts, [&] {
    return WriteSync(coordinator, object, update);
  });
}

Result<ReadOutcome> Cluster::ReadSyncRetry(NodeId coordinator,
                                           storage::ObjectId object,
                                           int max_attempts) {
  return RetrySync<Result<ReadOutcome>>(max_attempts, [&] {
    return ReadSync(coordinator, object);
  });
}

void Cluster::Crash(NodeId id) {
  network_->SetNodeUp(id, false);
  nodes_[id]->Crash();
  if (!daemons_.empty()) daemons_[id]->OnCrash();
  if (!muxes_.empty()) muxes_[id]->OnCrash();
}

void Cluster::Recover(NodeId id) {
  network_->SetNodeUp(id, true);
  nodes_[id]->Recover();
  if (!daemons_.empty()) daemons_[id]->OnRecover();
  if (!muxes_.empty()) muxes_[id]->OnRecover();
}
void Cluster::Partition(const std::vector<NodeSet>& groups) {
  network_->SetPartitions(groups);
}

void Cluster::Heal() { network_->HealPartitions(); }

void Cluster::SetGlobalFaults(const net::LinkFaults& faults) {
  network_->SetGlobalFaults(faults);
}

void Cluster::InjectLinkFault(NodeId src, NodeId dst,
                              const net::LinkFaults& faults) {
  network_->SetLinkFaults(src, dst, faults);
}

void Cluster::CutLink(NodeId src, NodeId dst) { network_->CutLink(src, dst); }

void Cluster::RestoreLink(NodeId src, NodeId dst) {
  network_->RestoreLink(src, dst);
}

void Cluster::ClearNetworkFaults() { network_->ClearFaults(); }

NodeSet Cluster::UpNodes() const {
  NodeSet up;
  for (uint32_t i = 0; i < num_nodes(); ++i) {
    if (network_->IsUp(i)) up.Insert(i);
  }
  return up;
}

void Cluster::RunFor(sim::Time duration) {
  sim_.RunUntil(sim_.Now() + duration);
}

bool Cluster::Quiescent() const { return protocol::Quiescent(nodes_); }

Status Cluster::CheckEpochInvariants() const {
  return protocol::CheckEpochInvariants(nodes_);
}

Status Cluster::CheckReplicaConsistency() const {
  return protocol::CheckReplicaConsistency(nodes_);
}

Status Cluster::CheckHistory() const {
  for (const auto& [object, history] : histories_) {
    Status s = history.CheckOneCopySerializable(options_.initial_value);
    if (!s.ok()) {
      return Status::Internal("object " + std::to_string(object) + ": " +
                              s.ToString());
    }
  }
  return Status::OK();
}

}  // namespace dcp::protocol
