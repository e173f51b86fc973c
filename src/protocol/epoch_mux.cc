#include "protocol/epoch_mux.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "net/rpc.h"
#include "protocol/operations.h"

namespace dcp::protocol {

EpochMux::EpochMux(ReplicaNode* node, Rankings ranked,
                   rt::Time check_interval)
    : node_(node),
      check_interval_(check_interval),
      quiet_since_(node->runtime()->Now()) {
  for (auto& [lineage, ranking] : ranked) {
    auto self = std::find(ranking.begin(), ranking.end(), node_->self());
    assert(self != ranking.end() && "node missing from a lineage ranking");
    ring_.push_back(lineage);
    higher_[lineage].assign(ranking.begin(), self);
  }

  // One timer per node: visit the whole ring once per check_interval by
  // ticking `rounds` times per interval, kBatchPerTick lineages per tick.
  size_t rounds =
      ring_.empty() ? 1 : (ring_.size() + kBatchPerTick - 1) / kBatchPerTick;
  tick_interval_ = check_interval / static_cast<rt::Time>(rounds);

  obs::MetricsRegistry& m = node_->runtime()->metrics();
  const std::string p = "mux." + std::to_string(node_->self()) + ".";
  ticks_ = m.counter(p + "ticks");
  checks_run_ = m.counter(p + "checks_run");
  checks_ok_ = m.counter(p + "checks_ok");
  checks_failed_ = m.counter(p + "checks_failed");
  dirty_checks_ = m.counter(p + "dirty_checks");

  // Stagger first fires by node id so muxes do not tick in lockstep.
  rt::Time stagger = static_cast<rt::Time>(node_->self()) *
                     (tick_interval_ / (node_->all_nodes().Size() + 1));
  ticker_ = std::make_unique<rt::PeriodicTimer>(
      node_->runtime(), tick_interval_ + stagger, tick_interval_,
      [this] { Tick(); });
}

EpochMux::~EpochMux() = default;

EpochMuxStats EpochMux::stats() const {
  EpochMuxStats s;
  s.ticks = ticks_->value();
  s.checks_run = checks_run_->value();
  s.checks_ok = checks_ok_->value();
  s.checks_failed = checks_failed_->value();
  s.dirty_checks = dirty_checks_->value();
  return s;
}

void EpochMux::MarkDirty(Lineage lineage) {
  if (higher_.count(lineage) > 0) dirty_.insert(lineage);
}

void EpochMux::OnCrash() {
  in_flight_.clear();
  dirty_.clear();
}

void EpochMux::OnRecover() {
  // A recovered node's replicas may be arbitrarily stale; have the duty
  // holders re-examine every lineage promptly. Polls it missed while down
  // say nothing about who runs checks now, so duty timing restarts.
  quiet_since_ = node_->runtime()->Now();
  for (Lineage lineage : ring_) dirty_.insert(lineage);
}

void EpochMux::Tick() {
  if (!node_->rpc().transport()->IsUp(node_->self())) return;
  ticks_->Increment();
  if (ring_.empty()) return;

  // Dirty lineages first: they asked for prompt attention.
  std::set<Lineage> dirty;
  dirty.swap(dirty_);
  for (Lineage lineage : dirty) MaybeCheck(lineage, true);

  for (uint32_t i = 0; i < kBatchPerTick && i < ring_.size(); ++i) {
    Lineage lineage = ring_[cursor_];
    cursor_ = (cursor_ + 1) % ring_.size();
    MaybeCheck(lineage, false);
  }
}

bool EpochMux::HoldsDuty(Lineage lineage) const {
  const std::vector<NodeId>& higher = higher_.at(lineage);
  if (higher.empty()) return true;
  rt::Time heard = quiet_since_;
  for (NodeId n : higher) {
    heard = std::max(heard, node_->LastPollFrom(lineage, n).value_or(heard));
  }
  const rt::Time quiet = static_cast<rt::Time>(higher.size() + 1) *
                         check_interval_;
  return node_->runtime()->Now() - heard >= quiet;
}

void EpochMux::MaybeCheck(Lineage lineage, bool from_dirty) {
  if (in_flight_.count(lineage) > 0) return;
  if (!HoldsDuty(lineage)) return;
  in_flight_.insert(lineage);
  checks_run_->Increment();
  if (from_dirty) dirty_checks_->Increment();
  node_->runtime()
      ->metrics()
      .labeled_counter("mux.lineage_checks",
                       lineage ? std::to_string(*lineage) : "group",
                       kMetricCap)
      ->Increment();
  auto done = [this, lineage](Status s) {
    in_flight_.erase(lineage);
    if (s.ok()) {
      checks_ok_->Increment();
    } else {
      checks_failed_->Increment();
      // Try again promptly; the lineage may still be split.
      dirty_.insert(lineage);
    }
  };
  if (lineage) {
    StartObjectEpochCheck(node_, *lineage, std::move(done));
  } else {
    StartEpochCheck(node_, std::move(done));
  }
}

}  // namespace dcp::protocol
