// Audited daemon-on durable churn: epoch daemons and durable nodes under
// a site-model crash schedule for 300 000 ms, in group mode (one epoch
// for all 16 objects) and sharded at replication factor 9 (16 lineages
// checked by the EpochMux). Recovered nodes come back non-stale at their
// durable version, so an epoch install that misses a write committed
// after its poll would leave the new version outside a read quorum; the
// client history must stay linearizable. With the prepare's polled-state
// check skipped, group seeds 5, 7, 8, 9 and 12 and rf 9 seed 12 read
// stale data (audit_mutation_test holds the sweep to catching it in both
// modes).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "epoch_churn.h"

namespace dcp::harness {
namespace {

constexpr sim::Time kHorizon = 300000;

class AuditedEpochChurn
    : public ::testing::TestWithParam<std::tuple<uint32_t, int>> {};

TEST_P(AuditedEpochChurn, ClientHistoryIsLinearizable) {
  auto [replication_factor, seed] = GetParam();
  epoch_churn::RunResult run = epoch_churn::Run(
      epoch_churn::Options(uint64_t(seed), replication_factor),
      uint64_t(seed), kHorizon,
      epoch_churn::SiteModelOutages(uint64_t(seed), 9, kHorizon));
  EXPECT_TRUE(run.quiesced);
  EXPECT_GT(run.ops_recorded, 10000u);
  EXPECT_TRUE(run.verdict.ok) << run.verdict.ToString();
  EXPECT_EQ(run.epoch_checks_skipped, 0u);
}

std::string ChurnName(
    const ::testing::TestParamInfo<std::tuple<uint32_t, int>>& info) {
  auto [replication_factor, seed] = info.param;
  return (replication_factor == 0 ? std::string("Group")
                                  : "Rf" + std::to_string(replication_factor)) +
         "Seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditedEpochChurn,
                         ::testing::Combine(
                             ::testing::Values(0u, 9u),
                             ::testing::Range(epoch_churn::kFirstSeed,
                                              epoch_churn::kLastSeed + 1)),
                         ChurnName);

}  // namespace
}  // namespace dcp::harness
