/**
 * @file
 * Tests for the cluster layer: placement, initial packing, churn,
 * eviction-reschedule, and aggregation.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace sdfm {
namespace {

ClusterConfig
small_cluster()
{
    ClusterConfig config;
    config.num_machines = 4;
    config.machine.dram_pages = 128ull * kMiB / kPageSize;
    config.machine.compression = CompressionMode::kModeled;
    config.mix = typical_fleet_mix();
    config.target_utilization = 0.7;
    return config;
}

TEST(ClusterTest, PopulateReachesTargetUtilization)
{
    ClusterConfig config = small_cluster();
    Cluster cluster(0, config, 1);
    cluster.populate(0);
    std::uint64_t total_dram =
        config.num_machines * config.machine.dram_pages;
    std::uint64_t resident = 0;
    for (const auto &machine : cluster.machines())
        resident += machine->resident_pages();
    double utilization = static_cast<double>(resident) /
                         static_cast<double>(total_dram);
    EXPECT_GE(utilization, 0.55);
    EXPECT_LE(utilization, 0.95);
    EXPECT_GT(cluster.num_jobs(), 4u);
}

TEST(ClusterTest, PlacementRespectsCapacity)
{
    ClusterConfig config = small_cluster();
    Cluster cluster(0, config, 2);
    cluster.populate(0);
    for (const auto &machine : cluster.machines())
        EXPECT_LE(machine->used_pages(), config.machine.dram_pages);
}

TEST(ClusterTest, WorstFitSpreadsLoad)
{
    ClusterConfig config = small_cluster();
    config.placement = PlacementStrategy::kWorstFit;
    Cluster cluster(0, config, 3);
    cluster.populate(0);
    // With worst-fit, no machine should be empty while others are
    // heavily loaded.
    for (const auto &machine : cluster.machines())
        EXPECT_GT(machine->jobs().size(), 0u);
}

TEST(ClusterTest, StepAdvancesAndAggregates)
{
    Cluster cluster(0, small_cluster(), 4);
    cluster.populate(0);
    SimTime now = 0;
    for (; now < 90 * kMinute; now += kMinute)
        cluster.step(now);
    EXPECT_GT(cluster.cold_memory_fraction(), 0.02);
    EXPECT_LT(cluster.cold_memory_fraction(), 0.8);
    EXPECT_GT(cluster.coverage(), 0.0);
    EXPECT_FALSE(cluster.machine_cold_fractions().empty());
    EXPECT_FALSE(cluster.job_cold_fractions().empty());
    EXPECT_GT(cluster.trace_log().size(), 0u);
}

TEST(ClusterTest, CoverageCountsEveryFarTier)
{
    // With an NVM tier below zswap, most cold pages leave zswap; the
    // cluster figure counts them, as the machine and fleet ones do.
    ClusterConfig config = small_cluster();
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 1 << 16;
    nvm.band_lo = 1.0;
    nvm.band_hi = 4.0;
    config.machine.tiers = {nvm};
    Cluster cluster(0, config, 4);
    cluster.populate(0);
    for (SimTime now = 0; now < 60 * kMinute; now += kMinute)
        cluster.step(now);
    std::uint64_t cold = 0;
    std::uint64_t far = 0;
    std::uint64_t deep = 0;
    for (const auto &machine : cluster.machines()) {
        cold += machine->cold_pages_min_threshold();
        far += machine->far_memory_pages();
        deep += machine->tier_stored_pages();
    }
    ASSERT_GT(deep, 0u);
    ASSERT_GT(cold, 0u);
    EXPECT_DOUBLE_EQ(cluster.coverage(), static_cast<double>(far) /
                                             static_cast<double>(cold));
}

TEST(ClusterTest, ChurnReplacesJobs)
{
    ClusterConfig config = small_cluster();
    config.churn_per_hour = 2.0;  // aggressive for the test
    Cluster cluster(0, config, 5);
    cluster.populate(0);
    std::uint64_t churned = 0;
    for (SimTime now = 0; now < kHour; now += kMinute)
        churned += cluster.step(now).churned;
    EXPECT_GT(churned, 0u);
    // The population stays roughly stable (replacements happen).
    EXPECT_GE(cluster.num_jobs(), 4u);
}

TEST(ClusterTest, DeploySloChangesAgentConfig)
{
    Cluster cluster(0, small_cluster(), 6);
    cluster.populate(0);
    SloConfig slo;
    slo.percentile_k = 85.0;
    slo.enable_delay = 700;
    cluster.deploy_slo(slo);
    for (auto &machine : cluster.machines()) {
        EXPECT_DOUBLE_EQ(machine->agent().config().slo.percentile_k, 85.0);
        EXPECT_EQ(machine->agent().config().slo.enable_delay, 700);
    }
}

TEST(ClusterTest, JobIdsUniqueAcrossClusters)
{
    Cluster a(0, small_cluster(), 7);
    Cluster b(1, small_cluster(), 8);
    a.populate(0);
    b.populate(0);
    // Cluster id is encoded in the job id's high bits.
    for (const auto &machine : a.machines())
        for (const auto &job : machine->jobs())
            EXPECT_LT(job->id(), JobId{1} << 40);
    for (const auto &machine : b.machines())
        for (const auto &job : machine->jobs())
            EXPECT_GE(job->id(), JobId{1} << 40);
}

class PlacementParam
    : public ::testing::TestWithParam<PlacementStrategy>
{
};

TEST_P(PlacementParam, AllStrategiesPackAndRun)
{
    ClusterConfig config = small_cluster();
    config.placement = GetParam();
    Cluster cluster(0, config, 9);
    cluster.populate(0);
    EXPECT_GT(cluster.num_jobs(), 0u);
    for (SimTime now = 0; now < 10 * kMinute; now += kMinute)
        cluster.step(now);
    for (const auto &machine : cluster.machines())
        EXPECT_LE(machine->used_pages(), config.machine.dram_pages);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PlacementParam,
                         ::testing::Values(PlacementStrategy::kWorstFit,
                                           PlacementStrategy::kFirstFit,
                                           PlacementStrategy::kRandomFit));

}  // namespace
}  // namespace sdfm
