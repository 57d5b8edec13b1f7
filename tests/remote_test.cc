/**
 * @file
 * Tests for the remote-memory tier: placement, crypto and latency
 * accounting, donor-failure data loss (Section 2.1's failure-domain
 * expansion), and machine-level integration.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/remote_tier.h"
#include "node/machine.h"
#include "workload/job.h"

namespace sdfm {
namespace {

RemoteTierParams
small_remote(std::uint64_t capacity, std::uint32_t donors = 4)
{
    RemoteTierParams params;
    params.capacity_pages = capacity;
    params.num_donors = donors;
    return params;
}

struct Rig
{
    explicit Rig(std::uint32_t pages, RemoteTierParams params)
        : compressor(make_compressor(CompressionMode::kModeled)),
          zswap(compressor.get(), 1), remote(params, 2),
          cg(1, pages, 42, ContentMix::typical(), 0)
    {
    }

    std::unique_ptr<Compressor> compressor;
    Zswap zswap;
    RemoteTier remote;
    Memcg cg;
};

TEST(RemoteTier, StoreLoadRoundTrip)
{
    Rig rig(10, small_remote(100));
    ASSERT_TRUE(rig.remote.store(rig.cg, 0));
    EXPECT_TRUE(rig.cg.page_test(0, kPageInFarTier));
    EXPECT_EQ(rig.remote.used_pages(), 1u);
    // Encryption cycles charged on the way out.
    EXPECT_GT(rig.cg.stats().compress_cycles, 0.0);

    rig.remote.load(rig.cg, 0);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInFarTier));
    EXPECT_EQ(rig.remote.used_pages(), 0u);
    EXPECT_EQ(rig.cg.stats().nvm_promotions, 1u);
    // Decryption cycles charged on the way back.
    EXPECT_GT(rig.cg.stats().decompress_cycles, 0.0);
    EXPECT_GT(rig.cg.stats().nvm_read_latency_us_sum, 0.0);
}

TEST(RemoteTier, CapacityBound)
{
    Rig rig(10, small_remote(3));
    EXPECT_TRUE(rig.remote.store(rig.cg, 0));
    EXPECT_TRUE(rig.remote.store(rig.cg, 1));
    EXPECT_TRUE(rig.remote.store(rig.cg, 2));
    EXPECT_FALSE(rig.remote.store(rig.cg, 3));
    EXPECT_EQ(rig.remote.stats().rejected_full, 1u);
}

TEST(RemoteTier, RoundRobinSpreadsAcrossDonors)
{
    Rig rig(40, small_remote(100, /*donors=*/4));
    for (PageId p = 0; p < 40; ++p)
        ASSERT_TRUE(rig.remote.store(rig.cg, p));
    for (std::uint32_t donor = 0; donor < 4; ++donor)
        EXPECT_EQ(rig.remote.donor_pages(donor), 10u);
}

TEST(RemoteTier, DonorFailureLosesPagesAndNamesVictims)
{
    Rig rig(40, small_remote(100, 4));
    for (PageId p = 0; p < 40; ++p)
        rig.remote.store(rig.cg, p);
    std::vector<JobId> victims = rig.remote.fail_donor(2);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], rig.cg.id());
    EXPECT_EQ(rig.remote.stats().pages_lost, 10u);
    EXPECT_EQ(rig.remote.used_pages(), 30u);
    EXPECT_EQ(rig.remote.donor_pages(2), 0u);
    // Other donors' pages survive.
    EXPECT_EQ(rig.remote.donor_pages(1), 10u);
}

TEST(RemoteTier, FailureOfEmptyDonorHarmless)
{
    Rig rig(10, small_remote(100, 4));
    EXPECT_TRUE(rig.remote.fail_donor(3).empty());
    EXPECT_EQ(rig.remote.stats().pages_lost, 0u);
}

TEST(RemoteTier, DropAllClearsPlacements)
{
    Rig rig(20, small_remote(100, 4));
    for (PageId p = 0; p < 20; ++p)
        rig.remote.store(rig.cg, p);
    rig.remote.drop_all(rig.cg);
    EXPECT_EQ(rig.remote.used_pages(), 0u);
    for (std::uint32_t donor = 0; donor < 4; ++donor)
        EXPECT_EQ(rig.remote.donor_pages(donor), 0u);
}

TEST(RemoteTier, HeavierLatencyTailThanNvm)
{
    RemoteTierParams params = small_remote(10000);
    RemoteTier remote(params, 7);
    NvmTierParams nvm_params;
    nvm_params.capacity_pages = 10000;
    NvmTier nvm(nvm_params, 7);

    Memcg cg_a(1, 5000, 42, ContentMix::typical(), 0);
    Memcg cg_b(2, 5000, 42, ContentMix::typical(), 0);
    for (PageId p = 0; p < 5000; ++p) {
        remote.store(cg_a, p);
        nvm.store(cg_b, p);
        remote.load(cg_a, p);
        nvm.load(cg_b, p);
    }
    double remote_mean = cg_a.stats().nvm_read_latency_us_sum / 5000.0;
    double nvm_mean = cg_b.stats().nvm_read_latency_us_sum / 5000.0;
    EXPECT_GT(remote_mean, 4.0 * nvm_mean);
}

TEST(RemoteMachine, DonorFailureKillsAndReports)
{
    MachineConfig config;
    config.dram_pages = 128ull * kMiB / kPageSize;
    config.compression = CompressionMode::kModeled;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.remote.capacity_pages = 1 << 20;
    remote.band_lo = 1.0;
    remote.band_hi = 4.0;
    config.tiers = {remote};
    config.fault.enabled = true;
    config.fault.donor_failure_prob = 1.0;  // a donor fails every period
    Machine machine(0, config, 3);
    ASSERT_LT(machine.tiers().find(TierKind::kRemote),
              machine.tiers().size());
    machine.add_job(std::make_unique<Job>(1, profile_by_name("logs"), 7,
                                          0));
    machine.add_job(std::make_unique<Job>(2, profile_by_name("kv_cache"),
                                          8, 0));
    std::uint64_t failures = 0, evicted = 0;
    for (SimTime now = 0; now < 3 * kHour; now += kMinute) {
        MachineStepResult result = machine.step(now);
        failures += result.donor_failures;
        evicted += result.evicted.size();
    }
    EXPECT_GT(failures, 0u);
    // At least one failure hit a donor holding pages, killing jobs.
    EXPECT_GT(evicted, 0u);
}

}  // namespace
}  // namespace sdfm
