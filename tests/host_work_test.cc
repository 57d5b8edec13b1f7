/**
 * @file
 * HostWorkGate: the host work kstaled and kreclaimd do on a fixed-seed,
 * mostly-cold fleet stepped past age saturation must stay at or below
 * committed ceilings. The counts are regions the walks did not skip and
 * the 64-page words of those regions (ScanResult / ReclaimResult,
 * summed into FleetStepResult), so the gate is exact rather than
 * timed: it gives the same verdict on every build and every host. A
 * regression in either daemon's skip logic -- stride-1 scans falling
 * back to the per-page reference walk, or kreclaimd walking regions
 * whose ages are all below the threshold -- raises the counts past the
 * ceilings. A change that lowers them should lower the ceilings too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/far_memory_system.h"
#include "workload/job_profile.h"

namespace sdfm {
namespace {

/**
 * Mostly-cold 32-64 MiB jobs (~95% frozen pages), a slightly warmer
 * cut of bench/fleet_scale's mix: most regions saturate at age 255, so
 * kstaled's skip of saturated idle regions carries the scan, while the
 * hot and warm runs keep some regions below the reclaim threshold.
 */
FleetMix
mostly_cold_mix()
{
    FleetMix mix;
    JobProfile p;
    p.name = "host-work-gate";
    p.min_pages = 8192;
    p.max_pages = 16384;
    p.hot_frac = 0.01;
    p.warm_frac = 0.02;
    p.diurnal_frac = 0.0;
    p.cold_frac = 0.02;  // frozen gets the remaining ~95%
    p.hot_gap_mean = 120.0;
    p.warm_median_gap = 300.0;
    p.cold_scale = 7200.0;
    p.frozen_reaccess_prob = 0.002;
    p.write_frac = 0.05;
    mix.profiles.push_back(p);
    mix.weights.push_back(1.0);
    return mix;
}

FleetConfig
gate_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 5;
    config.serial_step = true;
    config.cluster.num_machines = 2;
    config.cluster.machine.dram_pages = 256ull * kMiB / kPageSize;
    config.cluster.mix = mostly_cold_mix();
    // A fixed job set: churn would restart jobs at age zero.
    config.cluster.churn_per_hour = 0.0;
    config.cluster.collect_traces = false;
    return config;
}

/** 255 two-minute scan periods saturate an idle page's age. */
constexpr int kWarmupSteps = 540;
constexpr int kWindowSteps = 20;

/** kstaled scans every other one-minute step; kreclaimd every step. */
constexpr std::uint64_t kScansInWindow =
    kWindowSteps * kMinute / kScanPeriod;

/**
 * Committed host work summed over the window, as measured when the
 * gate was set. The counts are exact, so any rise fails; lower them
 * together with a change that cuts the walks.
 */
constexpr std::uint64_t kKstaledRegionsCeiling = 953;
constexpr std::uint64_t kKstaledWordsCeiling = 7526;
constexpr std::uint64_t kKreclaimdRegionsCeiling = 8537;
constexpr std::uint64_t kKreclaimdWordsCeiling = 67396;

TEST(HostWorkGate, DaemonWalksStayUnderCommittedCeilings)
{
    FarMemorySystem fleet(gate_fleet_config());
    fleet.populate();
    for (int i = 0; i < kWarmupSteps; ++i)
        fleet.step();

    // What a walk that skipped nothing would visit over the window.
    std::uint64_t fleet_regions = 0;
    std::uint64_t fleet_words = 0;
    std::uint64_t far_pages = 0;
    for (const auto &cluster : fleet.clusters()) {
        for (const auto &machine : cluster->machines()) {
            for (const auto &job : machine->jobs()) {
                const PageTable &pt = job->memcg().pages();
                fleet_regions += pt.num_summary_regions();
                fleet_words += pt.num_words();
                far_pages += job->memcg().zswap_pages();
            }
        }
    }
    ASSERT_GE(fleet.num_jobs(), 10u);
    ASSERT_GT(far_pages, fleet_words * 64 / 2)
        << "the fleet is not mostly demoted";

    // The ceilings must sit well below what walks that skip nothing
    // would visit, so a degenerate fleet cannot pass. kstaled skips the
    // saturated idle regions, most of a cold fleet. kreclaimd skips
    // only regions whose ages are all below the threshold: demoted
    // pages keep aging, so in a cold fleet it skips just the hot and
    // warm runs -- a few percent here.
    EXPECT_LE(kKstaledRegionsCeiling * 3, fleet_regions * kScansInWindow);
    EXPECT_LE(kKstaledWordsCeiling * 3, fleet_words * kScansInWindow);
    EXPECT_LE(kKreclaimdRegionsCeiling * 50,
              fleet_regions * kWindowSteps * 49);
    EXPECT_LE(kKreclaimdWordsCeiling * 50, fleet_words * kWindowSteps * 49);

    WalkWork kstaled;
    WalkWork kreclaimd;
    for (int i = 0; i < kWindowSteps; ++i) {
        FleetStepResult step = fleet.step();
        kstaled += step.kstaled;
        kreclaimd += step.kreclaimd;
    }
    std::printf("window of %d steps: fleet %llu regions, %llu words\n"
                "  kstaled   %llu regions, %llu words\n"
                "  kreclaimd %llu regions, %llu words\n",
                kWindowSteps,
                static_cast<unsigned long long>(fleet_regions),
                static_cast<unsigned long long>(fleet_words),
                static_cast<unsigned long long>(kstaled.regions_visited),
                static_cast<unsigned long long>(kstaled.words_visited),
                static_cast<unsigned long long>(kreclaimd.regions_visited),
                static_cast<unsigned long long>(kreclaimd.words_visited));

    EXPECT_LE(kstaled.regions_visited, kKstaledRegionsCeiling);
    EXPECT_LE(kstaled.words_visited, kKstaledWordsCeiling);
    EXPECT_LE(kreclaimd.regions_visited, kKreclaimdRegionsCeiling);
    EXPECT_LE(kreclaimd.words_visited, kKreclaimdWordsCeiling);
}

}  // namespace
}  // namespace sdfm
