/**
 * @file
 * TraceMemoryGate: the heap a cluster's trace log holds per job-window
 * entry, on a fixed-seed fleet with traces on, must stay at or below a
 * committed ceiling. The figure is TraceLog::heap_bytes() -- the entry
 * array's allocation plus each entry's histogram bins -- so the gate is
 * exact rather than timed and gives the same verdict on every build.
 * Storing the histograms densely again (two 256-bucket arrays per
 * entry) would put it near 4.2 kB.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/far_memory_system.h"
#include "workload/job_profile.h"

namespace sdfm {
namespace {

/**
 * Bytes of an entry with two dense histograms: job, timestamp and
 * WSS, two 256-bucket arrays of u64 counts, and the SLIs.
 */
constexpr std::size_t kDenseEntryBytes =
    3 * sizeof(std::uint64_t) + 2 * kAgeBuckets * sizeof(std::uint64_t) +
    sizeof(JobSli);

/**
 * Committed heap bytes per entry, as measured when the gate was set.
 * The figure is exact, so any rise fails; lower it together with a
 * change that shrinks the entries.
 */
constexpr std::uint64_t kBytesPerEntryCeiling = 436;

/** The typical diurnal mix with eighth-size jobs, as fleetbench's
 *  diurnal_zswap runs it, on a 2 x 2 fleet of 128 MiB machines. */
FleetConfig
gate_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 7;
    config.serial_step = true;
    config.cluster.num_machines = 2;
    config.cluster.machine.dram_pages = 128ull * kMiB / kPageSize;
    config.cluster.machine.policy = FarMemoryPolicy::kProactive;
    config.cluster.target_utilization = 0.78;
    config.cluster.churn_per_hour = 0.12;
    config.cluster.mix = typical_fleet_mix();
    for (JobProfile &p : config.cluster.mix.profiles) {
        p.min_pages = std::max<std::uint32_t>(1, p.min_pages / 8);
        p.max_pages = std::max<std::uint32_t>(p.min_pages, p.max_pages / 8);
    }
    return config;
}

/** Two simulated hours: 24 five-minute windows per surviving job. */
constexpr int kSteps = 120;

TEST(TraceMemoryGate, BytesPerEntryStayUnderCommittedCeiling)
{
    static_assert(kDenseEntryBytes == 4208);
    static_assert(kBytesPerEntryCeiling * 5 <= kDenseEntryBytes,
                  "the sparse entries are at least 5x below dense ones");

    FarMemorySystem fleet(gate_fleet_config());
    fleet.populate();
    for (int i = 0; i < kSteps; ++i)
        fleet.step();

    std::uint64_t entries = 0;
    std::uint64_t bins = 0;
    std::uint64_t heap_bytes = 0;
    for (const auto &cluster : fleet.clusters()) {
        const TraceLog &log = cluster->trace_log();
        entries += log.size();
        heap_bytes += log.heap_bytes();
        for (const TraceEntry &entry : log.entries())
            bins += entry.promo_delta.num_bins() +
                    entry.cold_hist.num_bins();
    }
    ASSERT_GE(fleet.num_jobs(), 20u);
    ASSERT_GE(entries, 20u * kSteps / 5) << "too few trace windows";
    // Real windows, not empty ones: each touches several age buckets.
    ASSERT_GE(bins, 10 * entries);

    const std::uint64_t per_entry = heap_bytes / entries;
    std::printf("%llu entries, %.1f bins each, %llu heap bytes: "
                "%llu bytes per entry (dense: %zu)\n",
                static_cast<unsigned long long>(entries),
                static_cast<double>(bins) / static_cast<double>(entries),
                static_cast<unsigned long long>(heap_bytes),
                static_cast<unsigned long long>(per_entry),
                kDenseEntryBytes);
    EXPECT_LE(per_entry, kBytesPerEntryCeiling);
}

}  // namespace
}  // namespace sdfm
