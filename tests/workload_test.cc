/**
 * @file
 * Tests for the workload substrate: access-pattern generation, job
 * archetypes, Job stepping, and trace serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "compression/compressor.h"
#include "mem/zswap.h"
#include "workload/access_pattern.h"
#include "workload/job.h"
#include "workload/job_profile.h"
#include "workload/trace.h"

namespace sdfm {
namespace {

// ------------------------------------------------------ access pattern

TEST(AccessPattern, DeterministicForSameSeed)
{
    JobProfile profile = profile_by_name("bigtable");
    AccessPattern a(profile, 1000, Rng(5), 0);
    AccessPattern b(profile, 1000, Rng(5), 0);
    for (SimTime t = 0; t < 30 * kMinute; t += kMinute) {
        std::vector<std::pair<PageId, bool>> ea, eb;
        a.step(t, kMinute,
               [&](PageId p, bool w) { ea.emplace_back(p, w); });
        b.step(t, kMinute,
               [&](PageId p, bool w) { eb.emplace_back(p, w); });
        ASSERT_EQ(ea, eb);
    }
}

TEST(AccessPattern, ClassFractionsRoughlyMatchProfile)
{
    JobProfile profile;
    profile.hot_frac = 0.5;
    profile.warm_frac = 0.3;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.1;
    AccessPattern pattern(profile, 20000, Rng(3), 0);
    // Jitter is +/-25%-ish; allow slack.
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kHot), 0.5, 0.15);
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kWarm), 0.3, 0.12);
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kCold), 0.1, 0.06);
    double total = 0.0;
    for (int c = 0; c < static_cast<int>(ReuseClass::kNumClasses); ++c)
        total += pattern.class_fraction(static_cast<ReuseClass>(c));
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(AccessPattern, HotPagesAccessedOften)
{
    JobProfile profile;
    profile.hot_frac = 1.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.hot_gap_mean = 30.0;
    profile.diurnal_amplitude = 0.0;
    AccessPattern pattern(profile, 100, Rng(7), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // 100 pages re-accessed every ~30 s for an hour: ~12000 events.
    EXPECT_GT(accesses, 8000u);
    EXPECT_LT(accesses, 16000u);
}

TEST(AccessPattern, FrozenPagesMostlySilent)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;  // all frozen
    profile.frozen_reaccess_prob = 0.0;
    AccessPattern pattern(profile, 1000, Rng(9), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 4 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // Exactly one initial touch per page, nothing after.
    EXPECT_EQ(accesses, 1000u);
}

TEST(AccessPattern, DiurnalMultiplierPeaksAtPeakHour)
{
    JobProfile profile;
    profile.diurnal_amplitude = 0.5;
    profile.diurnal_peak_hour = 14.0;
    AccessPattern pattern(profile, 10, Rng(11), 0);
    SimTime peak = static_cast<SimTime>(14.0 * 3600.0);
    SimTime trough = static_cast<SimTime>(2.0 * 3600.0);
    EXPECT_NEAR(pattern.diurnal_multiplier(peak), 1.5, 1e-9);
    EXPECT_NEAR(pattern.diurnal_multiplier(trough), 0.5, 1e-9);
}

TEST(AccessPattern, WriteFractionRespected)
{
    JobProfile profile;
    profile.hot_frac = 1.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.write_frac = 0.25;
    AccessPattern pattern(profile, 200, Rng(13), 0);
    std::uint64_t writes = 0, total = 0;
    for (SimTime t = 0; t < 2 * kHour; t += kMinute) {
        total += pattern.step(t, kMinute, [&](PageId, bool w) {
            writes += w ? 1 : 0;
        });
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(total),
                0.25, 0.03);
}

TEST(AccessPattern, ScanEventsTouchSwath)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;  // all frozen: only scans touch pages
    profile.frozen_reaccess_prob = 0.0;
    profile.scan_interval_mean = 30 * kMinute;
    profile.scan_fraction = 0.5;
    AccessPattern pattern(profile, 2000, Rng(21), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 4 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // Initial touches (2000) plus ~8 scans of ~1000 pages each.
    EXPECT_GT(accesses, 2000u + 3000u);
    EXPECT_LT(accesses, 2000u + 16000u);
}

TEST(AccessPattern, NoScansWhenDisabled)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.frozen_reaccess_prob = 0.0;
    profile.scan_interval_mean = 0;  // disabled
    AccessPattern pattern(profile, 500, Rng(23), 0);
    EXPECT_EQ(pattern.next_scan(), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 2 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    EXPECT_EQ(accesses, 500u);  // initial touches only
}

// ------------------------------------------------------------ profiles

TEST(JobProfileTest, TypicalMixIsWellFormed)
{
    FleetMix mix = typical_fleet_mix();
    ASSERT_EQ(mix.profiles.size(), mix.weights.size());
    ASSERT_GE(mix.profiles.size(), 5u);
    for (const JobProfile &p : mix.profiles) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.min_pages, 0u);
        EXPECT_LE(p.min_pages, p.max_pages);
        double reuse = p.hot_frac + p.warm_frac + p.diurnal_frac +
                       p.cold_frac;
        EXPECT_LE(reuse, 1.0 + 1e-9) << p.name;
        EXPECT_GE(p.write_frac, 0.0);
        EXPECT_LE(p.write_frac, 1.0);
    }
}

TEST(JobProfileTest, SampleCoversArchetypes)
{
    FleetMix mix = typical_fleet_mix();
    Rng rng(15);
    std::vector<int> counts(mix.profiles.size(), 0);
    for (int i = 0; i < 5000; ++i)
        ++counts[mix.sample(rng)];
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_GT(counts[i], 0) << mix.profiles[i].name;
}

TEST(JobProfileTest, LookupByName)
{
    JobProfile p = profile_by_name("kv_cache");
    EXPECT_EQ(p.name, "kv_cache");
}

// ----------------------------------------------------------------- job

TEST(JobTest, SizeWithinProfileRange)
{
    JobProfile profile = profile_by_name("web_frontend");
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Job job(1, profile, seed, 0);
        EXPECT_GE(job.memcg().num_pages(), profile.min_pages);
        EXPECT_LE(job.memcg().num_pages(), profile.max_pages);
    }
}

TEST(JobTest, StepChargesAppCycles)
{
    JobProfile profile = profile_by_name("bigtable");
    auto compressor = make_compressor(CompressionMode::kModeled);
    Zswap zswap(compressor.get(), 1);
    Job job(1, profile, 3, 0);
    JobStepStats stats = job.run_step(0, kMinute, zswap);
    EXPECT_GT(stats.accesses, 0u);
    EXPECT_DOUBLE_EQ(job.memcg().stats().app_cycles,
                     profile.cycles_per_access *
                         static_cast<double>(stats.accesses));
}

TEST(JobTest, BestEffortFlagPropagates)
{
    JobProfile profile = profile_by_name("batch_analytics");
    ASSERT_TRUE(profile.best_effort);
    Job job(1, profile, 3, 0);
    EXPECT_TRUE(job.memcg().best_effort());
}

// --------------------------------------------------------------- trace

TraceEntry
make_entry(JobId job, SimTime ts)
{
    TraceEntry entry;
    entry.job = job;
    entry.timestamp = ts;
    entry.wss_pages = 1234;
    entry.promo_delta.add(3, 7);
    entry.promo_delta.add(250, 1);
    entry.cold_hist.add(0, 100);
    entry.cold_hist.add(10, 50);
    entry.sli.zswap_promotions_delta = 5;
    entry.sli.zswap_stores_delta = 11;
    entry.sli.zswap_rejects_delta = 2;
    entry.sli.zswap_pages = 42;
    entry.sli.resident_pages = 999;
    entry.sli.cold_pages_min = 77;
    entry.sli.compressed_bytes = 123456;
    entry.sli.compress_cycles_delta = 1.5;
    entry.sli.decompress_cycles_delta = 2.5;
    entry.sli.app_cycles_delta = 1e9;
    entry.sli.decompress_latency_us_delta = 6.4;
    return entry;
}

TEST(TraceTest, SaveLoadRoundTrip)
{
    TraceLog log;
    log.append(make_entry(1, 300));
    log.append(make_entry(2, 300));
    log.append(make_entry(1, 600));

    std::stringstream ss;
    log.save(ss);

    TraceLog loaded;
    ASSERT_TRUE(loaded.load(ss));
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded.entries()[0], log.entries()[0]);
    EXPECT_EQ(loaded.entries()[2], log.entries()[2]);
}

TEST(TraceTest, ByJobGroupsAndSorts)
{
    TraceLog log;
    log.append(make_entry(2, 600));
    log.append(make_entry(1, 900));
    log.append(make_entry(2, 300));
    auto traces = log.by_job();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].job, 1u);
    EXPECT_EQ(traces[1].job, 2u);
    ASSERT_EQ(traces[1].entries.size(), 2u);
    EXPECT_LT(traces[1].entries[0].timestamp,
              traces[1].entries[1].timestamp);
}

TEST(TraceTest, LoadRejectsGarbage)
{
    TraceLog log;
    std::stringstream ss("not a trace\n");
    EXPECT_FALSE(log.load(ss));
}

TEST(TraceTest, LoadRejectsMissingSli)
{
    TraceLog log;
    std::stringstream ss("E 1 300 10\nP\nC\n");
    EXPECT_FALSE(log.load(ss));
}

TEST(TraceTest, EmptyLogRoundTrip)
{
    TraceLog log;
    std::stringstream ss;
    log.save(ss);
    TraceLog loaded;
    EXPECT_TRUE(loaded.load(ss));
    EXPECT_TRUE(loaded.empty());
}

/**
 * Property: serialization round-trips over randomized entries.
 */
class TraceRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceRoundTrip, Randomized)
{
    Rng rng(GetParam());
    TraceLog log;
    std::size_t n = 1 + rng.next_below(30);
    for (std::size_t i = 0; i < n; ++i) {
        TraceEntry entry;
        entry.job = rng.next_below(5);
        entry.timestamp = static_cast<SimTime>(rng.next_below(100000));
        entry.wss_pages = rng.next_below(1 << 20);
        for (int b = 0; b < 8; ++b) {
            entry.promo_delta.add(
                static_cast<AgeBucket>(rng.next_below(256)),
                rng.next_below(1000));
            entry.cold_hist.add(
                static_cast<AgeBucket>(rng.next_below(256)),
                rng.next_below(1000));
        }
        entry.sli.zswap_pages = rng.next_below(1 << 16);
        entry.sli.app_cycles_delta = rng.next_double() * 1e12;
        log.append(entry);
    }
    std::stringstream ss;
    log.save(ss);
    TraceLog loaded;
    ASSERT_TRUE(loaded.load(ss));
    ASSERT_EQ(loaded.size(), log.size());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(loaded.entries()[i], log.entries()[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 13));

/** A trace record with dense histograms, as the log used to hold. */
struct DenseRecord
{
    TraceEntry header;  ///< job, timestamp, WSS and SLIs only
    AgeHistogram promo;
    AgeHistogram cold;
};

/** Text writer for dense histograms: a 256-bucket walk per line. */
void
write_dense_text(std::ostream &os, const DenseRecord &r)
{
    os.precision(17);
    const TraceEntry &e = r.header;
    os << "E " << e.job << ' ' << e.timestamp << ' ' << e.wss_pages
       << '\n';
    for (const auto &[tag, hist] :
         {std::pair<char, const AgeHistogram *>{'P', &r.promo},
          std::pair<char, const AgeHistogram *>{'C', &r.cold}}) {
        os << tag;
        for (std::size_t b = 0; b < kAgeBuckets; ++b) {
            std::uint64_t count = hist->at(static_cast<AgeBucket>(b));
            if (count != 0)
                os << ' ' << b << ':' << count;
        }
        os << '\n';
    }
    const JobSli &s = e.sli;
    os << "S " << s.zswap_promotions_delta << ' ' << s.zswap_stores_delta
       << ' ' << s.zswap_rejects_delta << ' ' << s.zswap_pages << ' '
       << s.resident_pages << ' ' << s.cold_pages_min << ' '
       << s.compressed_bytes << ' ' << s.compress_cycles_delta << ' '
       << s.decompress_cycles_delta << ' ' << s.app_cycles_delta << ' '
       << s.decompress_latency_us_delta << '\n';
}

/** Binary writer for dense histograms: count the non-zero buckets,
 *  then write a (u8, u64) pair per non-zero bucket. */
void
write_dense_binary(Serializer &s, const DenseRecord &r)
{
    const TraceEntry &e = r.header;
    s.put_u64(e.job);
    s.put_i64(e.timestamp);
    s.put_u64(e.wss_pages);
    for (const AgeHistogram *hist : {&r.promo, &r.cold}) {
        std::uint32_t nonzero = 0;
        for (std::size_t b = 0; b < kAgeBuckets; ++b)
            if (hist->at(static_cast<AgeBucket>(b)) != 0)
                ++nonzero;
        s.put_u32(nonzero);
        for (std::size_t b = 0; b < kAgeBuckets; ++b) {
            std::uint64_t count = hist->at(static_cast<AgeBucket>(b));
            if (count == 0)
                continue;
            s.put_u8(static_cast<std::uint8_t>(b));
            s.put_u64(count);
        }
    }
    s.put_u64(e.sli.zswap_promotions_delta);
    s.put_u64(e.sli.zswap_stores_delta);
    s.put_u64(e.sli.zswap_rejects_delta);
    s.put_u64(e.sli.zswap_pages);
    s.put_u64(e.sli.resident_pages);
    s.put_u64(e.sli.cold_pages_min);
    s.put_u64(e.sli.compressed_bytes);
    s.put_double(e.sli.compress_cycles_delta);
    s.put_double(e.sli.decompress_cycles_delta);
    s.put_double(e.sli.app_cycles_delta);
    s.put_double(e.sli.decompress_latency_us_delta);
}

/**
 * Records written from dense histograms, in both codecs, decode to
 * the sparse entries of the same histograms and re-encode to the same
 * bytes: the sparse log reads and writes the format the dense one did.
 */
TEST(TraceTest, DenseWrittenRecordsDecodeSparseAndReencodeIdentically)
{
    Rng rng(17);
    std::vector<DenseRecord> records;
    for (int i = 0; i < 40; ++i) {
        DenseRecord r;
        r.header = make_entry(static_cast<JobId>(1 + i % 7),
                              300 * (1 + i / 7));
        r.header.promo_delta = SparseAgeHistogram();
        r.header.cold_hist = SparseAgeHistogram();
        r.header.sli.app_cycles_delta = rng.next_double() * 1e11;
        // Window shapes from empty to all 256 buckets, edges included.
        const std::uint64_t fill =
            i == 0 ? 0 : i == 1 ? 256 : 1 + rng.next_below(40);
        for (std::uint64_t k = 0; k < fill; ++k) {
            auto b = static_cast<AgeBucket>(
                fill == 256 ? k : rng.next_below(256));
            r.promo.add(b, 1 + rng.next_below(1000));
            r.cold.add(static_cast<AgeBucket>(255 - b),
                       1 + rng.next_below(1u << 20));
        }
        records.push_back(r);
    }

    TraceLog expected;
    std::ostringstream text;
    Serializer binary;
    binary.put_u64(records.size());
    for (const DenseRecord &r : records) {
        TraceEntry e = r.header;
        e.promo_delta = SparseAgeHistogram(r.promo);
        e.cold_hist = SparseAgeHistogram(r.cold);
        expected.append(e);
        write_dense_text(text, r);
        write_dense_binary(binary, r);
    }

    TraceLog from_text;
    std::istringstream text_in(text.str());
    ASSERT_TRUE(from_text.load(text_in));
    TraceLog from_binary;
    Deserializer d(binary.bytes());
    ASSERT_TRUE(from_binary.ckpt_load(d));
    ASSERT_TRUE(d.at_end());
    ASSERT_EQ(from_text.size(), records.size());
    ASSERT_EQ(from_binary.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(from_binary.entries()[i], expected.entries()[i]) << i;
        // Text keeps 17 significant digits, which round-trip a double.
        EXPECT_EQ(from_text.entries()[i], expected.entries()[i]) << i;
    }

    std::ostringstream text_again;
    from_text.save(text_again);
    EXPECT_EQ(text_again.str(), text.str());
    Serializer binary_again;
    from_binary.ckpt_save(binary_again);
    EXPECT_EQ(binary_again.bytes(), binary.bytes());
}

}  // namespace
}  // namespace sdfm
