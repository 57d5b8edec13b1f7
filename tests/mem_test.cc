/**
 * @file
 * Tests for the kernel substrate: memcg page-state transitions,
 * kstaled aging and histogram semantics (including the paper's
 * Section 4.3 worked example), kreclaimd eligibility and thresholds,
 * and the zswap store/load/drop paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "compression/compressor.h"
#include "mem/kreclaimd.h"
#include "mem/kstaled.h"
#include "mem/memcg.h"
#include "mem/zswap.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sdfm {
namespace {

/** Everything-compressible mix for deterministic reclaim tests. */
ContentMix
compressible_mix()
{
    return ContentMix(0.0, 0.0, 1.0, 0.0, 0.0);
}

ContentMix
incompressible_mix()
{
    return ContentMix(0.0, 0.0, 0.0, 0.0, 1.0);
}

struct Rig
{
    explicit Rig(std::uint32_t pages,
                 ContentMix mix = compressible_mix(),
                 CompressionMode mode = CompressionMode::kModeled)
        : compressor(make_compressor(mode)),
          zswap(compressor.get(), 1),
          cg(1, pages, 42, mix, 0)
    {
    }

    std::unique_ptr<Compressor> compressor;
    Zswap zswap;
    Memcg cg;
    Kstaled kstaled;
    Kreclaimd kreclaimd;
};

// --------------------------------------------------------------- memcg

TEST(MemcgTest, InitialState)
{
    Rig rig(100);
    EXPECT_EQ(rig.cg.resident_pages(), 100u);
    EXPECT_EQ(rig.cg.zswap_pages(), 0u);
    // Before the first scan, all pages count as working set.
    EXPECT_EQ(rig.cg.wss_pages(), 100u);
    EXPECT_EQ(rig.cg.cold_pages_min_threshold(), 0u);
}

TEST(MemcgTest, TouchSetsAccessedBit)
{
    Rig rig(10);
    rig.cg.touch(3, /*is_write=*/false, rig.zswap);
    EXPECT_TRUE(rig.cg.page_test(3, kPageAccessed));
    EXPECT_FALSE(rig.cg.page_test(3, kPageDirty));
}

TEST(MemcgTest, WriteSetsDirtyAndRotatesVersion)
{
    Rig rig(10);
    std::uint64_t seed_before = rig.cg.content_seed_of(3);
    rig.cg.touch(3, /*is_write=*/true, rig.zswap);
    EXPECT_TRUE(rig.cg.page_test(3, kPageDirty));
    EXPECT_NE(rig.cg.content_seed_of(3), seed_before);
}

TEST(MemcgTest, UnevictableFlag)
{
    Rig rig(10);
    rig.cg.set_unevictable(5, true);
    EXPECT_TRUE(rig.cg.page_test(5, kPageUnevictable));
    rig.cg.set_unevictable(5, false);
    EXPECT_FALSE(rig.cg.page_test(5, kPageUnevictable));
}

// ------------------------------------------------------------- kstaled

TEST(KstaledTest, UntouchedPagesAge)
{
    Rig rig(50);
    ScanResult scan = rig.kstaled.scan(rig.cg);
    EXPECT_EQ(scan.pages_scanned, 50u);
    EXPECT_EQ(scan.accessed_pages, 0u);
    for (PageId p = 0; p < 50; ++p)
        EXPECT_EQ(rig.cg.page_age(p), 1);
    EXPECT_EQ(rig.cg.cold_pages_min_threshold(), 50u);
    EXPECT_EQ(rig.cg.wss_pages(), 0u);
}

TEST(KstaledTest, AccessedPageResetsToZero)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);  // everyone at age 1
    rig.cg.touch(4, false, rig.zswap);
    ScanResult scan = rig.kstaled.scan(rig.cg);
    EXPECT_EQ(scan.accessed_pages, 1u);
    EXPECT_EQ(rig.cg.page_age(4), 0);
    EXPECT_FALSE(rig.cg.page_test(4, kPageAccessed));
    EXPECT_EQ(rig.cg.page_age(5), 2);
}

TEST(KstaledTest, AgeSaturatesAt255)
{
    Rig rig(1);
    for (int i = 0; i < 300; ++i)
        rig.kstaled.scan(rig.cg);
    EXPECT_EQ(rig.cg.page_age(0), 255);
}

TEST(KstaledTest, PromotionHistogramRecordsPreScanAge)
{
    Rig rig(1);
    // Age the page to 5 scan periods, then touch it.
    for (int i = 0; i < 5; ++i)
        rig.kstaled.scan(rig.cg);
    EXPECT_EQ(rig.cg.page_age(0), 5);
    rig.cg.touch(0, false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    EXPECT_EQ(rig.cg.promo_hist().at(5), 1u);
    EXPECT_EQ(rig.cg.promo_hist().total(), 1u);
}

/**
 * The paper's Section 4.3 example: pages A and B last accessed 5 and
 * 10 minutes ago, both re-accessed 1 minute ago. The promotion
 * histogram must report 1 promotion under T = 8 min and 2 under
 * T = 2 min.
 */
TEST(KstaledTest, PaperWorkedExample)
{
    Rig rig(2);
    const PageId a = 0, b = 1;
    // Construct the example's state directly: A idle 5 minutes
    // (age 2 scan periods of 120 s), B idle 10 minutes (age 5), then
    // both re-accessed one minute ago.
    rig.cg.set_page_age(a, age_to_bucket(5 * 60));
    rig.cg.set_page_age(b, age_to_bucket(10 * 60));
    rig.cg.touch(a, false, rig.zswap);
    rig.cg.touch(b, false, rig.zswap);
    rig.kstaled.scan(rig.cg);  // records the pre-access ages
    // Under T = 8 min only B would have been a promotion; under
    // T = 2 min both would (1 and 2 promotions/min respectively in
    // the paper's phrasing).
    const AgeHistogram &promo = rig.cg.promo_hist();
    EXPECT_EQ(promo.count_at_least(age_to_bucket(8 * 60)), 1u);
    EXPECT_EQ(promo.count_at_least(age_to_bucket(2 * 60)), 2u);
}

TEST(KstaledTest, DirtyClearsIncompressibleMark)
{
    Rig rig(1);
    rig.cg.page_set(0, kPageIncompressible);
    rig.cg.touch(0, /*is_write=*/true, rig.zswap);
    rig.kstaled.scan(rig.cg);
    EXPECT_FALSE(rig.cg.page_test(0, kPageIncompressible));
    EXPECT_FALSE(rig.cg.page_test(0, kPageDirty));
}

TEST(KstaledTest, ReadDoesNotClearIncompressible)
{
    Rig rig(1);
    rig.cg.page_set(0, kPageIncompressible);
    rig.cg.touch(0, /*is_write=*/false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    EXPECT_TRUE(rig.cg.page_test(0, kPageIncompressible));
}

TEST(KstaledTest, ColdHistogramRebuilt)
{
    Rig rig(4);
    rig.kstaled.scan(rig.cg);
    rig.cg.touch(0, false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    const AgeHistogram &cold = rig.cg.cold_hist();
    EXPECT_EQ(cold.at(0), 1u);  // the touched page
    EXPECT_EQ(cold.at(2), 3u);  // the others aged twice
    EXPECT_EQ(cold.total(), 4u);
}

TEST(KstaledTest, ScanCpuCost)
{
    KstaledParams params;
    params.cycles_per_page = 100.0;
    Kstaled kstaled(params);
    Rig rig(1000);
    ScanResult scan = kstaled.scan(rig.cg);
    EXPECT_DOUBLE_EQ(scan.cpu_cycles, 100000.0);
}

TEST(KstaledStride, VisitsOneStripePerScan)
{
    KstaledParams params;
    params.scan_stride = 4;
    Kstaled kstaled(params);
    Rig rig(16);
    ScanResult scan = kstaled.scan(rig.cg, /*phase=*/0);
    EXPECT_EQ(scan.pages_scanned, 4u);
    // Visited pages aged by the stride; others untouched.
    EXPECT_EQ(rig.cg.page_age(0), 4);
    EXPECT_EQ(rig.cg.page_age(1), 0);
    EXPECT_EQ(rig.cg.page_age(4), 4);
}

TEST(KstaledStride, FullCoverageAfterStrideScans)
{
    KstaledParams params;
    params.scan_stride = 4;
    Kstaled kstaled(params);
    Rig rig(17);
    for (std::uint32_t phase = 0; phase < 4; ++phase)
        kstaled.scan(rig.cg, phase);
    for (PageId p = 0; p < 17; ++p)
        EXPECT_EQ(rig.cg.page_age(p), 4) << p;
}

TEST(KstaledStride, StickyAccessedBitPreservesRecency)
{
    KstaledParams params;
    params.scan_stride = 4;
    Kstaled kstaled(params);
    Rig rig(8);
    // Touch page 1 now; its stripe (phase 1) is visited next scan.
    rig.cg.touch(1, false, rig.zswap);
    kstaled.scan(rig.cg, 0);  // page 1 not visited; bit stays
    EXPECT_TRUE(rig.cg.page_test(1, kPageAccessed));
    ScanResult scan = kstaled.scan(rig.cg, 1);
    EXPECT_EQ(scan.accessed_pages, 1u);
    EXPECT_EQ(rig.cg.page_age(1), 0);
    EXPECT_FALSE(rig.cg.page_test(1, kPageAccessed));
}

TEST(KstaledStride, CpuScalesDownWithStride)
{
    Rig rig(1000);
    KstaledParams fine;
    KstaledParams coarse;
    coarse.scan_stride = 8;
    double fine_cycles = Kstaled(fine).scan(rig.cg, 0).cpu_cycles;
    double coarse_cycles = Kstaled(coarse).scan(rig.cg, 1).cpu_cycles;
    EXPECT_NEAR(coarse_cycles, fine_cycles / 8.0, fine_cycles * 0.01);
}

// --------------------------------------------------------------- zswap

TEST(ZswapTest, StoreAndLoadRoundTrip)
{
    Rig rig(10);
    EXPECT_TRUE(rig.zswap.store(rig.cg, 0));
    EXPECT_TRUE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_EQ(rig.cg.resident_pages(), 9u);
    EXPECT_EQ(rig.cg.zswap_pages(), 1u);
    EXPECT_GT(rig.zswap.pool_bytes(), 0u);

    rig.zswap.load(rig.cg, 0);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_EQ(rig.cg.resident_pages(), 10u);
    EXPECT_EQ(rig.cg.stats().zswap_promotions, 1u);
    EXPECT_GT(rig.cg.stats().decompress_cycles, 0.0);
    EXPECT_GT(rig.cg.stats().decompress_latency_us_sum, 0.0);
}

TEST(ZswapTest, TouchPromotesStoredPage)
{
    Rig rig(10);
    rig.zswap.store(rig.cg, 3);
    bool promoted = rig.cg.touch(3, false, rig.zswap);
    EXPECT_TRUE(promoted);
    EXPECT_FALSE(rig.cg.page_test(3, kPageInZswap));
    EXPECT_TRUE(rig.cg.page_test(3, kPageAccessed));
}

TEST(ZswapTest, IncompressiblePageRejectedAndMarked)
{
    Rig rig(10, incompressible_mix());
    EXPECT_FALSE(rig.zswap.store(rig.cg, 0));
    EXPECT_TRUE(rig.cg.page_test(0, kPageIncompressible));
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_EQ(rig.cg.resident_pages(), 10u);
    EXPECT_EQ(rig.cg.stats().zswap_rejects, 1u);
    // Cycles were burned on the failed attempt.
    EXPECT_GT(rig.cg.stats().compress_cycles, 0.0);
}

TEST(ZswapTest, DropDiscardsWithoutDecompression)
{
    Rig rig(10);
    rig.zswap.store(rig.cg, 1);
    double cycles_before = rig.cg.stats().decompress_cycles;
    rig.zswap.drop(rig.cg, 1);
    EXPECT_EQ(rig.cg.stats().decompress_cycles, cycles_before);
    EXPECT_EQ(rig.cg.stats().zswap_promotions, 0u);
    EXPECT_EQ(rig.cg.resident_pages(), 10u);
    EXPECT_EQ(rig.zswap.pool_bytes(), 0u);
}

TEST(ZswapTest, DropAllOnTeardown)
{
    Rig rig(20);
    for (PageId p = 0; p < 20; p += 2)
        rig.zswap.store(rig.cg, p);
    EXPECT_EQ(rig.cg.zswap_pages(), 10u);
    rig.zswap.drop_all(rig.cg);
    EXPECT_EQ(rig.cg.zswap_pages(), 0u);
    EXPECT_EQ(rig.zswap.stored_pages(), 0u);
}

TEST(ZswapTest, CompressedBytesTracked)
{
    Rig rig(10);
    rig.zswap.store(rig.cg, 0);
    std::uint64_t bytes = rig.cg.stats().compressed_bytes_stored;
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, kMaxZswapPayload);
    rig.zswap.load(rig.cg, 0);
    EXPECT_EQ(rig.cg.stats().compressed_bytes_stored, 0u);
}

TEST(ZswapTest, RealCompressorEndToEnd)
{
    Rig rig(10, compressible_mix(), CompressionMode::kReal);
    EXPECT_TRUE(rig.zswap.store(rig.cg, 0));
    rig.zswap.load(rig.cg, 0);
    EXPECT_EQ(rig.cg.stats().zswap_promotions, 1u);
}

// ------------------------------------------- dense handle/checksum tables

TEST(ZswapDense, StoreLoadDropKeepTheHandlePlaneInStep)
{
    Rig rig(64);
    // No plane until the first store.
    EXPECT_TRUE(rig.cg.zswap_handles().empty());
    for (PageId p = 0; p < 10; ++p)
        ASSERT_TRUE(rig.zswap.store(rig.cg, p));
    ASSERT_EQ(rig.cg.zswap_handles().size(), 64u);
    for (PageId p = 0; p < 10; ++p) {
        ZsHandle h = rig.cg.zswap_handle(p);
        EXPECT_TRUE(rig.zswap.arena().is_live(h));
        EXPECT_EQ(rig.cg.zswap_handles()[p], h);
        for (PageId q = 0; q < p; ++q)
            EXPECT_NE(rig.cg.zswap_handle(q), h);
    }
    EXPECT_EQ(rig.cg.zswap_handle(10), 0u);

    ZsHandle loaded = rig.cg.zswap_handle(3);
    rig.zswap.load(rig.cg, 3);
    EXPECT_EQ(rig.cg.zswap_handle(3), 0u);
    EXPECT_FALSE(rig.zswap.arena().is_live(loaded));
    ZsHandle dropped = rig.cg.zswap_handle(5);
    rig.zswap.drop(rig.cg, 5);
    EXPECT_EQ(rig.cg.zswap_handle(5), 0u);
    EXPECT_FALSE(rig.zswap.arena().is_live(dropped));
    EXPECT_EQ(rig.zswap.stored_pages(), 8u);
    EXPECT_EQ(rig.cg.zswap_pages(), 8u);

    // A re-store gets a live handle again and round-trips unpoisoned.
    ASSERT_TRUE(rig.zswap.store(rig.cg, 3));
    EXPECT_TRUE(rig.zswap.arena().is_live(rig.cg.zswap_handle(3)));
    rig.zswap.load(rig.cg, 3);
    EXPECT_EQ(rig.zswap.stats().poisoned_entries, 0u);
    rig.cg.check_invariants();
    rig.zswap.check_invariants();
}

TEST(ZswapDense, PageIdsAreAscendingWhateverTheStoreOrder)
{
    Rig rig(64);
    for (PageId p : {17u, 3u, 40u, 8u, 25u, 63u, 0u})
        ASSERT_TRUE(rig.zswap.store(rig.cg, p));
    rig.zswap.load(rig.cg, 40);
    EXPECT_EQ(rig.cg.zswap_page_ids(),
              (std::vector<PageId>{0, 3, 8, 17, 25, 63}));
    rig.zswap.drop_all(rig.cg);
    EXPECT_TRUE(rig.cg.zswap_page_ids().empty());
    EXPECT_EQ(rig.zswap.stored_pages(), 0u);
}

TEST(ZswapDense, CorruptEntryPicksTheKthLiveHandleInAscendingOrder)
{
    Rig rig(200);
    for (PageId p = 0; p < 200; ++p)
        ASSERT_TRUE(rig.zswap.store(rig.cg, p));
    // Free every third handle so the live set has holes.
    for (PageId p = 0; p < 200; p += 3)
        rig.zswap.load(rig.cg, p);

    Rng rng(2024);
    for (int round = 0; round < 25; ++round) {
        // Reference: the live handles, sorted, indexed by the same draw.
        std::vector<std::pair<ZsHandle, PageId>> live;
        for (PageId p : rig.cg.zswap_page_ids())
            live.emplace_back(rig.cg.zswap_handle(p), p);
        std::sort(live.begin(), live.end());
        Rng reference = rng;
        const PageId victim =
            live[reference.next_below(live.size())].second;

        ASSERT_TRUE(rig.zswap.corrupt_entry(rng));
        // Only the reference victim comes back poisoned.
        std::uint64_t poisoned = rig.zswap.stats().poisoned_entries;
        rig.zswap.load(rig.cg, victim);
        EXPECT_EQ(rig.zswap.stats().poisoned_entries, poisoned + 1)
            << "round " << round;
    }
    for (PageId p : rig.cg.zswap_page_ids())
        rig.zswap.load(rig.cg, p);
    EXPECT_EQ(rig.zswap.stats().poisoned_entries, 25u);
    EXPECT_FALSE(rig.zswap.corrupt_entry(rng));
}

TEST(ZswapVerify, RoundTripVerifiedWithRealBackend)
{
    RealCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    Memcg cg(1, 50, 42, compressible_mix(), 0);
    for (PageId p = 0; p < 50; ++p)
        ASSERT_TRUE(zswap.store(cg, p));
    for (PageId p = 0; p < 50; ++p)
        zswap.load(cg, p);
    EXPECT_EQ(zswap.stats().verified_roundtrips, 50u);
}

TEST(ZswapVerify, VerifiesAcrossContentClasses)
{
    RealCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    // All compressible classes, incl. zero and text pages.
    Memcg cg(1, 300, 42, ContentMix(0.3, 0.3, 0.2, 0.2, 0.0), 0);
    for (PageId p = 0; p < 300; ++p)
        zswap.store(cg, p);
    for (PageId p = 0; p < 300; ++p) {
        if (cg.page_test(p, kPageInZswap))
            zswap.load(cg, p);
    }
    EXPECT_GT(zswap.stats().verified_roundtrips, 250u);
}

TEST(ZswapVerify, SurvivesWritesBetweenEpisodes)
{
    RealCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    Memcg cg(1, 10, 42, compressible_mix(), 0);
    zswap.store(cg, 0);
    cg.touch(0, /*is_write=*/true, zswap);  // promote + dirty
    // New contents; store and verify the fresh version round-trips.
    zswap.store(cg, 0);
    zswap.load(cg, 0);
    EXPECT_EQ(zswap.stats().verified_roundtrips, 2u);
}

TEST(ZswapVerify, ModeledBackendDisablesGracefully)
{
    set_log_quiet(true);
    ModeledCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    Memcg cg(1, 10, 42, compressible_mix(), 0);
    EXPECT_TRUE(zswap.store(cg, 0));
    zswap.load(cg, 0);  // must not crash
    EXPECT_EQ(zswap.stats().verified_roundtrips, 0u);
}

TEST(ZswapDeath, StoringZswapPageCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rig rig(10);
    rig.zswap.store(rig.cg, 0);
    EXPECT_DEATH(rig.zswap.store(rig.cg, 0), "assertion failed");
}

// ------------------------------------------------------------ kreclaimd

TEST(KreclaimdTest, DisabledWhenThresholdZero)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(0);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 0u);
}

TEST(KreclaimdTest, DisabledWhenZswapOff)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(false);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 0u);
}

TEST(KreclaimdTest, ReclaimsOnlyPagesPastThreshold)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);  // all at age 1
    rig.cg.touch(0, false, rig.zswap);
    rig.kstaled.scan(rig.cg);  // page 0 at 0, others at 2
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(2);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 9u);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
}

TEST(KreclaimdTest, SkipsUnevictableAndIncompressible)
{
    Rig rig(10);
    rig.cg.set_unevictable(0, true);
    rig.cg.page_set(1, kPageIncompressible);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 8u);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_FALSE(rig.cg.page_test(1, kPageInZswap));
}

TEST(KreclaimdTest, SkipsRecentlyAccessed)
{
    Rig rig(4);
    rig.kstaled.scan(rig.cg);
    rig.kstaled.scan(rig.cg);  // age 2
    // Touch page 0 after the scan: accessed bit set, stale age.
    rig.cg.touch(0, false, rig.zswap);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 3u);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
}

TEST(KreclaimdTest, DirectReclaimTakesOldestFirst)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    // Pages 0-4 touched -> young; 5-9 at age 2.
    for (PageId p = 0; p < 5; ++p)
        rig.cg.touch(p, false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    ReclaimResult result =
        rig.kreclaimd.direct_reclaim(rig.cg, rig.zswap, 3);
    EXPECT_EQ(result.pages_stored, 3u);
    // The oldest (5-9) were taken, not the young ones.
    for (PageId p = 0; p < 5; ++p)
        EXPECT_FALSE(rig.cg.page_test(p, kPageInZswap));
}

TEST(KreclaimdTest, DirectReclaimRespectsSoftLimit)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_soft_limit_pages(8);
    ReclaimResult result =
        rig.kreclaimd.direct_reclaim(rig.cg, rig.zswap, 10);
    // Only 2 pages may leave DRAM before hitting the soft limit.
    EXPECT_EQ(result.pages_stored, 2u);
    EXPECT_EQ(rig.cg.resident_pages(), 8u);
}

TEST(KreclaimdTest, DirectReclaimZeroTarget)
{
    Rig rig(10);
    ReclaimResult result =
        rig.kreclaimd.direct_reclaim(rig.cg, rig.zswap, 0);
    EXPECT_EQ(result.pages_stored, 0u);
    EXPECT_EQ(result.pages_walked, 0u);
}

TEST(KreclaimdTest, ZswapPagesAgeAndStayStored)
{
    Rig rig(4);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(rig.cg.zswap_pages(), 4u);
    // More scans: stored pages keep aging but stay stored, and the
    // cold histogram still counts them.
    rig.kstaled.scan(rig.cg);
    rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(rig.cg.zswap_pages(), 4u);
    EXPECT_EQ(rig.cg.cold_pages_min_threshold(), 4u);
}

}  // namespace
}  // namespace sdfm
