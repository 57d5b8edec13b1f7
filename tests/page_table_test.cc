/**
 * @file
 * Tests for the struct-of-arrays PageTable: flag-bitset parity with
 * the historical PageMeta layout under randomized op sequences,
 * word-boundary and popcount edge cases, region-summary staleness
 * semantics (point writes widen, rebuilds tighten), SoA-vs-AoS digest
 * equality on a downscaled default fleet, and a full-machine
 * checkpoint round trip that crosses layouts mid-trajectory.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>

#include "ckpt/checkpoint.h"
#include "core/far_memory_system.h"
#include "mem/memcg.h"
#include "mem/page_table.h"
#include "util/digest.h"
#include "util/rng.h"
#include "workload/job_profile.h"

namespace sdfm {
namespace {

/** RAII override of the process-wide default layout. */
struct LayoutGuard
{
    explicit LayoutGuard(PageLayout layout) : saved(default_page_layout())
    {
        set_default_page_layout(layout);
    }
    ~LayoutGuard() { set_default_page_layout(saved); }
    PageLayout saved;
};

constexpr PageFlag kAllFlags[] = {
    kPageAccessed,        kPageDirty,   kPageUnevictable,
    kPageIncompressible,  kPageInZswap, kPageInFarTier,
};

std::uint64_t
table_digest(const PageTable &pt)
{
    StateDigest d;
    pt.state_digest(d);
    return d.value();
}

// ---------------------------------------------------------------------
// Layout parity
// ---------------------------------------------------------------------

TEST(PageTable, FreshTablesOfBothLayoutsAgree)
{
    PageTable soa(1000, PageLayout::kSoa);
    PageTable aos(1000, PageLayout::kAos);
    EXPECT_EQ(soa.size(), 1000u);
    EXPECT_EQ(aos.size(), 1000u);
    EXPECT_EQ(table_digest(soa), table_digest(aos));
    for (PageId p : {PageId{0}, PageId{63}, PageId{64}, PageId{999}}) {
        EXPECT_EQ(soa.age(p), aos.age(p));
        EXPECT_EQ(soa.flags(p), aos.flags(p));
        EXPECT_EQ(soa.content(p), aos.content(p));
        EXPECT_EQ(soa.content(p), ContentClass::kStructured);
        EXPECT_EQ(soa.version(p), aos.version(p));
    }
}

TEST(PageTable, RandomOpSequenceKeepsLayoutsIdentical)
{
    constexpr std::uint32_t kPages = 700;  // spans a partial region
    PageTable soa(kPages, PageLayout::kSoa);
    PageTable aos(kPages, PageLayout::kAos);
    Rng rng(7);

    for (int step = 0; step < 20000; ++step) {
        PageId p = static_cast<PageId>(rng.next_below(kPages));
        PageFlag f = kAllFlags[rng.next_below(6)];
        switch (rng.next_below(5)) {
          case 0:
            soa.set(p, f);
            aos.set(p, f);
            break;
          case 1:
            soa.clear(p, f);
            aos.clear(p, f);
            break;
          case 2: {
            std::uint8_t a = static_cast<std::uint8_t>(rng.next_below(256));
            soa.set_age(p, a);
            aos.set_age(p, a);
            break;
          }
          case 3:
            soa.bump_version(p);
            aos.bump_version(p);
            break;
          default:
            soa.set_content(p, static_cast<ContentClass>(
                                   rng.next_below(static_cast<std::uint32_t>(
                                       ContentClass::kNumClasses))));
            aos.set_content(p, soa.content(p));
            break;
        }
        EXPECT_EQ(soa.test(p, f), aos.test(p, f));
        EXPECT_EQ(soa.flags(p), aos.flags(p));
        EXPECT_EQ(soa.in_far_memory(p), aos.in_far_memory(p));
    }
    EXPECT_EQ(table_digest(soa), table_digest(aos));

    // And the wire bytes agree, both directions.
    Serializer ss;
    soa.ckpt_save(ss);
    Serializer sa;
    aos.ckpt_save(sa);
    EXPECT_EQ(ss.bytes(), sa.bytes());
}

// ---------------------------------------------------------------------
// Word-level edge cases
// ---------------------------------------------------------------------

TEST(PageTable, LiveMaskCoversPartialTailWord)
{
    for (std::uint32_t n : {63u, 64u, 65u, 128u, 700u}) {
        PageTable pt(n, PageLayout::kSoa);
        std::size_t words = (n + 63) / 64;
        EXPECT_EQ(pt.num_words(), words) << n;
        for (std::size_t w = 0; w + 1 < words; ++w)
            EXPECT_EQ(pt.live_mask(w), ~0ULL) << n << " word " << w;
        std::uint32_t rem = n - static_cast<std::uint32_t>(words - 1) * 64;
        std::uint64_t want =
            rem == 64 ? ~0ULL : (1ULL << rem) - 1;
        EXPECT_EQ(pt.live_mask(words - 1), want) << n;
    }
}

TEST(PageTable, TailBitsStayZeroAcrossSetsAtWordBoundaries)
{
    PageTable pt(65, PageLayout::kSoa);  // one full word + one bit
    pt.set(63, kPageAccessed);
    pt.set(64, kPageAccessed);
    EXPECT_TRUE(pt.test(63, kPageAccessed));
    EXPECT_TRUE(pt.test(64, kPageAccessed));
    EXPECT_FALSE(pt.test(62, kPageAccessed));
    EXPECT_EQ(pt.accessed_words()[0], 1ULL << 63);
    EXPECT_EQ(pt.accessed_words()[1], 1ULL);
    EXPECT_EQ(std::popcount(pt.accessed_words()[0]) +
                  std::popcount(pt.accessed_words()[1]),
              2);
    pt.clear(63, kPageAccessed);
    EXPECT_EQ(pt.accessed_words()[0], 0u);
    pt.check_invariants();
}

TEST(PageTable, FlagsGatherMatchesPopulationCounts)
{
    constexpr std::uint32_t kPages = 320;
    PageTable pt(kPages, PageLayout::kSoa);
    Rng rng(11);
    std::uint64_t expect_accessed = 0;
    for (PageId p = 0; p < kPages; ++p) {
        if (rng.next_bool(0.37)) {
            pt.set(p, kPageAccessed);
            ++expect_accessed;
        }
    }
    std::uint64_t pop = 0;
    for (std::size_t w = 0; w < pt.num_words(); ++w)
        pop += static_cast<std::uint64_t>(
            std::popcount(pt.accessed_words()[w]));
    EXPECT_EQ(pop, expect_accessed);
    std::uint64_t gathered = 0;
    for (PageId p = 0; p < kPages; ++p)
        if (pt.flags(p) & kPageAccessed)
            ++gathered;
    EXPECT_EQ(gathered, expect_accessed);
}

// ---------------------------------------------------------------------
// Region summaries
// ---------------------------------------------------------------------

TEST(PageTable, PointWritesWidenSummariesAndRebuildTightens)
{
    PageTable pt(2 * kPageRegionPages, PageLayout::kSoa);
    EXPECT_EQ(pt.num_summary_regions(), 2u);
    // Fresh table: all ages zero, summaries exact.
    EXPECT_EQ(pt.region_min_age(0), 0);
    EXPECT_EQ(pt.region_max_age(0), 0);

    // A point write widens the max bound but cannot shrink the min.
    pt.set_age(10, 200);
    EXPECT_EQ(pt.region_min_age(0), 0);
    EXPECT_EQ(pt.region_max_age(0), 200);
    EXPECT_EQ(pt.region_max_age(1), 0);  // other region untouched

    // Overwriting the only old page leaves a stale (conservative,
    // still sound) upper bound...
    pt.set_age(10, 3);
    EXPECT_EQ(pt.region_max_age(0), 200);
    // ...until a rebuild computes the exact bounds.
    pt.rebuild_region_summaries();
    EXPECT_EQ(pt.region_min_age(0), 0);
    EXPECT_EQ(pt.region_max_age(0), 3);
    pt.check_invariants();
}

TEST(PageTable, RegionAccessedOrSeesAnyBitInTheRegion)
{
    PageTable pt(2 * kPageRegionPages, PageLayout::kSoa);
    EXPECT_EQ(pt.region_accessed_or(0), 0u);
    EXPECT_EQ(pt.region_accessed_or(1), 0u);
    pt.set(kPageRegionPages + 17, kPageAccessed);
    EXPECT_EQ(pt.region_accessed_or(0), 0u);
    EXPECT_NE(pt.region_accessed_or(1), 0u);
}

// ---------------------------------------------------------------------
// Checkpoint wire format
// ---------------------------------------------------------------------

TEST(PageTable, CkptRoundTripRestoresEveryField)
{
    PageTable pt(130, PageLayout::kSoa);
    pt.set_age(0, 9);
    pt.set_age(129, 255);
    pt.set(5, kPageInZswap);
    pt.set(64, kPageInFarTier);
    pt.set(65, kPageUnevictable);
    pt.bump_version(7);
    pt.set_content(8, ContentClass::kZero);

    Serializer s;
    pt.ckpt_save(s);

    for (PageLayout layout : {PageLayout::kSoa, PageLayout::kAos}) {
        LayoutGuard guard(layout);
        PageTable back;
        std::uint64_t flagged_zswap = 0;
        std::uint64_t flagged_tier = 0;
        Deserializer d(s.bytes());
        ASSERT_TRUE(back.ckpt_load(d, flagged_zswap, flagged_tier));
        ASSERT_TRUE(d.at_end());
        EXPECT_EQ(back.layout(), layout);
        EXPECT_EQ(flagged_zswap, 1u);
        EXPECT_EQ(flagged_tier, 1u);
        EXPECT_EQ(back.size(), 130u);
        EXPECT_EQ(back.age(0), 9);
        EXPECT_EQ(back.age(129), 255);
        EXPECT_TRUE(back.test(5, kPageInZswap));
        EXPECT_TRUE(back.test(64, kPageInFarTier));
        EXPECT_TRUE(back.test(65, kPageUnevictable));
        EXPECT_EQ(back.version(7), 1u);
        EXPECT_EQ(back.content(8), ContentClass::kZero);
        EXPECT_EQ(table_digest(back), table_digest(pt));
        back.check_invariants();
        if (layout == PageLayout::kSoa) {
            // Summaries are rebuilt exactly on restore.
            EXPECT_EQ(back.region_max_age(0), 255);
            EXPECT_EQ(back.region_min_age(0), 0);
        }
    }
}

TEST(PageTable, CkptLoadRejectsUnknownFlagBitsAndBadContent)
{
    PageTable pt(4, PageLayout::kSoa);
    Serializer good;
    pt.ckpt_save(good);

    {  // flip an unknown (reserved) flag bit in page 0's record
        ByteBuffer bytes = good.bytes();
        // Wire: u64 count, then per page age u8, flags u8, ...
        bytes[8 + 1] = 0x40;
        PageTable back;
        std::uint64_t fz = 0;
        std::uint64_t ft = 0;
        Deserializer d(bytes);
        EXPECT_FALSE(back.ckpt_load(d, fz, ft));
    }
    {  // out-of-range content class
        ByteBuffer bytes = good.bytes();
        bytes[8 + 2] =
            static_cast<std::uint8_t>(ContentClass::kNumClasses);
        PageTable back;
        std::uint64_t fz = 0;
        std::uint64_t ft = 0;
        Deserializer d(bytes);
        EXPECT_FALSE(back.ckpt_load(d, fz, ft));
    }
}

// ---------------------------------------------------------------------
// Whole-fleet layout equivalence
// ---------------------------------------------------------------------

FleetConfig
small_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 33;
    config.serial_step = true;
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.mix = typical_fleet_mix();
    return config;
}

TEST(PageTableFleet, SoaAndAosFleetsProduceIdenticalTrajectories)
{
    FleetConfig config = small_fleet_config();

    LayoutGuard soa_guard(PageLayout::kSoa);
    FarMemorySystem soa_fleet(config);
    soa_fleet.populate();

    set_default_page_layout(PageLayout::kAos);
    FarMemorySystem aos_fleet(config);
    aos_fleet.populate();
    set_default_page_layout(PageLayout::kSoa);

    EXPECT_EQ(soa_fleet.state_digest(), aos_fleet.state_digest());
    for (int i = 0; i < 20; ++i) {
        soa_fleet.step();
        aos_fleet.step();
        ASSERT_EQ(soa_fleet.state_digest(), aos_fleet.state_digest())
            << "layouts diverged at step " << i;
    }
}

TEST(PageTableFleet, CheckpointCrossesLayoutsMidTrajectory)
{
    std::string path = "page_table_layout.ckpt";
    FleetConfig config = small_fleet_config();

    // Run and checkpoint an SoA fleet...
    LayoutGuard guard(PageLayout::kSoa);
    FarMemorySystem reference(config);
    reference.populate();
    for (int i = 0; i < 5; ++i)
        reference.step();
    ASSERT_EQ(reference.checkpoint(path), CkptStatus::kOk);

    // ...restore it into an AoS fleet (checkpoint bytes are
    // layout-independent by contract)...
    set_default_page_layout(PageLayout::kAos);
    FarMemorySystem resumed(config);
    ASSERT_EQ(resumed.restore(path), CkptStatus::kOk);
    set_default_page_layout(PageLayout::kSoa);
    EXPECT_EQ(resumed.state_digest(), reference.state_digest());

    // ...and the AoS continuation must track the SoA original.
    for (int i = 0; i < 10; ++i) {
        reference.step();
        resumed.step();
        ASSERT_EQ(resumed.state_digest(), reference.state_digest())
            << "diverged " << i << " steps after cross-layout restore";
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace sdfm
