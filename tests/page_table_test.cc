/**
 * @file
 * Tests for the struct-of-arrays PageTable and the daemons' fast paths
 * over it: the table against a per-page model under randomized op
 * sequences (digest and checkpoint wire bytes included), word-boundary
 * and popcount edge cases, region-summary staleness semantics (point
 * writes widen, rebuilds tighten), kstaled's region walk against its
 * per-page reference walk, and kreclaimd's word walk against a
 * per-page candidate filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "compression/compressor.h"
#include "mem/far_tier.h"
#include "mem/kreclaimd.h"
#include "mem/kstaled.h"
#include "mem/memcg.h"
#include "mem/page_table.h"
#include "mem/tier_stack.h"
#include "mem/zswap.h"
#include "util/digest.h"
#include "util/rng.h"

namespace sdfm {
namespace {

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

/**
 * The per-page specification the table must behave like: one record
 * per page, with the digest fold and wire format spelled out page by
 * page.
 */
struct PageModel
{
    struct Page
    {
        std::uint8_t age = 0;
        std::uint8_t flags = 0;
        ContentClass content = ContentClass::kStructured;
        std::uint16_t version = 0;
    };

    explicit PageModel(std::uint32_t n) : pages(n) {}

    std::uint64_t
    digest() const
    {
        StateDigest d;
        for (const Page &pg : pages) {
            d.mix(static_cast<std::uint64_t>(pg.age) << 32 |
                  static_cast<std::uint64_t>(pg.flags) << 24 |
                  static_cast<std::uint64_t>(pg.version) << 8 |
                  static_cast<std::uint64_t>(pg.content));
        }
        return d.value();
    }

    ByteBuffer
    wire_bytes() const
    {
        Serializer s;
        s.put_u64(pages.size());
        for (const Page &pg : pages) {
            s.put_u8(pg.age);
            s.put_u8(pg.flags);
            s.put_u8(static_cast<std::uint8_t>(pg.content));
            s.put_u16(pg.version);
        }
        return s.take();
    }

    std::vector<Page> pages;
};

/** Apply one random point op to both @p pt and @p model. */
void
random_op(Rng &rng, PageTable &pt, PageModel &model)
{
    PageId p = static_cast<PageId>(rng.next_below(pt.size()));
    PageFlag f = kAllFlags[rng.next_below(6)];
    PageModel::Page &m = model.pages[p];
    switch (rng.next_below(5)) {
      case 0:
        pt.set(p, f);
        m.flags = static_cast<std::uint8_t>(m.flags | f);
        break;
      case 1:
        pt.clear(p, f);
        m.flags = static_cast<std::uint8_t>(m.flags & ~f);
        break;
      case 2: {
        auto a = static_cast<std::uint8_t>(rng.next_below(256));
        pt.set_age(p, a);
        m.age = a;
        break;
      }
      case 3:
        pt.bump_version(p);
        ++m.version;
        break;
      default: {
        auto c = static_cast<ContentClass>(rng.next_below(
            static_cast<std::uint32_t>(ContentClass::kNumClasses)));
        pt.set_content(p, c);
        m.content = c;
        break;
      }
    }
}

/** Every field of every page of @p pt equals the model's. */
void
expect_matches_model(const PageTable &pt, const PageModel &model)
{
    ASSERT_EQ(pt.size(), model.pages.size());
    for (PageId p = 0; p < pt.size(); ++p) {
        const PageModel::Page &m = model.pages[p];
        ASSERT_EQ(pt.age(p), m.age) << "page " << p;
        ASSERT_EQ(pt.flags(p), m.flags) << "page " << p;
        ASSERT_EQ(pt.content(p), m.content) << "page " << p;
        ASSERT_EQ(pt.version(p), m.version) << "page " << p;
        for (PageFlag f : kAllFlags)
            ASSERT_EQ(pt.test(p, f), (m.flags & f) != 0) << "page " << p;
        ASSERT_EQ(pt.in_far_memory(p),
                  (m.flags & (kPageInZswap | kPageInFarTier)) != 0)
            << "page " << p;
    }
}

// ---------------------------------------------------------------------
// The table against the per-page model
// ---------------------------------------------------------------------

TEST(PageTable, RandomOpSequenceMatchesPerPageModel)
{
    constexpr std::uint32_t kPages = 700;  // spans a partial region
    PageTable pt(kPages);
    PageModel model(kPages);
    expect_matches_model(pt, model);
    EXPECT_EQ(table_digest(pt), model.digest());

    Rng rng(7);
    for (int step = 0; step < 20000; ++step)
        random_op(rng, pt, model);
    expect_matches_model(pt, model);
    EXPECT_EQ(table_digest(pt), model.digest());

    // And the wire bytes are the model's per-page records.
    Serializer s;
    pt.ckpt_save(s);
    EXPECT_EQ(s.bytes(), model.wire_bytes());
    pt.check_invariants();
}

// ---------------------------------------------------------------------
// Word-level edge cases
// ---------------------------------------------------------------------

TEST(PageTable, LiveMaskCoversPartialTailWord)
{
    for (std::uint32_t n : {63u, 64u, 65u, 128u, 700u}) {
        PageTable pt(n);
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
    PageTable pt(65);  // one full word + one bit
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
    PageTable pt(kPages);
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
    PageTable pt(2 * kPageRegionPages);
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
    PageTable pt(2 * kPageRegionPages);
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
    constexpr std::uint32_t kPages = 1100;  // partial region and word
    PageTable pt(kPages);
    PageModel model(kPages);
    Rng rng(19);
    for (int step = 0; step < 6000; ++step)
        random_op(rng, pt, model);
    // Pin the summary edge cases: an old page in region 0, region 1
    // all old, and the tail page at the age ceiling.
    for (PageId p = kPageRegionPages; p < 2 * kPageRegionPages; ++p) {
        pt.set_age(p, 200);
        model.pages[p].age = 200;
    }
    pt.set_age(kPages - 1, 255);
    model.pages[kPages - 1].age = 255;
    std::uint64_t want_zswap = 0;
    std::uint64_t want_tier = 0;
    for (const PageModel::Page &m : model.pages) {
        want_zswap += (m.flags & kPageInZswap) != 0;
        want_tier += (m.flags & kPageInFarTier) != 0;
    }
    ASSERT_GT(want_zswap, 0u);
    ASSERT_GT(want_tier, 0u);

    Serializer s;
    pt.ckpt_save(s);
    EXPECT_EQ(s.bytes(), model.wire_bytes());

    PageTable back;
    std::uint64_t flagged_zswap = 0;
    std::uint64_t flagged_tier = 0;
    Deserializer d(s.bytes());
    ASSERT_TRUE(back.ckpt_load(d, flagged_zswap, flagged_tier));
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(flagged_zswap, want_zswap);
    EXPECT_EQ(flagged_tier, want_tier);
    expect_matches_model(back, model);
    EXPECT_EQ(table_digest(back), model.digest());
    back.check_invariants();

    // Summaries are rebuilt exactly on restore.
    for (std::uint32_t r = 0; r < back.num_summary_regions(); ++r) {
        std::uint8_t mn = 255;
        std::uint8_t mx = 0;
        PageId end = std::min<PageId>((r + 1) * kPageRegionPages, kPages);
        for (PageId p = r * kPageRegionPages; p < end; ++p) {
            mn = std::min(mn, model.pages[p].age);
            mx = std::max(mx, model.pages[p].age);
        }
        EXPECT_EQ(back.region_min_age(r), mn) << "region " << r;
        EXPECT_EQ(back.region_max_age(r), mx) << "region " << r;
    }
    EXPECT_EQ(back.region_min_age(1), 200);
    EXPECT_EQ(back.region_max_age(back.num_summary_regions() - 1), 255);

    // Saving the restored table reproduces the bytes.
    Serializer again;
    back.ckpt_save(again);
    EXPECT_EQ(again.bytes(), s.bytes());
}

TEST(PageTable, CkptLoadRejectsUnknownFlagBitsAndBadContent)
{
    PageTable pt(4);
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
// Daemon fast paths against their per-page references
// ---------------------------------------------------------------------

/** Content never matters to the walks; keep it uniform. */
ContentMix
flat_mix()
{
    return ContentMix(0.0, 0.0, 1.0, 0.0, 0.0);
}

/** Pages in a memcg spanning 11 full regions plus a 200-page tail
 *  (itself three full words and a partial one). */
constexpr std::uint32_t kDaemonPages = 11 * kPageRegionPages + 200;

/** The region shapes the fast paths treat differently. */
enum class Shape : std::uint32_t
{
    kSaturated,  ///< idle, every age 255 (the scan skips it)
    kYoung,      ///< every age below kThreshold (reclaim skips it)
    kMixed,      ///< random ages and flags, word by word
    kHuge,       ///< one PTE over the whole region
};

constexpr AgeBucket kThreshold = 40;

/**
 * Fill @p cg region by region with every shape in turn (rotated by
 * @p seed) and randomized ages and flags, deterministic in @p seed:
 * two memcgs filled with one seed are twins. Returns the shapes.
 */
std::vector<Shape>
randomize_memcg(Memcg &cg, std::uint64_t seed)
{
    Rng rng(seed);
    PageTable &pt = cg.pages();
    const std::uint32_t n = pt.size();
    std::vector<Shape> shapes;
    for (std::uint32_t r = 0; r < pt.num_summary_regions(); ++r) {
        const PageId first = r * kPageRegionPages;
        const PageId end = std::min<PageId>(first + kPageRegionPages, n);
        auto shape = static_cast<Shape>((r + seed) % 4);
        if (shape == Shape::kHuge && end - first < kPageRegionPages)
            shape = Shape::kMixed;  // a partial region cannot be huge
        shapes.push_back(shape);
        if (shape == Shape::kHuge)
            cg.map_huge_region(first);
        const double accessed = shape == Shape::kMixed ? 0.2
                                : shape == Shape::kHuge ? 0.002
                                                        : 0.0;
        for (PageId p = first; p < end; ++p) {
            switch (shape) {
              case Shape::kSaturated:
                pt.set_age(p, 255);
                break;
              case Shape::kYoung:
                pt.set_age(p, static_cast<std::uint8_t>(
                                  rng.next_below(kThreshold)));
                break;
              default:
                pt.set_age(p, static_cast<std::uint8_t>(
                                  rng.next_below(256)));
                break;
            }
            if (rng.next_bool(accessed))
                pt.set(p, kPageAccessed);
            if (rng.next_bool(shape == Shape::kSaturated ? 0.0 : 0.1))
                pt.set(p, kPageDirty);
            if (rng.next_bool(0.1))
                pt.set(p, kPageIncompressible);
            if (shape != Shape::kHuge) {
                if (rng.next_bool(0.05))
                    pt.set(p, kPageUnevictable);
                double far = rng.next_double();
                if (far < 0.3)
                    pt.set(p, kPageInZswap);
                else if (far < 0.4)
                    pt.set(p, kPageInFarTier);
            }
        }
    }
    return shapes;
}

/** Two memcgs agree on every page, both histograms and every region
 *  summary. */
void
expect_twins(const Memcg &a, const Memcg &b)
{
    const PageTable &pa = a.pages();
    const PageTable &pb = b.pages();
    ASSERT_EQ(pa.size(), pb.size());
    for (PageId p = 0; p < pa.size(); ++p) {
        ASSERT_EQ(pa.age(p), pb.age(p)) << "page " << p;
        ASSERT_EQ(pa.flags(p), pb.flags(p)) << "page " << p;
    }
    EXPECT_EQ(a.cold_hist(), b.cold_hist());
    EXPECT_EQ(a.promo_hist(), b.promo_hist());
    for (std::uint32_t r = 0; r < pa.num_summary_regions(); ++r) {
        EXPECT_EQ(pa.region_min_age(r), pb.region_min_age(r)) << r;
        EXPECT_EQ(pa.region_max_age(r), pb.region_max_age(r)) << r;
    }
}

TEST(KstaledFastPath, ScanMatchesReferenceWalkOnTwinMemcgs)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        Memcg fast_cg(1, kDaemonPages, 42, flat_mix(), 0);
        Memcg ref_cg(1, kDaemonPages, 42, flat_mix(), 0);
        std::vector<Shape> shapes = randomize_memcg(fast_cg, seed);
        randomize_memcg(ref_cg, seed);
        // Exact summaries to start from, as after a restore: the first
        // scan can already skip the saturated regions.
        fast_cg.pages().rebuild_region_summaries();
        ref_cg.pages().rebuild_region_summaries();

        Kstaled kstaled;
        Rng touches(seed + 100);
        for (int round = 0; round < 4; ++round) {
            SCOPED_TRACE(round);
            ScanResult fast = kstaled.scan(fast_cg);
            ScanResult ref = kstaled.scan_reference(ref_cg, 1, 0);
            expect_twins(fast_cg, ref_cg);
            EXPECT_EQ(fast.pages_scanned, ref.pages_scanned);
            EXPECT_EQ(fast.accessed_pages, ref.accessed_pages);
            EXPECT_EQ(fast.cpu_cycles, ref.cpu_cycles);
            // Host work: the reference visits everything, the region
            // walk skips the saturated idle regions.
            const PageTable &pt = ref_cg.pages();
            EXPECT_EQ(ref.regions_visited, pt.num_summary_regions());
            EXPECT_EQ(ref.words_visited, pt.num_words());
            EXPECT_LT(fast.regions_visited, ref.regions_visited);
            EXPECT_LT(fast.words_visited, ref.words_visited);

            // Between scans: the same accesses, and point age writes
            // that leave the summaries conservative, on both twins.
            // Accesses land outside the saturated regions, so some of
            // those stay skippable in every round.
            for (int i = 0; i < 400; ++i) {
                auto p = static_cast<PageId>(
                    touches.next_below(kDaemonPages));
                if (shapes[p / kPageRegionPages] == Shape::kSaturated &&
                    !(round == 1 && i < 4)) {
                    continue;
                }
                bool write = touches.next_bool(0.3);
                auto age = static_cast<std::uint8_t>(
                    touches.next_below(256));
                bool set_age = touches.next_bool(0.1);
                for (Memcg *cg : {&fast_cg, &ref_cg}) {
                    if (set_age) {
                        cg->set_page_age(p, age);
                        continue;
                    }
                    cg->page_set(p, kPageAccessed);
                    if (write)
                        cg->page_set(p, kPageDirty);
                }
            }
        }
    }
}

/** A deep tier that takes every page offered and records the order. */
class RecordingTier : public FarTier
{
  public:
    explicit RecordingTier(bool rejects_incompressible)
        : rejects_incompressible_(rejects_incompressible)
    {
    }

    TierKind kind() const override { return TierKind::kNvm; }
    bool
    rejects_incompressible() const override
    {
        return rejects_incompressible_;
    }
    bool has_space() const override { return true; }
    bool
    store(Memcg &cg, PageId p) override
    {
        offered.push_back(p);
        cg.note_stored_in_tier(p, stack_index());
        return true;
    }
    void
    load(Memcg &cg, PageId p) override
    {
        static_cast<void>(cg);
        ADD_FAILURE() << "unexpected load of page " << p;
    }
    void drop(Memcg &, PageId) override {}
    void drop_all(Memcg &) override {}
    std::uint64_t used_pages() const override { return offered.size(); }
    std::uint64_t capacity_pages() const override { return 0; }
    void ckpt_save(Serializer &) const override {}
    bool ckpt_load(Deserializer &) override { return true; }

    std::vector<PageId> offered;

  private:
    bool rejects_incompressible_;
};

/**
 * The per-page reclaim specification: pages of regions that stay huge
 * (too young, or accessed) are out; a page is a candidate when it is
 * resident, evictable, untouched since the last scan, at or past the
 * threshold, and -- when every route's tier would reject it --
 * not marked incompressible.
 */
std::vector<PageId>
per_page_candidates(const Memcg &cg, bool skip_incompressible)
{
    std::vector<PageId> out;
    const AgeBucket t = cg.reclaim_threshold();
    std::uint8_t skip = kPageInZswap | kPageInFarTier | kPageUnevictable |
                        kPageAccessed;
    if (skip_incompressible)
        skip |= kPageIncompressible;
    for (PageId p = 0; p < cg.num_pages(); ++p) {
        std::uint32_t r = Memcg::region_of(p);
        if (cg.region_is_huge(r)) {
            PageId first = r * kHugeRegionPages;
            bool splits = cg.page_age(first) >= t &&
                          !cg.page_test(first, kPageAccessed);
            if (!splits)
                continue;
        }
        if ((cg.page_flags(p) & skip) == 0 && cg.page_age(p) >= t)
            out.push_back(p);
    }
    return out;
}

TEST(KreclaimdFastPath, WordWalkOffersExactlyThePerPageSelection)
{
    auto compressor = make_compressor(CompressionMode::kModeled);
    for (bool rejects : {true, false}) {
        for (std::uint64_t seed : {4u, 5u, 6u}) {
            SCOPED_TRACE(::testing::Message() << "rejects_incompressible="
                                              << rejects << " seed="
                                              << seed);
            Memcg cg(1, kDaemonPages, 42, flat_mix(), 0);
            randomize_memcg(cg, seed);
            cg.set_zswap_enabled(true);
            cg.set_reclaim_threshold(kThreshold);

            // zswap is the catch-all base; the recording tier's band
            // covers every age at or past the threshold, so it takes
            // every page the walk offers and zswap sees none.
            Zswap zswap(compressor.get(), 1);
            RecordingTier tier(rejects);
            TierStack stack;
            TierSpec base;
            base.label = "zswap";
            stack.set_base(base, &zswap);
            TierSpec deep;
            deep.label = "recording";
            stack.add_tier(deep, &tier);
            DemotionPlan plan;
            BandRoutingPolicy().plan(stack, plan);

            // zswap rejects incompressible pages, so the walk masks
            // them up front only when the recording tier does too.
            std::vector<PageId> want = per_page_candidates(cg, rejects);
            ASSERT_FALSE(want.empty());
            ReclaimResult result = Kreclaimd().reclaim_cold(cg, plan);
            EXPECT_EQ(tier.offered, want);  // same pages, ascending
            EXPECT_EQ(result.pages_stored, want.size());
            EXPECT_EQ(zswap.stored_pages(), 0u);
            // The young regions were skipped without reading a word.
            std::uint64_t live_regions = 0;
            for (std::uint32_t r = 0; r < cg.num_regions(); ++r)
                live_regions += !cg.region_is_huge(r);
            EXPECT_LT(result.regions_visited, live_regions);
        }
    }
}

}  // namespace
}  // namespace sdfm
