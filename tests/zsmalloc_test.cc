/**
 * @file
 * Tests for the zsmalloc arena: accounting invariants, payload
 * round-trips, fragmentation behaviour, compaction, checkpoint round
 * trips and the restore-time rejections, and the global-vs-per-memcg
 * arena comparison the paper describes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "arena_record.h"
#include "util/rng.h"
#include "util/units.h"
#include "zsmalloc/zsmalloc.h"

namespace sdfm {
namespace {

TEST(Zsmalloc, StoreReleaseAccounting)
{
    ZsmallocArena arena;
    ZsHandle h = arena.store(1000);
    EXPECT_NE(h, 0u);
    EXPECT_EQ(arena.live_objects(), 1u);
    EXPECT_EQ(arena.stored_bytes(), 1000u);
    EXPECT_GT(arena.pool_bytes(), 0u);
    arena.release(h);
    EXPECT_EQ(arena.live_objects(), 0u);
    EXPECT_EQ(arena.stored_bytes(), 0u);
    EXPECT_EQ(arena.pool_bytes(), 0u);
}

TEST(Zsmalloc, PayloadSizeQuery)
{
    ZsmallocArena arena;
    ZsHandle h = arena.store(777);
    EXPECT_EQ(arena.payload_size(h), 777u);
}

TEST(Zsmalloc, PayloadBytesRoundTrip)
{
    ZsmallocArena arena(/*keep_payload_bytes=*/true);
    std::vector<std::uint8_t> data(513);
    Rng rng(1);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    ZsHandle h = arena.store(static_cast<std::uint32_t>(data.size()),
                             data.data());
    const std::uint8_t *stored = arena.payload(h);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(std::vector<std::uint8_t>(stored, stored + data.size()), data);
}

TEST(Zsmalloc, NoPayloadBytesByDefault)
{
    ZsmallocArena arena;
    ZsHandle h = arena.store(100);
    EXPECT_EQ(arena.payload(h), nullptr);
}

TEST(Zsmalloc, PoolSharedWithinSizeClass)
{
    ZsmallocArena arena;
    // Objects of ~128 B share zspages: pool grows sublinearly.
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 32; ++i)
        handles.push_back(arena.store(128));
    // 32 * 128 B = 4 KiB of payload; the pool should be a few pages,
    // not 32.
    EXPECT_LE(arena.pool_bytes(), 4u * kPageSize);
    for (ZsHandle h : handles)
        arena.release(h);
    EXPECT_EQ(arena.pool_bytes(), 0u);
}

TEST(Zsmalloc, DistinctSizeClassesDistinctPools)
{
    ZsmallocArena arena;
    arena.store(100);
    std::uint64_t after_first = arena.pool_bytes();
    arena.store(3000);
    EXPECT_GT(arena.pool_bytes(), after_first);
}

TEST(Zsmalloc, FragmentationAfterSparseFrees)
{
    ZsmallocArena arena;
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 1024; ++i)
        handles.push_back(arena.store(512));
    double before = arena.fragmentation();
    // Free every other object: holes appear, pool stays.
    for (std::size_t i = 0; i < handles.size(); i += 2)
        arena.release(handles[i]);
    double after = arena.fragmentation();
    EXPECT_GT(after, before);
    EXPECT_GT(after, 0.3);
}

TEST(Zsmalloc, CompactReclaimsSparseZspages)
{
    ZsmallocArena arena;
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 1024; ++i)
        handles.push_back(arena.store(512));
    for (std::size_t i = 0; i < handles.size(); i += 2)
        arena.release(handles[i]);
    std::uint64_t pool_before = arena.pool_bytes();
    std::uint64_t released = arena.compact();
    EXPECT_GT(released, 0u);
    EXPECT_EQ(arena.pool_bytes(), pool_before - released);
    // After compaction the pool is near-minimal for the live bytes.
    EXPECT_LT(arena.fragmentation(), 0.15);
    // All live handles still resolve.
    for (std::size_t i = 1; i < handles.size(); i += 2)
        EXPECT_EQ(arena.payload_size(handles[i]), 512u);
}

TEST(Zsmalloc, CompactPreservesPayloadBytes)
{
    ZsmallocArena arena(/*keep_payload_bytes=*/true);
    Rng rng(7);
    std::vector<ZsHandle> handles;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int i = 0; i < 300; ++i) {
        std::vector<std::uint8_t> data(256);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next_u64());
        handles.push_back(arena.store(256, data.data()));
        payloads.push_back(std::move(data));
    }
    for (std::size_t i = 0; i < handles.size(); i += 3)
        arena.release(handles[i]);
    arena.compact();
    for (std::size_t i = 0; i < handles.size(); ++i) {
        if (i % 3 == 0)
            continue;
        const std::uint8_t *stored = arena.payload(handles[i]);
        ASSERT_NE(stored, nullptr);
        EXPECT_EQ(std::vector<std::uint8_t>(stored, stored + 256),
                  payloads[i]);
    }
}

TEST(Zsmalloc, CompactOnEmptyArena)
{
    ZsmallocArena arena;
    EXPECT_EQ(arena.compact(), 0u);
}

TEST(Zsmalloc, ReleasedZspageSlotReused)
{
    ZsmallocArena arena;
    ZsHandle a = arena.store(4000);
    std::uint64_t pool = arena.pool_bytes();
    arena.release(a);
    ZsHandle b = arena.store(4000);
    EXPECT_EQ(arena.pool_bytes(), pool);  // same backing re-acquired
    arena.release(b);
}

TEST(Zsmalloc, StatsCounters)
{
    ZsmallocArena arena;
    ZsHandle h1 = arena.store(64);
    ZsHandle h2 = arena.store(64);
    arena.release(h1);
    arena.compact();
    const ZsmallocStats &stats = arena.stats();
    EXPECT_EQ(stats.total_allocs, 2u);
    EXPECT_EQ(stats.total_frees, 1u);
    EXPECT_EQ(stats.compactions, 1u);
    arena.release(h2);
}

TEST(ZsmallocDeath, DoubleFreeCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ZsmallocArena arena;
    ZsHandle h = arena.store(100);
    arena.release(h);
    EXPECT_DEATH(arena.release(h), "assertion failed");
}

TEST(ZsmallocDeath, InvalidHandleCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ZsmallocArena arena;
    EXPECT_DEATH(arena.payload_size(0), "assertion failed");
    EXPECT_DEATH(arena.payload_size(12345), "assertion failed");
}

/**
 * Property: over random alloc/free/compact interleavings, accounting
 * stays exact and fragmentation is bounded after compaction.
 */
class ZsmallocChurn : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ZsmallocChurn, AccountingInvariants)
{
    Rng rng(GetParam());
    ZsmallocArena arena;
    std::vector<std::pair<ZsHandle, std::uint32_t>> live;
    std::uint64_t expected_bytes = 0;
    for (int op = 0; op < 4000; ++op) {
        double u = rng.next_double();
        if (u < 0.55 || live.empty()) {
            auto size =
                static_cast<std::uint32_t>(24 + rng.next_below(4072));
            live.emplace_back(arena.store(size), size);
            expected_bytes += size;
        } else if (u < 0.97) {
            std::size_t pick = rng.next_below(live.size());
            arena.release(live[pick].first);
            expected_bytes -= live[pick].second;
            live[pick] = live.back();
            live.pop_back();
        } else {
            arena.compact();
        }
        ASSERT_EQ(arena.stored_bytes(), expected_bytes);
        ASSERT_EQ(arena.live_objects(), live.size());
        ASSERT_GE(arena.pool_bytes(), arena.stored_bytes());
    }
    arena.compact();
    std::uint64_t pool_after_compact = arena.pool_bytes();
    // Compaction is idempotent: a second pass frees nothing.
    EXPECT_EQ(arena.compact(), 0u);
    EXPECT_EQ(arena.pool_bytes(), pool_after_compact);
    if (expected_bytes > 256 * kPageSize) {
        // Residual overhead after compaction is internal (size-class
        // rounding and zspage tail waste), bounded well below the
        // sparse-zspage fragmentation compaction removes.
        EXPECT_LT(arena.fragmentation(), 0.5);
    }
    for (auto &[h, size] : live)
        arena.release(h);
    EXPECT_EQ(arena.pool_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZsmallocChurn,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------

/**
 * An arena after stores of mixed sizes, releases that leave holes and
 * empty zspages, a compaction, and more releases after it. In a
 * keep_payload_bytes arena every third payload is stored without
 * bytes.
 */
struct ChurnedArena
{
    explicit ChurnedArena(bool keep) : arena(keep)
    {
        Rng rng(keep ? 11 : 12);
        std::vector<ZsHandle> live;
        for (int i = 0; i < 1500; ++i) {
            auto size = static_cast<std::uint32_t>(
                1 + rng.next_below(i % 2 == 0 ? 600 : 2990));
            std::vector<std::uint8_t> data(size);
            for (std::uint8_t &b : data)
                b = static_cast<std::uint8_t>(rng.next_u64());
            bool with_bytes = keep && i % 3 != 0;
            ZsHandle h = arena.store(size, with_bytes ? data.data()
                                                      : nullptr);
            live.push_back(h);
            if (with_bytes)
                payloads[h] = std::move(data);
        }
        auto release_some = [&](std::uint64_t one_in) {
            for (std::size_t i = 0; i < live.size();) {
                if (rng.next_below(one_in) == 0) {
                    arena.release(live[i]);
                    payloads.erase(live[i]);
                    live[i] = live.back();
                    live.pop_back();
                } else {
                    ++i;
                }
            }
        };
        release_some(2);
        EXPECT_GT(arena.compact(), 0u);
        release_some(3);
        arena.check_invariants();
    }

    ZsmallocArena arena;
    std::map<ZsHandle, std::vector<std::uint8_t>> payloads;
};

ByteBuffer
save(const ZsmallocArena &arena)
{
    Serializer s;
    arena.ckpt_save(s);
    return s.take();
}

/** Load @p bytes into a fresh arena; true iff accepted whole. */
bool
load(ZsmallocArena &arena, const ByteBuffer &bytes)
{
    Deserializer d(bytes);
    return arena.ckpt_load(d) && d.ok() && d.at_end();
}

void
expect_same_arena(const ZsmallocArena &a, const ZsmallocArena &b)
{
    EXPECT_EQ(a.handle_limit(), b.handle_limit());
    EXPECT_EQ(a.live_objects(), b.live_objects());
    EXPECT_EQ(a.stored_bytes(), b.stored_bytes());
    EXPECT_EQ(a.pool_bytes(), b.pool_bytes());
    EXPECT_EQ(a.stats().total_allocs, b.stats().total_allocs);
    EXPECT_EQ(a.stats().total_frees, b.stats().total_frees);
    EXPECT_EQ(a.stats().compactions, b.stats().compactions);
    EXPECT_EQ(a.stats().compaction_moved_bytes,
              b.stats().compaction_moved_bytes);
    for (ZsHandle h = 1; h < a.handle_limit(); ++h) {
        ASSERT_EQ(a.is_live(h), b.is_live(h)) << "handle " << h;
        if (a.is_live(h)) {
            EXPECT_EQ(a.payload_size(h), b.payload_size(h));
        }
    }
}

/** The restored arena keeps issuing the original's handles. */
void
expect_same_future(ZsmallocArena &a, ZsmallocArena &b)
{
    Rng rng(5);
    for (int i = 0; i < 800; ++i) {
        auto size = static_cast<std::uint32_t>(1 + rng.next_below(2990));
        ASSERT_EQ(a.store(size), b.store(size)) << "store " << i;
        ASSERT_EQ(a.pool_bytes(), b.pool_bytes());
    }
    EXPECT_EQ(a.compact(), b.compact());
    EXPECT_EQ(save(a), save(b));
}

TEST(ZsmallocCkpt, ModelledArenaRoundTrips)
{
    ChurnedArena src(/*keep=*/false);
    ByteBuffer bytes = save(src.arena);
    ZsmallocArena back;
    ASSERT_TRUE(load(back, bytes));
    back.check_invariants();
    expect_same_arena(src.arena, back);
    EXPECT_EQ(save(back), bytes);
    expect_same_future(src.arena, back);
}

TEST(ZsmallocCkpt, KeptPayloadsRoundTripByteEqual)
{
    ChurnedArena src(/*keep=*/true);
    ByteBuffer bytes = save(src.arena);
    ZsmallocArena back(/*keep_payload_bytes=*/true);
    ASSERT_TRUE(load(back, bytes));
    back.check_invariants();
    expect_same_arena(src.arena, back);
    ASSERT_FALSE(src.payloads.empty());
    for (ZsHandle h = 1; h < back.handle_limit(); ++h) {
        if (!back.is_live(h))
            continue;
        auto it = src.payloads.find(h);
        if (it == src.payloads.end()) {
            EXPECT_EQ(back.payload(h), nullptr) << "handle " << h;
            continue;
        }
        const std::uint8_t *stored = back.payload(h);
        ASSERT_NE(stored, nullptr) << "handle " << h;
        EXPECT_EQ(std::vector<std::uint8_t>(stored,
                                            stored + it->second.size()),
                  it->second);
    }
    EXPECT_EQ(save(back), bytes);
    expect_same_future(src.arena, back);
}

TEST(ZsmallocCkpt, RejectsTheOtherPayloadMode)
{
    ChurnedArena src(/*keep=*/false);
    ZsmallocArena keep(/*keep_payload_bytes=*/true);
    EXPECT_FALSE(load(keep, save(src.arena)));
}

/** A class with at least two occupied and two free zspages. */
std::size_t
class_with_holes(const ArenaRecord &r)
{
    for (std::size_t c = 0; c < kArenaRecordClasses; ++c) {
        std::size_t occupied = 0;
        for (const ArenaRecord::Live &slot : r.live)
            occupied += ArenaRecord::class_of(slot.size) == c;
        if (occupied >= 2 && r.free_zspages[c].size() >= 2)
            return c;
    }
    ADD_FAILURE() << "no class with occupied and free zspages";
    return 0;
}

TEST(ZsmallocCkpt, RejectsAFreeZspageThatHoldsObjects)
{
    ChurnedArena src(/*keep=*/false);
    ArenaRecord r = ArenaRecord::decode(save(src.arena));
    std::size_t c = class_with_holes(r);
    auto slot = std::find_if(r.live.begin(), r.live.end(), [&](auto &s) {
        return ArenaRecord::class_of(s.size) == c;
    });
    ASSERT_NE(slot, r.live.end());
    r.free_zspages[c][0] = slot->zspage;
    ZsmallocArena back;
    EXPECT_FALSE(load(back, r.encode()));
}

TEST(ZsmallocCkpt, RejectsAZspageListedFreeTwice)
{
    ChurnedArena src(/*keep=*/false);
    ArenaRecord r = ArenaRecord::decode(save(src.arena));
    std::size_t c = class_with_holes(r);
    r.free_zspages[c][1] = r.free_zspages[c][0];
    ZsmallocArena back;
    EXPECT_FALSE(load(back, r.encode()));
}

TEST(ZsmallocCkpt, RejectsAnEmptyZspageMissingFromTheFreeList)
{
    ChurnedArena src(/*keep=*/false);
    ArenaRecord r = ArenaRecord::decode(save(src.arena));
    std::size_t c = class_with_holes(r);
    r.free_zspages[c].pop_back();
    ZsmallocArena back;
    EXPECT_FALSE(load(back, r.encode()));
}

TEST(ZsmallocCkpt, RejectsOccupancyAboveCapacity)
{
    // One 4000 B object per zspage: moving the second object onto the
    // first one's zspage leaves every zspage occupied, so only the
    // capacity check can refuse it.
    ZsmallocArena arena;
    arena.store(4000);
    arena.store(4000);
    arena.store(4000);
    ArenaRecord r = ArenaRecord::decode(save(arena));
    ASSERT_EQ(r.live.size(), 3u);
    ASSERT_NE(r.live[0].zspage, r.live[1].zspage);
    {
        ZsmallocArena back;
        ASSERT_TRUE(load(back, r.encode()));
    }
    r.live[1].zspage = r.live[0].zspage;
    r.live[2].zspage = 1;  // keep zspage 1 (or 2) occupied
    ZsmallocArena back;
    EXPECT_FALSE(load(back, r.encode()));
}

TEST(ZsmallocCkpt, RejectsASlotListedFreeTwice)
{
    ChurnedArena src(/*keep=*/false);
    ArenaRecord r = ArenaRecord::decode(save(src.arena));
    ASSERT_GE(r.free_slots.size(), 2u);
    // Keep the count of listed slots: the second entry now repeats the
    // first, so the slot it named turns live without a record.
    r.free_slots[1] = r.free_slots[0];
    ZsmallocArena back;
    EXPECT_FALSE(load(back, r.encode()));
}

TEST(ZsmallocCkpt, RejectsZspageIdsPastTheClass)
{
    ChurnedArena src(/*keep=*/false);
    ArenaRecord r = ArenaRecord::decode(save(src.arena));
    r.live[0].zspage = 0xFFFFFFF0u;
    ZsmallocArena back;
    EXPECT_FALSE(load(back, r.encode()));
}

TEST(ZsmallocCkpt, RewrittenSizeCarriesItsOwnAccounting)
{
    // Under format v4 a slot's size, its class and the stored-byte
    // total were separate fields that a file could set to disagree.
    // Now the size is the one copy: rewriting it moves the slot's
    // class and bytes with it, or the file is refused.
    ZsmallocArena arena;
    ZsHandle h = arena.store(400);
    ArenaRecord r = ArenaRecord::decode(save(arena));
    ASSERT_EQ(r.live.size(), 1u);
    {
        r.live[0].size = 401;
        ZsmallocArena back;
        ASSERT_TRUE(load(back, r.encode()));
        back.check_invariants();
        EXPECT_EQ(back.payload_size(h), 401u);
        EXPECT_EQ(back.stored_bytes(), 401u);
    }
    {
        // 400 B lives in the 416 B class (index 12), 100 B in the
        // 128 B class (index 3). The 416 B class's candidate list
        // still names zspage 0, which that class no longer has.
        r.live[0].size = 100;
        ZsmallocArena back;
        EXPECT_FALSE(load(back, r.encode()));
    }
    {
        // Move the candidate too: the slot now occupies zspage 0 of
        // the 128 B class alone, and the accounting follows it.
        r.candidates[3] = r.candidates[12];
        r.candidates[12].clear();
        ZsmallocArena back;
        ASSERT_TRUE(load(back, r.encode()));
        back.check_invariants();
        EXPECT_EQ(back.stored_bytes(), 100u);
        ZsmallocArena fresh;
        fresh.store(100);
        EXPECT_EQ(back.pool_bytes(), fresh.pool_bytes());
        back.release(h);
        EXPECT_EQ(back.pool_bytes(), 0u);
    }
}

/**
 * The paper's Section 5.1 finding: one machine-global arena
 * fragments far less than per-memcg arenas under many small jobs.
 */
TEST(ZsmallocArenaGranularity, GlobalBeatsPerMemcg)
{
    Rng rng(99);
    constexpr std::size_t kJobs = 40;
    constexpr std::size_t kObjsPerJob = 60;

    // Per-memcg: each job its own arena.
    std::vector<std::unique_ptr<ZsmallocArena>> per_job;
    std::vector<std::vector<ZsHandle>> per_job_handles(kJobs);
    for (std::size_t j = 0; j < kJobs; ++j)
        per_job.push_back(std::make_unique<ZsmallocArena>());
    // Global: one arena for everyone.
    ZsmallocArena global;
    std::vector<ZsHandle> global_handles;

    Rng sizes_rng(17);
    for (std::size_t j = 0; j < kJobs; ++j) {
        for (std::size_t i = 0; i < kObjsPerJob; ++i) {
            auto size =
                static_cast<std::uint32_t>(64 + sizes_rng.next_below(2000));
            per_job_handles[j].push_back(per_job[j]->store(size));
            global_handles.push_back(global.store(size));
        }
    }
    // Random frees (same pattern for both).
    Rng free_rng(23);
    for (std::size_t j = 0; j < kJobs; ++j) {
        for (std::size_t i = 0; i < kObjsPerJob; ++i) {
            if (free_rng.next_bool(0.5)) {
                per_job[j]->release(per_job_handles[j][i]);
                global.release(global_handles[j * kObjsPerJob + i]);
            }
        }
    }

    std::uint64_t per_job_pool = 0;
    for (auto &arena : per_job)
        per_job_pool += arena->pool_bytes();
    // Identical live bytes, so pool size differences are pure
    // fragmentation: global must hold them in no more memory.
    EXPECT_LE(global.pool_bytes(), per_job_pool);
    EXPECT_LE(global.fragmentation() + 0.02,
              1.0 - static_cast<double>(global.stored_bytes()) /
                        static_cast<double>(per_job_pool));
}

}  // namespace
}  // namespace sdfm
