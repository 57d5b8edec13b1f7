/**
 * @file
 * Model of the Linux zsmalloc arena that zswap stores compressed
 * payloads in (Section 5.1 of the paper).
 *
 * Like the kernel allocator, payloads are binned into size classes;
 * each class allocates "zspages" (groups of 1-4 physical pages) that
 * hold floor(pages * 4096 / class_size) objects. Freeing leaves holes
 * inside zspages (external fragmentation); an explicit compaction
 * interface -- the one the paper's node agent triggers -- migrates
 * objects out of sparse zspages and releases emptied ones.
 *
 * The paper keeps ONE arena per machine rather than one per memcg:
 * per-memcg arenas fragmented to the point of negative gains when
 * hundreds of jobs share a machine. Tests and a micro-bench reproduce
 * that comparison by instantiating many small arenas vs one global.
 */

#ifndef SDFM_ZSMALLOC_ZSMALLOC_H
#define SDFM_ZSMALLOC_ZSMALLOC_H

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"

namespace sdfm {

/**
 * Opaque handle to a stored payload; 0 is invalid. A handle is a slot
 * index, so it fits the u32 a swapped-out PTE would hold.
 */
using ZsHandle = std::uint32_t;

/** Aggregate arena statistics. */
struct ZsmallocStats
{
    std::uint64_t live_objects = 0;    ///< currently stored payloads
    std::uint64_t stored_bytes = 0;    ///< sum of payload sizes
    std::uint64_t pool_bytes = 0;      ///< physical pages backing the arena
    std::uint64_t total_allocs = 0;
    std::uint64_t total_frees = 0;
    std::uint64_t compactions = 0;
    std::uint64_t compaction_moved_bytes = 0;
};

/** Size-class compressed-payload arena. */
class ZsmallocArena : public Checkpointable
{
  public:
    /**
     * @param keep_payload_bytes When true, store() copies the payload
     *        bytes and payload() returns them (real-compression mode);
     *        when false only sizes are tracked (modeled mode).
     */
    explicit ZsmallocArena(bool keep_payload_bytes = false);

    /**
     * Store a payload of @p size bytes (1..4096).
     *
     * @param data Optional payload bytes (copied). In a
     *        keep_payload_bytes arena, passing null stores the size
     *        only and payload() returns null for that handle.
     * @return A non-zero handle.
     */
    ZsHandle store(std::uint32_t size, const std::uint8_t *data = nullptr);

    /** Release a stored payload. The handle must be live. */
    void release(ZsHandle handle);

    /** Payload size for a live handle. */
    std::uint32_t payload_size(ZsHandle handle) const;

    /**
     * Stored bytes for a live handle; null when the arena does not
     * keep payload bytes or none were provided at store time.
     */
    const std::uint8_t *payload(ZsHandle handle) const;

    /**
     * Compact: migrate objects out of sparse zspages within each size
     * class, releasing emptied zspages.
     *
     * @return Pool bytes released.
     */
    std::uint64_t compact();

    /** Bytes of physical memory backing the arena right now. */
    std::uint64_t pool_bytes() const { return stats_.pool_bytes; }

    /** Sum of live payload sizes. */
    std::uint64_t stored_bytes() const { return stats_.stored_bytes; }

    /**
     * External fragmentation: 1 - stored/pool (0 when empty). This is
     * the quantity that made per-memcg arenas lose money at scale.
     */
    double fragmentation() const;

    const ZsmallocStats &stats() const { return stats_; }

    /** Number of live objects. */
    std::uint64_t live_objects() const { return stats_.live_objects; }

    /** One past the largest handle the arena has issued. */
    ZsHandle
    handle_limit() const
    {
        return static_cast<ZsHandle>(slots_.size());
    }

    /** True iff @p handle currently references a live payload. */
    bool
    is_live(ZsHandle handle) const
    {
        return handle > 0 && handle < slots_.size() &&
               slots_[handle].size != 0;
    }

    /**
     * Whole-arena consistency check (SDFM_INVARIANT tier): consistent()
     * must hold. O(slots); compiled to a no-op unless the build
     * defines SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

    /**
     * Checkpointable: writes the slot count, the free-slot list
     * (verbatim order -- handle reuse order is trajectory state), each
     * size class's candidate and free zspage lists (verbatim), a
     * (u16 size, u32 zspage) record per live slot in ascending handle
     * order (plus a has-bytes flag and the payload bytes in a
     * keep_payload_bytes arena), and the total_allocs, compactions and
     * compaction_moved_bytes counters. A slot is live iff it is not on
     * the free list, and its class is class_for_size(size). Handles
     * stay stable across a round trip because a handle IS the slot
     * index. Everything else is derived on restore, by the recount
     * check_invariants() uses: live_objects, stored_bytes, pool_bytes,
     * total_frees, per-class live counts and zspage occupancy (the
     * zspage count of a class is its occupied zspages plus its free
     * list). ckpt_load() rejects a record that leaves the arena
     * inconsistent (see consistent()): among others a free list that
     * names a slot or a zspage twice, a free zspage that holds
     * objects, and a zspage over its capacity.
     */
    void ckpt_save(Serializer &s) const override;
    bool ckpt_load(Deserializer &d) override;

#ifdef SDFM_CHECK_INVARIANTS
    /** Test-only: damage the byte accounting so the invariant tests
     *  can prove check_invariants() actually trips. */
    void debug_corrupt_stored_bytes(std::uint64_t delta)
    {
        stats_.stored_bytes += delta;
    }
#endif

  private:
    struct SizeClass
    {
        std::uint32_t object_size = 0;
        std::uint32_t pages_per_zspage = 0;
        std::uint32_t objects_per_zspage = 0;
        /** occupancy per zspage; index = zspage id within the class. */
        std::vector<std::uint32_t> zspage_occupancy;
        /** ids of zspages with free slots (may contain stale entries). */
        std::vector<std::uint32_t> candidates;
        /** ids of fully-freed zspage slots available for reuse. */
        std::vector<std::uint32_t> free_zspage_slots;
        std::uint64_t live = 0;
    };

    /**
     * One handle's slot: the payload size (0 = dead) and its zspage
     * within size class class_for_size(size).
     */
    struct Slot
    {
        std::uint32_t zspage = 0;
        std::uint16_t size = 0;
    };
    static_assert(sizeof(Slot) <= 8, "a zsmalloc slot fits in 8 bytes");

    /** Accounting recounted from the slot table. */
    struct Recount
    {
        /** Objects per zspage, per class; each sized to one past the
         *  highest zspage a live slot of the class names. */
        std::vector<std::vector<std::uint32_t>> occupancy;
        std::vector<std::uint64_t> class_live;
        std::uint64_t live_objects = 0;
        std::uint64_t stored_bytes = 0;
        std::uint64_t pool_bytes = 0;
    };

    static std::uint16_t class_for_size(std::uint32_t size);
    std::uint32_t acquire_zspage_slot(SizeClass &cls);
    Recount recount() const;

    /**
     * True iff the running accounting equals recount(); no zspage is
     * over capacity; each class's zspages are either occupied or on
     * its free list, once; candidates name real zspages; the free-slot
     * list names each dead slot once; and kept bytes exist only for
     * live slots, at their size. check_invariants() asserts it;
     * ckpt_load() returns it.
     */
    bool consistent() const;

    bool keep_payload_bytes_;
    std::vector<SizeClass> classes_;
    std::vector<Slot> slots_;
    std::vector<ZsHandle> free_slots_;
    /**
     * Payload bytes per handle, empty for a dead slot or a payload
     * stored without bytes. Sized to slots_ in a keep_payload_bytes
     * arena and empty otherwise.
     */
    std::vector<std::vector<std::uint8_t>> payloads_;
    ZsmallocStats stats_;
};

}  // namespace sdfm

#endif  // SDFM_ZSMALLOC_ZSMALLOC_H
