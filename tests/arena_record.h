/**
 * @file
 * Test-side codec for the ZsmallocArena checkpoint record, so that a
 * test can rewrite one field of a saved arena, re-encode it and feed it
 * back to ZsmallocArena::ckpt_load. The layout is the one documented
 * at ZsmallocArena::ckpt_save.
 */

#ifndef SDFM_TESTS_ARENA_RECORD_H
#define SDFM_TESTS_ARENA_RECORD_H

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "util/units.h"
#include "zsmalloc/zsmalloc.h"

namespace sdfm {

/** One 32-byte size class per 32 bytes of a page. */
inline constexpr std::size_t kArenaRecordClasses = kPageSize / 32;

/** A decoded arena record. */
struct ArenaRecord
{
    struct Live
    {
        ZsHandle handle = 0;  ///< implied by the free list, not written
        std::uint16_t size = 0;
        std::uint32_t zspage = 0;
        bool has_bytes = false;  ///< keep_payload_bytes arenas only
        std::vector<std::uint8_t> bytes;
    };

    bool keep = false;
    std::uint64_t num_slots = 0;
    std::vector<std::uint32_t> free_slots;
    std::vector<std::vector<std::uint32_t>> candidates;    ///< per class
    std::vector<std::vector<std::uint32_t>> free_zspages;  ///< per class
    std::vector<Live> live;  ///< ascending handle order
    std::uint64_t total_allocs = 0;
    std::uint64_t compactions = 0;
    std::uint64_t compaction_moved_bytes = 0;

    /** Size class of a payload size, as the arena bins it. */
    static std::size_t
    class_of(std::uint16_t size)
    {
        return (std::max<std::uint32_t>(size, 32) + 31) / 32 - 1;
    }

    /** Decode a well-formed record (one the arena saved). */
    static ArenaRecord
    decode(Deserializer &d)
    {
        ArenaRecord r;
        r.keep = d.get_bool();
        r.num_slots = d.get_u64();
        r.free_slots = d.get_u32_vec();
        for (std::size_t c = 0; c < kArenaRecordClasses; ++c) {
            r.candidates.push_back(d.get_u32_vec());
            r.free_zspages.push_back(d.get_u32_vec());
        }
        std::vector<bool> dead(r.num_slots, false);
        for (std::uint32_t h : r.free_slots)
            dead[h] = true;
        for (std::uint64_t h = 1; h < r.num_slots; ++h) {
            if (dead[h])
                continue;
            Live slot;
            slot.handle = static_cast<ZsHandle>(h);
            slot.size = d.get_u16();
            slot.zspage = d.get_u32();
            if (r.keep) {
                slot.has_bytes = d.get_bool();
                if (slot.has_bytes) {
                    std::span<const std::uint8_t> bytes =
                        d.get_bytes(slot.size);
                    slot.bytes.assign(bytes.begin(), bytes.end());
                }
            }
            r.live.push_back(std::move(slot));
        }
        r.total_allocs = d.get_u64();
        r.compactions = d.get_u64();
        r.compaction_moved_bytes = d.get_u64();
        return r;
    }

    /** Decode the record at the front of @p bytes. */
    static ArenaRecord
    decode(const ByteBuffer &bytes)
    {
        Deserializer d(bytes);
        return decode(d);
    }

    ByteBuffer
    encode() const
    {
        Serializer s;
        s.put_bool(keep);
        s.put_u64(num_slots);
        s.put_u32_vec(free_slots);
        for (std::size_t c = 0; c < kArenaRecordClasses; ++c) {
            s.put_u32_vec(candidates[c]);
            s.put_u32_vec(free_zspages[c]);
        }
        for (const Live &slot : live) {
            s.put_u16(slot.size);
            s.put_u32(slot.zspage);
            if (keep) {
                s.put_bool(slot.has_bytes);
                s.put_bytes(slot.bytes.data(), slot.bytes.size());
            }
        }
        s.put_u64(total_allocs);
        s.put_u64(compactions);
        s.put_u64(compaction_moved_bytes);
        return s.take();
    }
};

}  // namespace sdfm

#endif  // SDFM_TESTS_ARENA_RECORD_H
