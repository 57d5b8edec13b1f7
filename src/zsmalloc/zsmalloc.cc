#include "zsmalloc/zsmalloc.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "util/invariant.h"
#include "util/units.h"
#include "util/logging.h"

namespace sdfm {

namespace {

/** Size-class granularity, matching the spirit of the kernel's. */
constexpr std::uint32_t kClassDelta = 32;
constexpr std::uint32_t kMinAlloc = kClassDelta;
constexpr std::uint32_t kMaxAlloc = kPageSize;
constexpr std::uint32_t kNumClasses = kMaxAlloc / kClassDelta;
constexpr std::uint32_t kMaxPagesPerZspage = 4;

/** Pick pages-per-zspage minimizing tail waste (like the kernel). */
std::uint32_t
best_pages_per_zspage(std::uint32_t object_size)
{
    std::uint32_t best = 1;
    std::uint32_t best_waste = kPageSize % object_size;
    for (std::uint32_t p = 2; p <= kMaxPagesPerZspage; ++p) {
        std::uint32_t waste = (p * kPageSize) % object_size;
        // Prefer fewer pages on ties; compare waste per page.
        if (waste * best < best_waste * p) {
            best = p;
            best_waste = waste;
        }
    }
    return best;
}

}  // namespace

ZsmallocArena::ZsmallocArena(bool keep_payload_bytes)
    : keep_payload_bytes_(keep_payload_bytes)
{
    classes_.resize(kNumClasses);
    for (std::uint32_t i = 0; i < kNumClasses; ++i) {
        SizeClass &cls = classes_[i];
        cls.object_size = (i + 1) * kClassDelta;
        cls.pages_per_zspage = best_pages_per_zspage(cls.object_size);
        cls.objects_per_zspage =
            cls.pages_per_zspage * kPageSize / cls.object_size;
    }
    entries_.emplace_back();  // slot 0 reserved: handle 0 is invalid
}

std::uint16_t
ZsmallocArena::class_for_size(std::uint32_t size)
{
    SDFM_ASSERT(size >= 1 && size <= kMaxAlloc);
    std::uint32_t rounded = std::max(size, kMinAlloc);
    std::uint32_t idx = (rounded + kClassDelta - 1) / kClassDelta - 1;
    return static_cast<std::uint16_t>(idx);
}

std::uint32_t
ZsmallocArena::acquire_zspage_slot(SizeClass &cls)
{
    if (!cls.free_zspage_slots.empty()) {
        std::uint32_t id = cls.free_zspage_slots.back();
        cls.free_zspage_slots.pop_back();
        return id;
    }
    cls.zspage_occupancy.push_back(0);
    return static_cast<std::uint32_t>(cls.zspage_occupancy.size() - 1);
}

ZsHandle
ZsmallocArena::store(std::uint32_t size, const std::uint8_t *data)
{
    std::uint16_t class_idx = class_for_size(size);
    SizeClass &cls = classes_[class_idx];

    // Find a zspage with a free slot (first-fit over the candidate
    // list, dropping stale entries as we go). A candidate with zero
    // occupancy has been fully released -- its backing pages are gone
    // and its slot sits in free_zspage_slots -- so it is stale too.
    std::uint32_t target = UINT32_MAX;
    while (!cls.candidates.empty()) {
        std::uint32_t id = cls.candidates.back();
        std::uint32_t occ = cls.zspage_occupancy[id];
        if (occ > 0 && occ < cls.objects_per_zspage) {
            target = id;
            break;
        }
        cls.candidates.pop_back();
    }
    if (target == UINT32_MAX) {
        target = acquire_zspage_slot(cls);
        cls.candidates.push_back(target);
        stats_.pool_bytes +=
            static_cast<std::uint64_t>(cls.pages_per_zspage) * kPageSize;
    }
    ++cls.zspage_occupancy[target];
    if (cls.zspage_occupancy[target] == cls.objects_per_zspage &&
        !cls.candidates.empty() && cls.candidates.back() == target) {
        cls.candidates.pop_back();
    }
    ++cls.live;

    std::uint64_t slot;
    if (!free_entries_.empty()) {
        slot = free_entries_.back();
        free_entries_.pop_back();
    } else {
        slot = entries_.size();
        entries_.emplace_back();
    }
    Entry &entry = entries_[slot];
    entry.size = size;
    entry.class_idx = class_idx;
    entry.zspage = target;
    entry.live = true;
    if (keep_payload_bytes_ && data != nullptr)
        entry.bytes.assign(data, data + size);

    ++stats_.total_allocs;
    ++stats_.live_objects;
    stats_.stored_bytes += size;
    return slot;
}

void
ZsmallocArena::release(ZsHandle handle)
{
    SDFM_ASSERT(handle > 0 && handle < entries_.size());
    Entry &entry = entries_[handle];
    SDFM_ASSERT(entry.live);
    SizeClass &cls = classes_[entry.class_idx];
    SDFM_ASSERT(cls.zspage_occupancy[entry.zspage] > 0);
    std::uint32_t occ = --cls.zspage_occupancy[entry.zspage];
    --cls.live;
    if (occ == 0) {
        cls.free_zspage_slots.push_back(entry.zspage);
        stats_.pool_bytes -=
            static_cast<std::uint64_t>(cls.pages_per_zspage) * kPageSize;
    } else if (occ == cls.objects_per_zspage - 1) {
        // Transitioned from full to having space: allocatable again.
        cls.candidates.push_back(entry.zspage);
    }

    stats_.stored_bytes -= entry.size;
    --stats_.live_objects;
    ++stats_.total_frees;
    entry.live = false;
    entry.bytes.clear();
    entry.bytes.shrink_to_fit();
    free_entries_.push_back(handle);
}

std::uint32_t
ZsmallocArena::payload_size(ZsHandle handle) const
{
    SDFM_ASSERT(handle > 0 && handle < entries_.size());
    const Entry &entry = entries_[handle];
    SDFM_ASSERT(entry.live);
    return entry.size;
}

const std::uint8_t *
ZsmallocArena::payload(ZsHandle handle) const
{
    SDFM_ASSERT(handle > 0 && handle < entries_.size());
    const Entry &entry = entries_[handle];
    SDFM_ASSERT(entry.live);
    return entry.bytes.empty() ? nullptr : entry.bytes.data();
}

std::uint64_t
ZsmallocArena::compact()
{
    ++stats_.compactions;
    std::uint64_t released = 0;

    // Per class: the minimum number of zspages that can hold the live
    // objects. Migrate objects out of the sparsest zspages until that
    // bound is met. We model migration by rewriting entry zspage ids.
    for (std::uint16_t class_idx = 0; class_idx < classes_.size();
         ++class_idx) {
        SizeClass &cls = classes_[class_idx];
        if (cls.live == 0)
            continue;
        std::uint64_t needed = (cls.live + cls.objects_per_zspage - 1) /
                               cls.objects_per_zspage;
        // Count currently backed zspages.
        std::vector<std::uint32_t> live_zspages;
        for (std::uint32_t id = 0; id < cls.zspage_occupancy.size(); ++id) {
            if (cls.zspage_occupancy[id] > 0)
                live_zspages.push_back(id);
        }
        if (live_zspages.size() <= needed)
            continue;
        // Sort by occupancy: evacuate the sparsest.
        std::sort(live_zspages.begin(), live_zspages.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return cls.zspage_occupancy[a] <
                             cls.zspage_occupancy[b];
                  });
        std::size_t evacuate_count = live_zspages.size() - needed;
        std::vector<bool> evacuate(cls.zspage_occupancy.size(), false);
        for (std::size_t i = 0; i < evacuate_count; ++i)
            evacuate[live_zspages[i]] = true;

        // Receivers: the remaining (densest) zspages, filled in order.
        std::vector<std::uint32_t> receivers(
            live_zspages.begin() +
                static_cast<std::ptrdiff_t>(evacuate_count),
            live_zspages.end());
        std::size_t recv_pos = 0;

        for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
            Entry &entry = entries_[slot];
            if (!entry.live || entry.class_idx != class_idx ||
                !evacuate[entry.zspage]) {
                continue;
            }
            while (recv_pos < receivers.size() &&
                   cls.zspage_occupancy[receivers[recv_pos]] >=
                       cls.objects_per_zspage) {
                ++recv_pos;
            }
            SDFM_ASSERT(recv_pos < receivers.size());
            std::uint32_t dst = receivers[recv_pos];
            --cls.zspage_occupancy[entry.zspage];
            ++cls.zspage_occupancy[dst];
            entry.zspage = dst;
            stats_.compaction_moved_bytes += entry.size;
        }

        // Release evacuated zspages.
        for (std::size_t i = 0; i < evacuate_count; ++i) {
            std::uint32_t id = live_zspages[i];
            SDFM_ASSERT(cls.zspage_occupancy[id] == 0);
            cls.free_zspage_slots.push_back(id);
            std::uint64_t bytes =
                static_cast<std::uint64_t>(cls.pages_per_zspage) * kPageSize;
            stats_.pool_bytes -= bytes;
            released += bytes;
        }
        // Candidate list may hold stale ids; rebuild it.
        cls.candidates.clear();
        for (std::uint32_t id = 0; id < cls.zspage_occupancy.size(); ++id) {
            if (cls.zspage_occupancy[id] > 0 &&
                cls.zspage_occupancy[id] < cls.objects_per_zspage) {
                cls.candidates.push_back(id);
            }
        }
    }
    return released;
}

void
ZsmallocArena::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;

    // Recompute the aggregate stats from the entry table.
    std::uint64_t live = 0;
    std::uint64_t stored = 0;
    std::vector<std::uint64_t> class_live(classes_.size(), 0);
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        const Entry &entry = entries_[slot];
        if (!entry.live)
            continue;
        ++live;
        stored += entry.size;
        SDFM_INVARIANT(entry.class_idx < classes_.size(),
                       "live entry references a valid size class");
        ++class_live[entry.class_idx];
        const SizeClass &cls = classes_[entry.class_idx];
        SDFM_INVARIANT(entry.size <= cls.object_size,
                       "payload fits its size class");
        SDFM_INVARIANT(entry.zspage < cls.zspage_occupancy.size(),
                       "live entry references a valid zspage");
        SDFM_INVARIANT(cls.zspage_occupancy[entry.zspage] > 0,
                       "live entry sits in a backed zspage");
    }
    SDFM_INVARIANT(live == stats_.live_objects,
                   "live-object count matches the entry table");
    SDFM_INVARIANT(stored == stats_.stored_bytes,
                   "stored-byte accounting matches summed entry sizes");
    SDFM_INVARIANT(stats_.total_allocs - stats_.total_frees == live,
                   "alloc/free counters reconcile with live objects");

    // Per-class occupancy vs live objects, and pool-byte accounting:
    // a zspage is backed by physical pages iff it holds objects.
    std::uint64_t pool = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const SizeClass &cls = classes_[c];
        std::uint64_t occupied = 0;
        for (std::uint32_t occ : cls.zspage_occupancy) {
            SDFM_INVARIANT(occ <= cls.objects_per_zspage,
                           "zspage occupancy within capacity");
            occupied += occ;
            if (occ > 0) {
                pool += static_cast<std::uint64_t>(cls.pages_per_zspage) *
                        kPageSize;
            }
        }
        SDFM_INVARIANT(occupied == cls.live,
                       "class live count matches summed occupancy");
        SDFM_INVARIANT(cls.live == class_live[c],
                       "class live count matches the entry table");
        for (std::uint32_t id : cls.free_zspage_slots) {
            SDFM_INVARIANT(id < cls.zspage_occupancy.size(),
                           "free zspage slot id in range");
            SDFM_INVARIANT(cls.zspage_occupancy[id] == 0,
                           "free zspage slots are empty");
        }
    }
    SDFM_INVARIANT(pool == stats_.pool_bytes,
                   "pool-byte accounting matches backed zspages");

    // The free list holds exactly the dead entry slots.
    for (std::uint64_t slot : free_entries_) {
        SDFM_INVARIANT(slot > 0 && slot < entries_.size(),
                       "free-list slot in range");
        SDFM_INVARIANT(!entries_[slot].live,
                       "free-list slots are dead");
    }
    SDFM_INVARIANT(free_entries_.size() + live == entries_.size() - 1,
                   "every non-reserved slot is either live or free");
}

void
ZsmallocArena::ckpt_save(Serializer &s) const
{
    s.put_bool(keep_payload_bytes_);
    s.put_u64(entries_.size());
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        const Entry &entry = entries_[slot];
        s.put_u32(entry.size);
        s.put_u16(entry.class_idx);
        s.put_u32(entry.zspage);
        s.put_bool(entry.live);
        s.put_u64(entry.bytes.size());
        s.put_bytes(entry.bytes.data(), entry.bytes.size());
    }
    s.put_u64_vec(free_entries_);
    s.put_u64(classes_.size());
    for (const SizeClass &cls : classes_) {
        // Static geometry (object_size, pages/objects per zspage) is
        // rebuilt by the constructor; only dynamic state is written.
        s.put_u64(cls.zspage_occupancy.size());
        for (std::uint32_t occ : cls.zspage_occupancy)
            s.put_u32(occ);
        s.put_u64(cls.candidates.size());
        for (std::uint32_t id : cls.candidates)
            s.put_u32(id);
        s.put_u64(cls.free_zspage_slots.size());
        for (std::uint32_t id : cls.free_zspage_slots)
            s.put_u32(id);
        s.put_u64(cls.live);
    }
    s.put_u64(stats_.live_objects);
    s.put_u64(stats_.stored_bytes);
    s.put_u64(stats_.pool_bytes);
    s.put_u64(stats_.total_allocs);
    s.put_u64(stats_.total_frees);
    s.put_u64(stats_.compactions);
    s.put_u64(stats_.compaction_moved_bytes);
}

bool
ZsmallocArena::ckpt_load(Deserializer &d)
{
    bool keep_bytes = d.get_bool();
    if (!d.ok() || keep_bytes != keep_payload_bytes_)
        return false;
    std::size_t num_entries = d.get_size(SIZE_MAX / sizeof(Entry), 12);
    if (!d.ok() || num_entries == 0)
        return false;
    entries_.assign(num_entries, Entry{});
    std::uint64_t live_count = 0;
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        Entry &entry = entries_[slot];
        entry.size = d.get_u32();
        entry.class_idx = d.get_u16();
        entry.zspage = d.get_u32();
        entry.live = d.get_bool();
        std::size_t num_bytes = d.get_size(kMaxAlloc);
        std::span<const std::uint8_t> bytes = d.get_bytes(num_bytes);
        if (!d.ok())
            return false;
        entry.bytes.assign(bytes.begin(), bytes.end());
        if (entry.live) {
            ++live_count;
            if (entry.class_idx >= kNumClasses ||
                entry.size == 0 || entry.size > kMaxAlloc) {
                return false;
            }
        }
    }
    free_entries_ = d.get_u64_vec();
    std::size_t num_classes = d.get_size(kNumClasses);
    if (!d.ok() || num_classes != classes_.size())
        return false;
    for (SizeClass &cls : classes_) {
        std::size_t num_zspages = d.get_size(d.remaining() / 4, 4);
        if (!d.ok())
            return false;
        cls.zspage_occupancy.assign(num_zspages, 0);
        for (std::uint32_t &occ : cls.zspage_occupancy)
            occ = d.get_u32();
        std::size_t num_candidates = d.get_size(d.remaining() / 4, 4);
        if (!d.ok())
            return false;
        cls.candidates.assign(num_candidates, 0);
        for (std::uint32_t &id : cls.candidates) {
            id = d.get_u32();
            if (id >= num_zspages)
                return false;
        }
        std::size_t num_free = d.get_size(num_zspages, 4);
        if (!d.ok())
            return false;
        cls.free_zspage_slots.assign(num_free, 0);
        for (std::uint32_t &id : cls.free_zspage_slots) {
            id = d.get_u32();
            if (id >= num_zspages)
                return false;
        }
        cls.live = d.get_u64();
    }
    stats_.live_objects = d.get_u64();
    stats_.stored_bytes = d.get_u64();
    stats_.pool_bytes = d.get_u64();
    stats_.total_allocs = d.get_u64();
    stats_.total_frees = d.get_u64();
    stats_.compactions = d.get_u64();
    stats_.compaction_moved_bytes = d.get_u64();
    if (!d.ok())
        return false;

    // The free list and the live entries must partition the slots,
    // and every live entry must sit in a backed zspage.
    if (stats_.live_objects != live_count ||
        free_entries_.size() + live_count != entries_.size() - 1) {
        return false;
    }
    for (std::uint64_t slot : free_entries_) {
        if (slot == 0 || slot >= entries_.size() || entries_[slot].live)
            return false;
    }
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        const Entry &entry = entries_[slot];
        if (entry.live &&
            (entry.zspage >=
                 classes_[entry.class_idx].zspage_occupancy.size() ||
             classes_[entry.class_idx].zspage_occupancy[entry.zspage] ==
                 0)) {
            return false;
        }
    }
    return true;
}

double
ZsmallocArena::fragmentation() const
{
    if (stats_.pool_bytes == 0)
        return 0.0;
    return 1.0 - static_cast<double>(stats_.stored_bytes) /
                     static_cast<double>(stats_.pool_bytes);
}

}  // namespace sdfm
