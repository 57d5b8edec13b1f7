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
    slots_.emplace_back();  // slot 0 reserved: handle 0 is invalid
    if (keep_payload_bytes_)
        payloads_.emplace_back();
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

    ZsHandle handle;
    if (!free_slots_.empty()) {
        handle = free_slots_.back();
        free_slots_.pop_back();
    } else {
        SDFM_ASSERT(slots_.size() < UINT32_MAX);
        handle = static_cast<ZsHandle>(slots_.size());
        slots_.emplace_back();
        if (keep_payload_bytes_)
            payloads_.emplace_back();
    }
    Slot &slot = slots_[handle];
    slot.size = static_cast<std::uint16_t>(size);
    slot.zspage = target;
    if (keep_payload_bytes_ && data != nullptr)
        payloads_[handle].assign(data, data + size);

    ++stats_.total_allocs;
    ++stats_.live_objects;
    stats_.stored_bytes += size;
    return handle;
}

void
ZsmallocArena::release(ZsHandle handle)
{
    SDFM_ASSERT(is_live(handle));
    Slot &slot = slots_[handle];
    SizeClass &cls = classes_[class_for_size(slot.size)];
    SDFM_ASSERT(cls.zspage_occupancy[slot.zspage] > 0);
    std::uint32_t occ = --cls.zspage_occupancy[slot.zspage];
    --cls.live;
    if (occ == 0) {
        cls.free_zspage_slots.push_back(slot.zspage);
        stats_.pool_bytes -=
            static_cast<std::uint64_t>(cls.pages_per_zspage) * kPageSize;
    } else if (occ == cls.objects_per_zspage - 1) {
        // Transitioned from full to having space: allocatable again.
        cls.candidates.push_back(slot.zspage);
    }

    stats_.stored_bytes -= slot.size;
    --stats_.live_objects;
    ++stats_.total_frees;
    slot = Slot{};
    if (keep_payload_bytes_) {
        payloads_[handle].clear();
        payloads_[handle].shrink_to_fit();
    }
    free_slots_.push_back(handle);
}

std::uint32_t
ZsmallocArena::payload_size(ZsHandle handle) const
{
    SDFM_ASSERT(is_live(handle));
    return slots_[handle].size;
}

const std::uint8_t *
ZsmallocArena::payload(ZsHandle handle) const
{
    SDFM_ASSERT(is_live(handle));
    if (!keep_payload_bytes_ || payloads_[handle].empty())
        return nullptr;
    return payloads_[handle].data();
}

std::uint64_t
ZsmallocArena::compact()
{
    ++stats_.compactions;

    // Per class: the minimum number of zspages that can hold the live
    // objects. Migrate objects out of the sparsest zspages until that
    // bound is met. We model migration by rewriting slot zspage ids.
    struct Plan
    {
        /** Occupied zspages, sparsest first; the first
         *  evacuate_count are emptied, the rest receive in order. */
        std::vector<std::uint32_t> by_occupancy;
        std::size_t evacuate_count = 0;
        std::size_t recv_pos = 0;
        std::vector<bool> evacuate;  ///< by zspage id
    };
    std::vector<Plan> plans(classes_.size());
    bool any = false;
    for (std::size_t class_idx = 0; class_idx < classes_.size();
         ++class_idx) {
        const SizeClass &cls = classes_[class_idx];
        if (cls.live == 0)
            continue;
        std::uint64_t needed = (cls.live + cls.objects_per_zspage - 1) /
                               cls.objects_per_zspage;
        Plan &plan = plans[class_idx];
        for (std::uint32_t id = 0; id < cls.zspage_occupancy.size(); ++id) {
            if (cls.zspage_occupancy[id] > 0)
                plan.by_occupancy.push_back(id);
        }
        if (plan.by_occupancy.size() <= needed)
            continue;
        std::sort(plan.by_occupancy.begin(), plan.by_occupancy.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return cls.zspage_occupancy[a] <
                             cls.zspage_occupancy[b];
                  });
        plan.evacuate_count = plan.by_occupancy.size() - needed;
        plan.recv_pos = plan.evacuate_count;
        plan.evacuate.assign(cls.zspage_occupancy.size(), false);
        for (std::size_t i = 0; i < plan.evacuate_count; ++i)
            plan.evacuate[plan.by_occupancy[i]] = true;
        any = true;
    }
    if (!any)
        return 0;

    // One walk over the slots moves every class's evacuees: within a
    // class, in ascending slot order, onto the kept zspages sparsest
    // first -- the order a walk per class would give.
    for (Slot &slot : slots_) {
        if (slot.size == 0)
            continue;
        const std::uint16_t class_idx = class_for_size(slot.size);
        Plan &plan = plans[class_idx];
        if (plan.evacuate_count == 0 || !plan.evacuate[slot.zspage])
            continue;
        SizeClass &cls = classes_[class_idx];
        while (plan.recv_pos < plan.by_occupancy.size() &&
               cls.zspage_occupancy[plan.by_occupancy[plan.recv_pos]] >=
                   cls.objects_per_zspage) {
            ++plan.recv_pos;
        }
        SDFM_ASSERT(plan.recv_pos < plan.by_occupancy.size());
        std::uint32_t dst = plan.by_occupancy[plan.recv_pos];
        --cls.zspage_occupancy[slot.zspage];
        ++cls.zspage_occupancy[dst];
        slot.zspage = dst;
        stats_.compaction_moved_bytes += slot.size;
    }

    std::uint64_t released = 0;
    for (std::size_t class_idx = 0; class_idx < classes_.size();
         ++class_idx) {
        const Plan &plan = plans[class_idx];
        if (plan.evacuate_count == 0)
            continue;
        SizeClass &cls = classes_[class_idx];
        // Release evacuated zspages.
        for (std::size_t i = 0; i < plan.evacuate_count; ++i) {
            std::uint32_t id = plan.by_occupancy[i];
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

ZsmallocArena::Recount
ZsmallocArena::recount() const
{
    Recount r;
    r.occupancy.resize(classes_.size());
    r.class_live.assign(classes_.size(), 0);
    for (const Slot &slot : slots_) {
        if (slot.size == 0)
            continue;
        const std::uint16_t c = class_for_size(slot.size);
        std::vector<std::uint32_t> &occupancy = r.occupancy[c];
        if (slot.zspage >= occupancy.size())
            occupancy.resize(std::size_t{slot.zspage} + 1, 0);
        ++occupancy[slot.zspage];
        ++r.class_live[c];
        ++r.live_objects;
        r.stored_bytes += slot.size;
    }
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const std::uint64_t zspage_bytes =
            static_cast<std::uint64_t>(classes_[c].pages_per_zspage) *
            kPageSize;
        for (std::uint32_t occ : r.occupancy[c])
            r.pool_bytes += occ > 0 ? zspage_bytes : 0;
    }
    return r;
}

bool
ZsmallocArena::consistent() const
{
    const Recount r = recount();
    if (r.live_objects != stats_.live_objects ||
        r.stored_bytes != stats_.stored_bytes ||
        r.pool_bytes != stats_.pool_bytes ||
        stats_.total_allocs - stats_.total_frees != r.live_objects) {
        return false;
    }

    // Per class: occupancy matches the slots and stays within
    // capacity, every zspage is either occupied or on the free list,
    // once, and candidates name real zspages.
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const SizeClass &cls = classes_[c];
        const std::vector<std::uint32_t> &want = r.occupancy[c];
        const std::size_t num_zspages = cls.zspage_occupancy.size();
        if (cls.live != r.class_live[c] || want.size() > num_zspages)
            return false;
        std::vector<bool> listed(num_zspages, false);
        for (std::uint32_t id : cls.free_zspage_slots) {
            if (id >= num_zspages || listed[id] ||
                cls.zspage_occupancy[id] != 0) {
                return false;
            }
            listed[id] = true;
        }
        for (std::size_t id = 0; id < num_zspages; ++id) {
            const std::uint32_t occ = cls.zspage_occupancy[id];
            if (occ != (id < want.size() ? want[id] : 0) ||
                occ > cls.objects_per_zspage || (occ == 0 && !listed[id])) {
                return false;
            }
        }
        for (std::uint32_t id : cls.candidates) {
            if (id >= num_zspages)
                return false;
        }
    }

    // The free list holds exactly the dead slots, each once.
    std::vector<bool> listed(slots_.size(), false);
    for (ZsHandle handle : free_slots_) {
        if (handle == 0 || handle >= slots_.size() ||
            slots_[handle].size != 0 || listed[handle]) {
            return false;
        }
        listed[handle] = true;
    }
    if (free_slots_.size() + r.live_objects != slots_.size() - 1)
        return false;

    // Kept bytes only in a keep_payload_bytes arena, and only for live
    // slots of their size.
    if (payloads_.size() != (keep_payload_bytes_ ? slots_.size() : 0))
        return false;
    for (std::size_t h = 0; h < payloads_.size(); ++h) {
        if (!payloads_[h].empty() && payloads_[h].size() != slots_[h].size)
            return false;
    }
    return true;
}

void
ZsmallocArena::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;
    SDFM_INVARIANT(consistent(),
                   "arena accounting and free lists match the slot table");
}

void
ZsmallocArena::ckpt_save(Serializer &s) const
{
    s.put_bool(keep_payload_bytes_);
    s.put_u64(slots_.size());
    s.put_u32_vec(free_slots_);
    for (const SizeClass &cls : classes_) {
        // Static geometry (object_size, pages/objects per zspage) is
        // rebuilt by the constructor; occupancy is recounted on load.
        s.put_u32_vec(cls.candidates);
        s.put_u32_vec(cls.free_zspage_slots);
    }
    for (std::size_t h = 1; h < slots_.size(); ++h) {
        const Slot &slot = slots_[h];
        if (slot.size == 0)
            continue;
        s.put_u16(slot.size);
        s.put_u32(slot.zspage);
        if (keep_payload_bytes_) {
            const std::vector<std::uint8_t> &bytes = payloads_[h];
            s.put_bool(!bytes.empty());
            s.put_bytes(bytes.data(), bytes.size());
        }
    }
    s.put_u64(stats_.total_allocs);
    s.put_u64(stats_.compactions);
    s.put_u64(stats_.compaction_moved_bytes);
}

bool
ZsmallocArena::ckpt_load(Deserializer &d)
{
    bool keep_bytes = d.get_bool();
    if (!d.ok() || keep_bytes != keep_payload_bytes_)
        return false;
    // Every slot but the reserved one costs at least 4 bytes: a free
    // list entry or a live record.
    std::size_t num_slots = d.get_size(UINT32_MAX, 4);
    free_slots_ = d.get_u32_vec();
    if (!d.ok() || num_slots == 0 || free_slots_.size() >= num_slots)
        return false;
    for (SizeClass &cls : classes_) {
        cls.candidates = d.get_u32_vec();
        cls.free_zspage_slots = d.get_u32_vec();
    }
    if (!d.ok())
        return false;

    // A slot is live iff the free list does not name it.
    slots_.assign(num_slots, Slot{});
    std::vector<bool> dead(num_slots, false);
    dead[0] = true;
    for (ZsHandle handle : free_slots_) {
        if (handle >= num_slots)
            return false;
        dead[handle] = true;
    }
    payloads_.assign(keep_payload_bytes_ ? num_slots : 0, {});
    std::vector<std::uint64_t> class_live(classes_.size(), 0);
    for (std::size_t h = 1; h < num_slots; ++h) {
        if (dead[h])
            continue;
        Slot &slot = slots_[h];
        slot.size = d.get_u16();
        slot.zspage = d.get_u32();
        if (!d.ok() || slot.size == 0 || slot.size > kMaxAlloc)
            return false;
        ++class_live[class_for_size(slot.size)];
        if (!keep_payload_bytes_)
            continue;
        const std::uint8_t has_bytes = d.get_u8();
        if (has_bytes > 1)
            return false;
        if (has_bytes == 1) {
            std::span<const std::uint8_t> bytes = d.get_bytes(slot.size);
            payloads_[h].assign(bytes.begin(), bytes.end());
        }
    }
    stats_.total_allocs = d.get_u64();
    stats_.compactions = d.get_u64();
    stats_.compaction_moved_bytes = d.get_u64();
    if (!d.ok())
        return false;

    // A class has as many zspages as it has occupied ones plus free
    // ones. Bound each slot's zspage by that before the recount sizes
    // its tables from them.
    for (const Slot &slot : slots_) {
        if (slot.size == 0)
            continue;
        const std::uint16_t c = class_for_size(slot.size);
        if (slot.zspage >=
            class_live[c] + classes_[c].free_zspage_slots.size()) {
            return false;
        }
    }

    // Derive every count from the slots, then check the whole.
    Recount r = recount();
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        SizeClass &cls = classes_[c];
        std::vector<std::uint32_t> &occupancy = r.occupancy[c];
        const std::size_t num_zspages =
            cls.free_zspage_slots.size() +
            static_cast<std::size_t>(std::ranges::count_if(
                occupancy, [](std::uint32_t occ) { return occ > 0; }));
        if (occupancy.size() > num_zspages)
            return false;
        occupancy.resize(num_zspages, 0);
        cls.zspage_occupancy = std::move(occupancy);
        cls.live = r.class_live[c];
    }
    stats_.live_objects = r.live_objects;
    stats_.stored_bytes = r.stored_bytes;
    stats_.pool_bytes = r.pool_bytes;
    if (stats_.total_allocs < r.live_objects)
        return false;
    stats_.total_frees = stats_.total_allocs - r.live_objects;
    return consistent();
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
