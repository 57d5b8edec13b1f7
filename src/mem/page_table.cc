#include "mem/page_table.h"

#include <algorithm>
#include <span>

#include "util/digest.h"
#include "util/invariant.h"

namespace sdfm {

namespace {

/** All flag bits a page may legally carry on the checkpoint wire. */
constexpr std::uint8_t kKnownFlags =
    kPageAccessed | kPageDirty | kPageUnevictable | kPageIncompressible |
    kPageInZswap | kPageInFarTier;

// The checkpoint paths stack bitset bits straight into the flag
// byte, so each flag must sit at its bitset's fixed position.
static_assert(kPageAccessed == 1 << 0 && kPageDirty == 1 << 1 &&
              kPageUnevictable == 1 << 2 && kPageIncompressible == 1 << 3 &&
              kPageInZswap == 1 << 4 && kPageInFarTier == 1 << 5);

/** Wire bytes per page: age u8, flags u8, content u8, version u16. */
constexpr std::size_t kPageRecordBytes = 5;

}  // namespace

void
PageTable::resize(std::uint32_t num_pages)
{
    SDFM_ASSERT(num_pages > 0);
    num_pages_ = num_pages;
    std::size_t words = (static_cast<std::size_t>(num_pages) + 63) / 64;
    age_.assign(num_pages, 0);
    version_.assign(num_pages, 0);
    content_.assign(num_pages,
                    static_cast<std::uint8_t>(ContentClass::kStructured));
    accessed_.assign(words, 0);
    dirty_.assign(words, 0);
    unevictable_.assign(words, 0);
    incompressible_.assign(words, 0);
    in_zswap_.assign(words, 0);
    in_far_.assign(words, 0);
    region_min_age_.assign(num_summary_regions(), 0);
    region_max_age_.assign(num_summary_regions(), 0);
}

void
PageTable::rebuild_region_summaries()
{
    std::uint32_t regions = num_summary_regions();
    for (std::uint32_t r = 0; r < regions; ++r) {
        PageId first = r * kPageRegionPages;
        PageId end = first + kPageRegionPages < num_pages_
                         ? first + kPageRegionPages
                         : num_pages_;
        std::uint8_t mn = 255;
        std::uint8_t mx = 0;
        for (PageId p = first; p < end; ++p) {
            if (age_[p] < mn)
                mn = age_[p];
            if (age_[p] > mx)
                mx = age_[p];
        }
        region_min_age_[r] = mn;
        region_max_age_[r] = mx;
    }
}

void
PageTable::state_digest(StateDigest &d) const
{
    for (PageId p = 0; p < num_pages_; ++p) {
        std::size_t w = word_of(p);
        std::uint64_t m = bit_of(p);
        std::uint64_t f = 0;
        if (accessed_[w] & m)
            f |= kPageAccessed;
        if (dirty_[w] & m)
            f |= kPageDirty;
        if (unevictable_[w] & m)
            f |= kPageUnevictable;
        if (incompressible_[w] & m)
            f |= kPageIncompressible;
        if (in_zswap_[w] & m)
            f |= kPageInZswap;
        if (in_far_[w] & m)
            f |= kPageInFarTier;
        d.mix(static_cast<std::uint64_t>(age_[p]) << 32 | f << 24 |
              static_cast<std::uint64_t>(version_[p]) << 8 |
              static_cast<std::uint64_t>(content_[p]));
    }
}

void
PageTable::ckpt_save(Serializer &s) const
{
    s.put_u64(num_pages_);
    std::uint8_t *out =
        s.extend(static_cast<std::size_t>(num_pages_) * kPageRecordBytes);
    auto put_record = [&out](std::uint8_t age, std::uint8_t f,
                             std::uint8_t content, std::uint16_t version) {
        out[0] = age;
        out[1] = f;
        out[2] = content;
        out[3] = static_cast<std::uint8_t>(version & 0xff);
        out[4] = static_cast<std::uint8_t>(version >> 8);
        out += kPageRecordBytes;
    };
    // One pass per bitset word: the flag byte is the six bitset bits
    // of the page stacked at their PageFlag positions.
    for (std::size_t w = 0; w < accessed_.size(); ++w) {
        const std::uint64_t acc = accessed_[w];
        const std::uint64_t dirty = dirty_[w];
        const std::uint64_t unevictable = unevictable_[w];
        const std::uint64_t incompressible = incompressible_[w];
        const std::uint64_t zswap = in_zswap_[w];
        const std::uint64_t far = in_far_[w];
        PageId first = static_cast<PageId>(w * 64);
        PageId end = std::min<PageId>(first + 64, num_pages_);
        for (PageId p = first; p < end; ++p) {
            unsigned b = p & 63;
            auto f = static_cast<std::uint8_t>(
                ((acc >> b) & 1) | ((dirty >> b) & 1) << 1 |
                ((unevictable >> b) & 1) << 2 |
                ((incompressible >> b) & 1) << 3 | ((zswap >> b) & 1) << 4 |
                ((far >> b) & 1) << 5);
            put_record(age_[p], f, content_[p], version_[p]);
        }
    }
}

bool
PageTable::ckpt_load(Deserializer &d, std::uint64_t &flagged_zswap,
                     std::uint64_t &flagged_tier)
{
    std::size_t num = d.get_size(0xffffffffu, kPageRecordBytes);
    if (!d.ok() || num == 0)
        return false;
    std::span<const std::uint8_t> records =
        d.get_bytes(num * kPageRecordBytes);
    if (!d.ok())
        return false;
    resize(static_cast<std::uint32_t>(num));
    flagged_zswap = 0;
    flagged_tier = 0;
    const std::uint8_t *in = records.data();
    for (std::size_t w = 0; w * 64 < num_pages_; ++w) {
        std::uint64_t bits[6] = {};
        PageId first = static_cast<PageId>(w * 64);
        PageId end = std::min<PageId>(first + 64, num_pages_);
        for (PageId p = first; p < end; ++p, in += kPageRecordBytes) {
            std::uint8_t age = in[0];
            std::uint8_t f = in[1];
            std::uint8_t content = in[2];
            auto version = static_cast<std::uint16_t>(in[3] | in[4] << 8);
            if ((f & ~kKnownFlags) != 0)
                return false;
            if (content >=
                static_cast<std::uint8_t>(ContentClass::kNumClasses)) {
                return false;
            }
            flagged_zswap += (f & kPageInZswap) != 0;
            flagged_tier += (f & kPageInFarTier) != 0;
            age_[p] = age;
            version_[p] = version;
            content_[p] = content;
            unsigned b = p & 63;
            for (unsigned k = 0; k < 6; ++k)
                bits[k] |= static_cast<std::uint64_t>((f >> k) & 1) << b;
        }
        accessed_[w] = bits[0];
        dirty_[w] = bits[1];
        unevictable_[w] = bits[2];
        incompressible_[w] = bits[3];
        in_zswap_[w] = bits[4];
        in_far_[w] = bits[5];
    }
    rebuild_region_summaries();
    return true;
}

void
PageTable::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;

    SDFM_INVARIANT(age_.size() == num_pages_ &&
                       version_.size() == num_pages_ &&
                       content_.size() == num_pages_,
                   "every per-page array covers the address space");
    std::size_t words = (static_cast<std::size_t>(num_pages_) + 63) / 64;
    SDFM_INVARIANT(accessed_.size() == words && dirty_.size() == words &&
                       unevictable_.size() == words &&
                       incompressible_.size() == words &&
                       in_zswap_.size() == words &&
                       in_far_.size() == words,
                   "every flag bitset covers the address space");
    // Bits past the last page must stay zero: the word-at-a-time scan
    // and reclaim paths treat them as real pages otherwise.
    std::uint64_t tail = ~live_mask(words - 1);
    SDFM_INVARIANT((accessed_.back() & tail) == 0 &&
                       (dirty_.back() & tail) == 0 &&
                       (unevictable_.back() & tail) == 0 &&
                       (incompressible_.back() & tail) == 0 &&
                       (in_zswap_.back() & tail) == 0 &&
                       (in_far_.back() & tail) == 0,
                   "bitset tail bits beyond the last page are zero");
    SDFM_INVARIANT(region_min_age_.size() == num_summary_regions() &&
                       region_max_age_.size() == num_summary_regions(),
                   "region summaries cover the address space");
    for (PageId p = 0; p < num_pages_; ++p) {
        std::uint32_t r = p / kPageRegionPages;
        SDFM_INVARIANT(region_min_age_[r] <= age_[p] &&
                           age_[p] <= region_max_age_[r],
                       "every page age lies inside its region summary");
    }
}

}  // namespace sdfm
