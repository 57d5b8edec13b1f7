#include "mem/zswap.h"

#include <cstring>
#include <vector>

#include "compression/szo.h"
#include "util/invariant.h"
#include "util/logging.h"
#include "util/units.h"

namespace sdfm {

Zswap::Zswap(Compressor *compressor, std::uint64_t rng_seed,
             bool verify_roundtrip)
    : compressor_(compressor),
      arena_(/*keep_payload_bytes=*/verify_roundtrip), rng_(rng_seed),
      verify_roundtrip_(verify_roundtrip),
      checksums_(arena_.handle_limit(), 0)
{
    SDFM_ASSERT(compressor_ != nullptr);
}

void
Zswap::bind_metrics(MetricRegistry *registry)
{
    if (registry == nullptr) {
        m_stores_ = nullptr;
        m_rejects_ = nullptr;
        m_incompressible_marks_ = nullptr;
        m_promotions_ = nullptr;
        m_poisoned_ = nullptr;
        m_arena_bytes_ = nullptr;
        m_stored_pages_ = nullptr;
        m_payload_bytes_ = nullptr;
        return;
    }
    m_stores_ = &registry->counter("zswap.stores");
    m_rejects_ = &registry->counter("zswap.rejects");
    m_incompressible_marks_ =
        &registry->counter("zswap.incompressible_marks");
    m_promotions_ = &registry->counter("zswap.promotions");
    m_poisoned_ = &registry->counter("zswap.poisoned_entries");
    m_arena_bytes_ = &registry->gauge("zswap.arena_bytes");
    m_stored_pages_ = &registry->gauge("zswap.stored_pages");
    // Payload sizes up to the page size; the rejection threshold
    // (kMaxZswapPayload) sits inside the grid so the accept/reject
    // boundary is visible in the distribution.
    m_payload_bytes_ = &registry->histogram(
        "zswap.payload_bytes",
        {256, 512, 1024, 1536, 2048, 2560,
         static_cast<double>(kMaxZswapPayload),
         static_cast<double>(kPageSize)});
}

void
Zswap::update_arena_metrics()
{
    if (m_arena_bytes_ == nullptr)
        return;
    m_arena_bytes_->set(static_cast<double>(arena_.pool_bytes()));
    m_stored_pages_->set(static_cast<double>(arena_.live_objects()));
}

bool
Zswap::store(Memcg &cg, PageId p)
{
    SDFM_ASSERT(!cg.page_test(p, kPageInZswap));
    SDFM_ASSERT(!cg.page_test(p, kPageUnevictable));
    SDFM_ASSERT(!cg.page_test(p, kPageIncompressible));
    const ContentClass content = cg.page_content(p);

    CompressionResult result;
    std::vector<std::uint8_t> payload;
    bool have_bytes = false;
    if (verify_roundtrip_) {
        have_bytes = compressor_->compress_page_bytes(
            content, cg.content_seed_of(p), &result, &payload);
        if (!have_bytes) {
            warn("zswap: verify_roundtrip requested but the "
                 "compression backend cannot produce payload bytes; "
                 "disabling verification");
            verify_roundtrip_ = false;
        }
    }
    if (!have_bytes) {
        result = compressor_->compress_page(content,
                                            cg.content_seed_of(p));
    }
    cg.stats().compress_cycles += result.compress_cycles;
    stats_.compress_cycles += result.compress_cycles;

    if (!result.accepted()) {
        // Payload larger than kMaxZswapPayload: metadata overhead
        // would exceed the savings. Mark the page so we do not retry
        // until its contents change (kstaled clears the mark on a
        // dirty PTE).
        cg.page_set(p, kPageIncompressible);
        ++cg.stats().zswap_rejects;
        ++stats_.rejects;
        if (m_rejects_ != nullptr) {
            m_rejects_->inc();
            m_incompressible_marks_->inc();
            m_payload_bytes_->observe(
                static_cast<double>(result.compressed_size));
        }
        return false;
    }

    ZsHandle handle =
        have_bytes ? arena_.store(result.compressed_size, payload.data())
                   : arena_.store(result.compressed_size);
    if (handle >= checksums_.size())
        checksums_.resize(arena_.handle_limit());
    checksums_[handle] =
        entry_checksum(cg.content_seed_of(p), result.compressed_size);
    cg.set_zswap_handle(p, handle);
    cg.note_stored_in_zswap(p);
    ++cg.stats().zswap_stores;
    cg.stats().compressed_bytes_stored += result.compressed_size;
    ++stats_.stores;
    if (m_stores_ != nullptr) {
        m_stores_->inc();
        m_payload_bytes_->observe(
            static_cast<double>(result.compressed_size));
        update_arena_metrics();
    }
    return true;
}

void
Zswap::load(Memcg &cg, PageId p)
{
    SDFM_ASSERT(cg.page_test(p, kPageInZswap));
    ZsHandle handle = cg.zswap_handle(p);
    SDFM_ASSERT(arena_.is_live(handle));

    std::uint32_t payload_size = arena_.payload_size(handle);
    double cycles = compressor_->decompress_cycles(payload_size);
    cg.stats().decompress_cycles += cycles;
    stats_.decompress_cycles += cycles;
    cg.stats().decompress_latency_us_sum +=
        compressor_->sample_decompress_latency_us(payload_size, rng_);

    // Integrity check before the payload is trusted: a corrupted
    // entry is counted as poisoned and the page re-faults from
    // backing store instead of aborting the fleet (the contents are
    // regenerable; only the compressed copy was damaged).
    bool poisoned = checksums_[handle] !=
                    entry_checksum(cg.content_seed_of(p), payload_size);
    if (verify_roundtrip_ && !poisoned) {
        const std::uint8_t *stored = arena_.payload(handle);
        if (stored != nullptr) {
            // Decompress the stored payload for real and verify the
            // bytes match the page's regenerated contents: the full
            // zswap path exercises the codec end to end. The checksum
            // does not cover the kept bytes, so a payload that fails
            // here is poisoned too.
            std::uint8_t decompressed[kPageSize];
            std::size_t n = szo_decompress(stored, payload_size,
                                           decompressed,
                                           sizeof(decompressed));
            std::uint8_t expected[kPageSize];
            generate_page_content(cg.page_content(p),
                                  cg.content_seed_of(p), expected);
            if (n == kPageSize &&
                std::memcmp(decompressed, expected, kPageSize) == 0) {
                ++stats_.verified_roundtrips;
            } else {
                poisoned = true;
            }
        }
    }
    if (poisoned) {
        ++stats_.poisoned_entries;
        ++cg.stats().far_refaults;
        cg.stats().decompress_latency_us_sum += kZswapRefaultLatencyUs;
        // The re-fault blocks the faulting task like an SSD swap-in
        // (pure stall at a nominal 2.6 GHz, as the NVM path does).
        cg.stats().refault_stall_cycles +=
            kZswapRefaultLatencyUs * 2.6e3;
        if (m_poisoned_ != nullptr)
            m_poisoned_->inc();
    }

    SDFM_ASSERT(cg.stats().compressed_bytes_stored >= payload_size);
    cg.stats().compressed_bytes_stored -= payload_size;
    arena_.release(handle);
    cg.clear_zswap_handle(p);
    cg.note_loaded_from_zswap(p);
    ++cg.stats().zswap_promotions;
    ++stats_.promotions;
    if (m_promotions_ != nullptr) {
        m_promotions_->inc();
        update_arena_metrics();
    }
}

std::uint64_t
Zswap::entry_checksum(std::uint64_t content_seed,
                      std::uint32_t payload_size)
{
    // A 64-bit mix over what the entry should decompress to (the
    // page's generative seed) and the stored payload size -- cheap,
    // deterministic, and sensitive to single-bit damage.
    std::uint64_t x = content_seed ^ (static_cast<std::uint64_t>(
                                          payload_size) *
                                      0x9E3779B97F4A7C15ULL);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
}

bool
Zswap::corrupt_entry(Rng &rng)
{
    if (arena_.live_objects() == 0)
        return false;
    // The victim is the k-th live handle in ascending order, so the
    // fault trajectory depends only on the arena's state.
    std::uint64_t k = rng.next_below(arena_.live_objects());
    ZsHandle victim = 0;
    for (ZsHandle h = 1; h < arena_.handle_limit(); ++h) {
        if (arena_.is_live(h) && k-- == 0) {
            victim = h;
            break;
        }
    }
    SDFM_ASSERT(victim != 0);
    checksums_[victim] ^= 0xDEADBEEFCAFEF00DULL;
    ++stats_.corruptions_injected;
    return true;
}

void
Zswap::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;
    arena_.check_invariants();
    SDFM_INVARIANT(checksums_.size() == arena_.handle_limit(),
                   "the checksum table spans every arena handle");
    SDFM_INVARIANT(stats_.stores >= stats_.promotions,
                   "promotions never exceed stores");
}

void
Zswap::drop(Memcg &cg, PageId p)
{
    SDFM_ASSERT(cg.page_test(p, kPageInZswap));
    ZsHandle handle = cg.zswap_handle(p);
    SDFM_ASSERT(arena_.is_live(handle));
    std::uint32_t payload = arena_.payload_size(handle);
    SDFM_ASSERT(cg.stats().compressed_bytes_stored >= payload);
    cg.stats().compressed_bytes_stored -= payload;
    arena_.release(handle);
    cg.clear_zswap_handle(p);
    cg.note_loaded_from_zswap(p);
    update_arena_metrics();
}

void
Zswap::drop_all(Memcg &cg)
{
    for (PageId p : cg.zswap_page_ids())
        drop(cg, p);
}

void
Zswap::ckpt_save(Serializer &s) const
{
    arena_.ckpt_save(s);
    s.put_u64(stats_.stores);
    s.put_u64(stats_.rejects);
    s.put_u64(stats_.promotions);
    s.put_u64(stats_.verified_roundtrips);
    s.put_u64(stats_.poisoned_entries);
    s.put_u64(stats_.corruptions_injected);
    s.put_double(stats_.compress_cycles);
    s.put_double(stats_.decompress_cycles);
    s.put_rng(rng_);
    s.put_bool(verify_roundtrip_);

    // One checksum per live handle, ascending; the arena says which
    // handles are live.
    for (ZsHandle h = 1; h < arena_.handle_limit(); ++h) {
        if (arena_.is_live(h))
            s.put_u64(checksums_[h]);
    }
}

bool
Zswap::ckpt_load(Deserializer &d)
{
    if (!arena_.ckpt_load(d))
        return false;
    stats_.stores = d.get_u64();
    stats_.rejects = d.get_u64();
    stats_.promotions = d.get_u64();
    stats_.verified_roundtrips = d.get_u64();
    stats_.poisoned_entries = d.get_u64();
    stats_.corruptions_injected = d.get_u64();
    stats_.compress_cycles = d.get_double();
    stats_.decompress_cycles = d.get_double();
    d.get_rng(rng_);
    bool verify = d.get_bool();
    if (!d.ok() || verify != verify_roundtrip_)
        return false;

    checksums_.assign(arena_.handle_limit(), 0);
    for (ZsHandle h = 1; h < arena_.handle_limit(); ++h) {
        if (arena_.is_live(h))
            checksums_[h] = d.get_u64();
    }
    if (!d.ok())
        return false;
    update_arena_metrics();
    return true;
}

}  // namespace sdfm
