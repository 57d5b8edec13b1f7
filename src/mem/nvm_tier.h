/**
 * @file
 * Hardware far-memory tier: an NVM device (Optane-DC-class) holding
 * uncompressed cold pages.
 *
 * This implements the paper's concluding future-work direction: "an
 * exciting end state would be one where the system uses both hardware
 * and software approaches and multiple tiers of far memory (sub-us
 * tier-1 and single-us tier-2), all managed intelligently". Unlike
 * zswap, an NVM tier
 *   - has FIXED capacity (the provisioning/stranding risk the paper
 *     warns about in Section 2.1),
 *   - costs money per byte but no CPU cycles to access,
 *   - serves promotions at sub-microsecond latency.
 *
 * The two-tier policy (see Kreclaimd) routes moderately-cold pages --
 * the ones most likely to be promoted -- to the fast NVM tier while
 * deep-cold pages go to zswap, whose capacity is elastic.
 */

#ifndef SDFM_MEM_NVM_TIER_H
#define SDFM_MEM_NVM_TIER_H

#include <cstdint>

#include "mem/far_tier.h"
#include "mem/memcg.h"
#include "util/rng.h"

namespace sdfm {

/** NVM device parameters (Optane-DC-ish defaults). */
struct NvmTierParams
{
    /** Device capacity in pages (a 0-page tier rejects every store). */
    std::uint64_t capacity_pages = 0;

    /** Mean read (promotion) latency in microseconds. */
    double read_latency_us = 0.8;

    /** Mean write (demotion) latency in microseconds. */
    double write_latency_us = 2.0;

    /** Lognormal latency jitter sigma. */
    double jitter_sigma = 0.2;

    /**
     * Cost of one NVM byte relative to one DRAM byte (for the TCO
     * model; ~0.4 for first-generation Optane DC).
     */
    double cost_per_byte_vs_dram = 0.4;
};

/** NVM tier counters. */
struct NvmTierStats
{
    std::uint64_t stores = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rejected_full = 0;  ///< store attempts with no space
    double read_latency_us_sum = 0.0;

    // Fault-plane counters (zero while the device is healthy).
    std::uint64_t media_errors = 0;        ///< reads hitting bad media
    std::uint64_t capacity_lost_pages = 0; ///< slots retired by faults
};

/**
 * Extra latency charged when an NVM read hits a media error and the
 * page must be recovered from backing store (device-level ECC failed;
 * the data is regenerable, so the read degrades instead of killing
 * the job).
 */
inline constexpr double kNvmMediaErrorLatencyUs = 100.0;

/** Per-machine NVM far-memory tier. */
class NvmTier : public FarTier
{
  public:
    NvmTier(const NvmTierParams &params, std::uint64_t rng_seed);

    TierKind kind() const override { return TierKind::kNvm; }

    /** True iff the tier exists and has a free page slot. */
    bool has_space() const override;

    /**
     * Demote page @p p of @p cg to NVM. The page must be resident and
     * evictable. Fails (returns false) when the device is full -- the
     * fixed-capacity stranding case.
     */
    bool store(Memcg &cg, PageId p) override;

    /** Promote page @p p back to DRAM; it must be in this tier. */
    void load(Memcg &cg, PageId p) override;

    /** Discard a stored page (teardown). */
    void drop(Memcg &cg, PageId p) override;

    /** Release every stored page of a job. */
    void drop_all(Memcg &cg) override;

    std::uint64_t used_pages() const override { return used_pages_; }
    std::uint64_t
    capacity_pages() const override
    {
        return params_.capacity_pages;
    }

    const NvmTierParams &params() const { return params_; }
    const NvmTierStats &stats() const { return stats_; }

    // -- fault plane -----------------------------------------------

    /**
     * Degrade (or restore) read latency by a multiplicative factor --
     * a thermally-throttled or wear-levelling device. 1.0 is healthy
     * and leaves trajectories bit-identical.
     */
    void set_latency_multiplier(double m) { latency_multiplier_ = m; }
    double latency_multiplier() const { return latency_multiplier_; }

    /**
     * Queue @p n media errors: the next @p n promotions fail ECC and
     * re-fault from backing store at kNvmMediaErrorLatencyUs extra.
     */
    void inject_media_errors(std::uint32_t n)
    {
        pending_media_errors_ += n;
    }

    /**
     * Retire a fraction of the device's capacity (media wear-out).
     * Returns how many stored pages no longer fit; the caller must
     * spill that many (Machine::spill_tier_overflow).
     */
    std::uint64_t lose_capacity(double frac);

    /**
     * Checkpointable: snapshots the (possibly fault-reduced) device
     * capacity, residency and fault counters, the latency-jitter RNG,
     * and the pending-media-error queue. Residency flags live in each
     * memcg, so no per-page state is stored here.
     */
    void ckpt_save(Serializer &s) const override;
    bool ckpt_load(Deserializer &d) override;

  private:
    NvmTierParams params_;
    NvmTierStats stats_;
    std::uint64_t used_pages_ = 0;
    Rng rng_;
    double latency_multiplier_ = 1.0;
    std::uint32_t pending_media_errors_ = 0;
};

}  // namespace sdfm

#endif  // SDFM_MEM_NVM_TIER_H
