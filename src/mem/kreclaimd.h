/**
 * @file
 * kreclaimd: the proactive reclaim daemon (Section 5.1), plus the
 * direct-reclaim path used when a machine runs out of memory and by
 * the reactive-zswap baseline (Section 3.2).
 *
 * Proactive mode compares each page's age against the job's
 * agent-chosen cold-age threshold and demotes everything older into
 * the far-memory stack, following a DemotionPlan computed once per
 * control period by the machine's routing policy (see tier_stack.h).
 * Only LRU-eligible pages are considered: unevictable (mlocked) pages
 * are skipped, as are pages touched since the last scan;
 * incompressible-marked pages are skipped by compressing tiers only.
 */

#ifndef SDFM_MEM_KRECLAIMD_H
#define SDFM_MEM_KRECLAIMD_H

#include <cstdint>

#include "mem/memcg.h"
#include "mem/tier_stack.h"
#include "mem/zswap.h"
#include "telemetry/registry.h"

namespace sdfm {

/** Result of one reclaim pass over a job. */
struct ReclaimResult
{
    std::uint64_t pages_stored = 0;    ///< total demoted (all tiers)
    std::uint64_t pages_to_tier = 0;   ///< demoted to deep tiers (>= 1)
    std::uint64_t pages_rejected = 0;  ///< incompressible rejections
    std::uint64_t pages_walked = 0;
    std::uint64_t huge_splits = 0;     ///< cold huge regions split
    double walk_cycles = 0.0;  ///< page-walk + split cost

    /**
     * Host work, not the modelled walk (pages_walked also counts the
     * pages of skipped regions): summary regions the walk went
     * through rather than skipped, and the 64-page bitset words of
     * those regions it read. The per-page direct-reclaim walk visits
     * every region and counts one word per 64 pages. Kept out of
     * walk_cycles, the metric registry, the digest and the
     * checkpoint.
     */
    std::uint64_t regions_visited = 0;
    std::uint64_t words_visited = 0;
};

/** Reclaim daemon parameters. */
struct KreclaimdParams
{
    /** Modelled CPU cycles per page considered. */
    double cycles_per_page = 80.0;

    /** One-time CPU cycles to split a 2 MiB huge mapping. */
    double split_cycles = 40000.0;
};

/** The kreclaimd daemon. */
class Kreclaimd
{
  public:
    explicit Kreclaimd(const KreclaimdParams &params = KreclaimdParams{});

    /**
     * Proactive pass: demote every eligible page with
     * age >= cg.reclaim_threshold() into far memory, routed by
     * @p plan. A threshold of 0 means reclaim is disabled for the
     * job; a no-op when the job's zswap is disabled or the plan is
     * empty.
     *
     * Per page, the plan's routes are consulted in order (deepest
     * tier first): the first route whose resolved age band contains
     * the page and whose tier has budget left gets a store attempt.
     * A capacity rejection (tier full) falls through to the next
     * route; a content rejection (zswap marking the page
     * incompressible) ends the page's pass. The plan's budgets and
     * per-tier store counts are mutated in place, so one plan shared
     * across jobs enforces machine-wide breaker budgets -- exactly
     * the half-open trial-trickle semantics.
     */
    ReclaimResult reclaim_cold(Memcg &cg, DemotionPlan &plan) const;

    /**
     * Single-tier convenience: demote straight to @p zswap with no
     * deep tiers (unit tests and zswap-only rigs). Builds a
     * throwaway one-entry plan around the store.
     */
    ReclaimResult reclaim_cold(Memcg &cg, Zswap &zswap) const;

    /**
     * Direct reclaim (the reactive path): compress the job's oldest
     * pages -- regardless of any threshold -- until @p target_pages
     * have been freed or the job's resident set reaches its soft
     * limit. Used on machine memory pressure; the caller charges the
     * faulting job for the stall. Always targets zswap: the reactive
     * path predates the stack and wants the elastic tier.
     *
     * @return Result; pages_stored may be less than target_pages.
     */
    ReclaimResult direct_reclaim(Memcg &cg, Zswap &zswap,
                                 std::uint64_t target_pages) const;

    /**
     * Attach to a machine's metric registry (kreclaimd.* metrics).
     * Recorded once per reclaim pass (per job), never per page.
     * Null detaches.
     */
    void bind_metrics(MetricRegistry *registry);

  private:
    /** Record one finished pass into the bound metrics (if any). */
    void record_pass(const ReclaimResult &result, bool direct) const;

    KreclaimdParams params_;

    // Cached registry metrics (null when unbound).
    Counter *m_passes_ = nullptr;
    Counter *m_direct_passes_ = nullptr;
    Counter *m_pages_walked_ = nullptr;
    Counter *m_pages_stored_ = nullptr;
    Counter *m_pages_to_tier_ = nullptr;
    Counter *m_pages_rejected_ = nullptr;
    Counter *m_huge_splits_ = nullptr;
    Histogram *m_pass_cycles_ = nullptr;
};

}  // namespace sdfm

#endif  // SDFM_MEM_KRECLAIMD_H
