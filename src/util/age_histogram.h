/**
 * @file
 * Histogram over page ages.
 *
 * The kernel tracks each page's age as an 8-bit count of kstaled scan
 * periods (Section 5.1 of the paper), so every per-job histogram --
 * both the cold-age histogram (pages by current age) and the
 * promotion histogram (age of a page at the moment it is re-accessed)
 * -- is a 256-bucket array indexed by that scan-period count.
 *
 * Bucket b covers ages in [b * kScanPeriod, (b+1) * kScanPeriod).
 *
 * AgeHistogram is the dense form a memcg updates in place every scan.
 * SparseAgeHistogram keeps only the non-zero buckets: a 5-minute trace
 * window touches a few dozen of the 256, and a fleet's trace log holds
 * two histograms per job-window, so traces store and replay this form.
 */

#ifndef SDFM_UTIL_AGE_HISTOGRAM_H
#define SDFM_UTIL_AGE_HISTOGRAM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/sim_time.h"

namespace sdfm {

/** Number of age buckets (8-bit per-page age). */
inline constexpr std::size_t kAgeBuckets = 256;

/** Page age in scan periods, saturating at 255. */
using AgeBucket = std::uint8_t;

/** Convert an age in seconds to its (saturating) bucket. */
AgeBucket age_to_bucket(SimTime age_seconds);

/** Lower edge, in seconds, of the given bucket. */
SimTime bucket_to_age(AgeBucket bucket);

/**
 * Fixed 256-bucket histogram over page ages, with cumulative queries
 * in both directions. All counts are page counts.
 */
class AgeHistogram
{
  public:
    AgeHistogram() { clear(); }

    /** Zero every bucket. */
    void clear();

    /** Add @p count pages at the given age bucket. */
    void add(AgeBucket bucket, std::uint64_t count = 1);

    /** Count in one bucket. */
    std::uint64_t at(AgeBucket bucket) const { return counts_[bucket]; }

    /** Total pages across all buckets. */
    std::uint64_t total() const;

    /**
     * Pages whose age is >= the threshold bucket, i.e. pages that a
     * cold-age threshold of bucket_to_age(bucket) would classify as
     * cold (for the cold-age histogram) or promotions that threshold
     * would have suffered (for the promotion histogram).
     */
    std::uint64_t count_at_least(AgeBucket bucket) const;

    /** Pages whose age is strictly below the threshold bucket. */
    std::uint64_t count_below(AgeBucket bucket) const;

    bool operator==(const AgeHistogram &other) const = default;

  private:
    std::array<std::uint64_t, kAgeBuckets> counts_;
};

/**
 * An age histogram kept as its ascending non-zero (bucket, count)
 * bins, each packed into one word: the bucket in the top byte, the
 * count in the 56 bits below. Packed words sort by bucket, and equal
 * histograms have equal bins. Queries cost O(bins), not O(256).
 */
class SparseAgeHistogram
{
  public:
    /** Largest count one bucket holds (2^56 - 1 pages). */
    static constexpr std::uint64_t kMaxCount =
        (std::uint64_t{1} << 56) - 1;

    SparseAgeHistogram() = default;

    /**
     * The non-zero buckets of @p dense, each at most kMaxCount.
     * Implicit, so a dense histogram reads wherever a sparse one is
     * expected.
     */
    SparseAgeHistogram(const AgeHistogram &dense);

    /**
     * Bucket-wise difference cur - prev of two cumulative snapshots;
     * every bucket of @p prev must be <= the same bucket of @p cur.
     */
    static SparseAgeHistogram delta(const AgeHistogram &cur,
                                    const AgeHistogram &prev);

    /**
     * Add @p count pages at the given age bucket. The bucket's count
     * must stay at most kMaxCount.
     */
    void add(AgeBucket bucket, std::uint64_t count = 1);

    /** Make room for @p bins non-zero buckets in one allocation. */
    void reserve(std::size_t bins) { bins_.reserve(bins); }

    /** Count in one bucket. */
    std::uint64_t at(AgeBucket bucket) const;

    /** Total pages across all buckets. */
    std::uint64_t total() const;

    /** Pages whose age is >= the threshold bucket. */
    std::uint64_t count_at_least(AgeBucket bucket) const;

    /** Number of non-zero buckets. */
    std::size_t num_bins() const { return bins_.size(); }

    /** Bucket of the i-th non-zero bin, ascending in i. */
    AgeBucket
    bin_bucket(std::size_t i) const
    {
        return static_cast<AgeBucket>(bins_[i] >> kCountBits);
    }

    /** Count of the i-th non-zero bin. */
    std::uint64_t
    bin_count(std::size_t i) const
    {
        return bins_[i] & kMaxCount;
    }

    /** Heap bytes the bins hold (their allocation, not their size). */
    std::size_t
    heap_bytes() const
    {
        return bins_.capacity() * sizeof(std::uint64_t);
    }

    bool operator==(const SparseAgeHistogram &other) const = default;

  private:
    static constexpr unsigned kCountBits = 56;

    static std::uint64_t
    pack(AgeBucket bucket, std::uint64_t count)
    {
        return (static_cast<std::uint64_t>(bucket) << kCountBits) | count;
    }

    std::vector<std::uint64_t> bins_;
};

}  // namespace sdfm

#endif  // SDFM_UTIL_AGE_HISTOGRAM_H
