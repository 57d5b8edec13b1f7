#include "util/age_histogram.h"

#include <algorithm>

#include "util/logging.h"

namespace sdfm {

AgeBucket
age_to_bucket(SimTime age_seconds)
{
    SDFM_ASSERT(age_seconds >= 0);
    SimTime bucket = age_seconds / kScanPeriod;
    if (bucket > 255)
        bucket = 255;
    return static_cast<AgeBucket>(bucket);
}

SimTime
bucket_to_age(AgeBucket bucket)
{
    return static_cast<SimTime>(bucket) * kScanPeriod;
}

void
AgeHistogram::clear()
{
    counts_.fill(0);
}

void
AgeHistogram::add(AgeBucket bucket, std::uint64_t count)
{
    counts_[bucket] += count;
}

std::uint64_t
AgeHistogram::total() const
{
    std::uint64_t sum = 0;
    for (auto c : counts_)
        sum += c;
    return sum;
}

std::uint64_t
AgeHistogram::count_at_least(AgeBucket bucket) const
{
    std::uint64_t sum = 0;
    for (std::size_t b = bucket; b < kAgeBuckets; ++b)
        sum += counts_[b];
    return sum;
}

std::uint64_t
AgeHistogram::count_below(AgeBucket bucket) const
{
    std::uint64_t sum = 0;
    for (std::size_t b = 0; b < bucket; ++b)
        sum += counts_[b];
    return sum;
}

SparseAgeHistogram::SparseAgeHistogram(const AgeHistogram &dense)
{
    // Pack into a stack buffer first, so the bins are one allocation
    // of exactly their size.
    std::array<std::uint64_t, kAgeBuckets> packed;
    std::size_t n = 0;
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        std::uint64_t count = dense.at(static_cast<AgeBucket>(b));
        if (count == 0)
            continue;
        SDFM_ASSERT(count <= kMaxCount);
        packed[n++] = pack(static_cast<AgeBucket>(b), count);
    }
    bins_.assign(packed.begin(), packed.begin() + n);
}

SparseAgeHistogram
SparseAgeHistogram::delta(const AgeHistogram &cur, const AgeHistogram &prev)
{
    std::array<std::uint64_t, kAgeBuckets> packed;
    std::size_t n = 0;
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        std::uint64_t c = cur.at(static_cast<AgeBucket>(b));
        std::uint64_t p = prev.at(static_cast<AgeBucket>(b));
        SDFM_ASSERT(c >= p);
        if (c == p)
            continue;
        SDFM_ASSERT(c - p <= kMaxCount);
        packed[n++] = pack(static_cast<AgeBucket>(b), c - p);
    }
    SparseAgeHistogram out;
    out.bins_.assign(packed.begin(), packed.begin() + n);
    return out;
}

void
SparseAgeHistogram::add(AgeBucket bucket, std::uint64_t count)
{
    if (count == 0)
        return;
    auto it = std::lower_bound(bins_.begin(), bins_.end(), pack(bucket, 0));
    if (it != bins_.end() && (*it >> kCountBits) == bucket) {
        SDFM_ASSERT(count <= kMaxCount - (*it & kMaxCount));
        *it += count;
        return;
    }
    SDFM_ASSERT(count <= kMaxCount);
    bins_.insert(it, pack(bucket, count));
}

std::uint64_t
SparseAgeHistogram::at(AgeBucket bucket) const
{
    auto it = std::lower_bound(bins_.begin(), bins_.end(), pack(bucket, 0));
    if (it == bins_.end() || (*it >> kCountBits) != bucket)
        return 0;
    return *it & kMaxCount;
}

std::uint64_t
SparseAgeHistogram::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t bin : bins_)
        sum += bin & kMaxCount;
    return sum;
}

std::uint64_t
SparseAgeHistogram::count_at_least(AgeBucket bucket) const
{
    // Every bin at or past the bucket's first packed word qualifies.
    const std::uint64_t first = pack(bucket, 0);
    std::uint64_t sum = 0;
    for (auto it = bins_.rbegin(); it != bins_.rend() && *it >= first; ++it)
        sum += *it & kMaxCount;
    return sum;
}

}  // namespace sdfm
