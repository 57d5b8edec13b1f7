#include "node/threshold_controller.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/invariant.h"
#include "util/logging.h"

namespace sdfm {

ThresholdController::ThresholdController(const SloConfig &slo,
                                         SimTime job_start,
                                         MetricRegistry *metrics)
    : slo_(slo), job_start_(job_start)
{
    SDFM_ASSERT(slo_.history_window > 0);
    if (metrics != nullptr) {
        m_updates_ = &metrics->counter("controller.updates");
        m_slo_unsatisfiable_ =
            &metrics->counter("controller.slo_unsatisfiable");
        // Thresholds are 8-bit age buckets; a power-of-two grid keeps
        // the common low values distinguishable.
        m_threshold_ = &metrics->histogram(
            "controller.threshold",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 255});
    }
}

void
ThresholdController::set_slo(const SloConfig &slo)
{
    slo_ = slo;
    pool_trim();
}

void
ThresholdController::pool_push(AgeBucket b)
{
    pool_.push_back(b);
    ++pool_counts_[b];
}

void
ThresholdController::pool_trim()
{
    while (pool_.size() > slo_.history_window) {
        --pool_counts_[pool_.front()];
        pool_.pop_front();
    }
}

AgeBucket
ThresholdController::best_threshold(const SparseAgeHistogram &promo_delta,
                                    std::uint64_t wss_pages,
                                    double target_rate,
                                    double period_minutes)
{
    // Budget: P% of WSS per minute, over the period length.
    double budget = target_rate * static_cast<double>(wss_pages) *
                    period_minutes;
    // count_at_least(T) is non-increasing in T: find the smallest
    // T >= 1 whose would-be promotions fit the budget, 255 if none
    // does. It only changes at a non-zero bin, so walk the bins down
    // from the top, summing the suffix: the first bin that breaks the
    // budget puts the answer just above it.
    auto fits = [budget](std::uint64_t promotions) {
        return static_cast<double>(promotions) <= budget;
    };
    if (!fits(0))
        return 255;
    std::uint64_t at_least = 0;  // count_at_least(bucket + 1)
    for (std::size_t i = promo_delta.num_bins(); i-- > 0;) {
        const AgeBucket bucket = promo_delta.bin_bucket(i);
        if (bucket == 0)
            break;  // bucket 0 counts toward no threshold >= 1
        at_least += promo_delta.bin_count(i);
        if (!fits(at_least))
            return bucket == 255 ? 255 : static_cast<AgeBucket>(bucket + 1);
    }
    return 1;
}

AgeBucket
ThresholdController::pool_percentile() const
{
    SDFM_ASSERT(!pool_.empty());
    // Counting select over the bucket counts: returns the idx-th
    // smallest pool entry, exactly what sorting the window and
    // indexing it would -- without the per-period copy and sort.
    double rank = slo_.percentile_k / 100.0 *
                  static_cast<double>(pool_.size() - 1);
    auto idx = static_cast<std::size_t>(std::llround(rank));
    if (idx >= pool_.size())
        idx = pool_.size() - 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        seen += pool_counts_[b];
        if (seen > idx)
            return static_cast<AgeBucket>(b);
    }
    SDFM_ASSERT(false);  // counts_ always sums to pool_.size()
    return 255;
}

AgeBucket
ThresholdController::update(SimTime now,
                            const SparseAgeHistogram &promo_delta,
                            std::uint64_t wss_pages, double period_minutes)
{
    AgeBucket best =
        best_threshold(promo_delta, wss_pages,
                       slo_.target_promotion_rate, period_minutes);
    pool_push(best);
    pool_trim();

    if (m_updates_ != nullptr) {
        m_updates_->inc();
        // 255 = even the coldest bucket would blow the promotion
        // budget this period; the job is effectively un-zswappable.
        if (best == 255)
            m_slo_unsatisfiable_->inc();
    }

    if (now - job_start_ < slo_.enable_delay) {
        // Insufficient history: zswap disabled, but the pool still
        // accumulates observations for when it turns on.
        current_ = 0;
        if (m_threshold_ != nullptr)
            m_threshold_->observe(0.0);
        check_invariants();
        return current_;
    }

    // K-th percentile of past bests; react immediately if the last
    // period was worse (needs a higher threshold) than the pool says.
    current_ = std::max(pool_percentile(), best);
    if (m_threshold_ != nullptr)
        m_threshold_->observe(static_cast<double>(current_));
    check_invariants();
    return current_;
}

void
ThresholdController::ckpt_save(Serializer &s) const
{
    ckpt_save_slo(s, slo_);
    s.put_i64(job_start_);
    s.put_u64(pool_.size());
    for (AgeBucket b : pool_)
        s.put_u8(b);
    s.put_u8(current_);
}

bool
ThresholdController::ckpt_load(Deserializer &d)
{
    if (!ckpt_load_slo(d, slo_))
        return false;
    job_start_ = d.get_i64();
    std::size_t num = d.get_size(slo_.history_window);
    if (!d.ok())
        return false;
    pool_.clear();
    pool_counts_.fill(0);
    for (std::size_t i = 0; i < num; ++i)
        pool_push(d.get_u8());
    current_ = d.get_u8();
    if (!d.ok() || (current_ != 0 && pool_.empty()))
        return false;
    return true;
}

void
ThresholdController::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;
    SDFM_INVARIANT(pool_.size() <= slo_.history_window,
                   "observation pool bounded by the sliding window");
    std::uint64_t binned = 0;
    for (std::uint32_t c : pool_counts_)
        binned += c;
    SDFM_INVARIANT(binned == pool_.size(),
                   "bucket counts re-bin exactly the pool contents");
    SDFM_INVARIANT(slo_.percentile_k >= 0.0 &&
                       slo_.percentile_k <= 100.0,
                   "K is a percentile");
    SDFM_INVARIANT(slo_.target_promotion_rate >= 0.0,
                   "promotion-rate SLO is non-negative");
    // current_ == 0 means "zswap disabled"; any enabled threshold
    // must have come from the pool, which only holds values >= 1.
    SDFM_INVARIANT(current_ == 0 || !pool_.empty(),
                   "an enabled threshold implies observations");
}

}  // namespace sdfm
