#include "node/node_agent.h"

#include <algorithm>

#include "util/logging.h"

namespace sdfm {

NodeAgent::NodeAgent(const NodeAgentConfig &config) : config_(config)
{
}

void
NodeAgent::bind_metrics(MetricRegistry *registry)
{
    registry_ = registry;
    if (registry == nullptr) {
        m_control_rounds_ = nullptr;
        m_slo_violations_ = nullptr;
        m_restarts_ = nullptr;
        m_slo_breaker_trips_ = nullptr;
        m_jobs_ = nullptr;
        m_threshold_sum_ = nullptr;
        m_promo_rate_ = nullptr;
        return;
    }
    m_control_rounds_ = &registry->counter("agent.control_rounds");
    m_slo_violations_ = &registry->counter("agent.slo_violations");
    m_restarts_ = &registry->counter("agent.restarts");
    m_slo_breaker_trips_ = &registry->counter("agent.slo_breaker_trips");
    m_jobs_ = &registry->gauge("agent.jobs");
    m_threshold_sum_ = &registry->gauge("agent.threshold_sum");
    // Realized promotion rate as a fraction of WSS per minute; the
    // SLO target (0.002) sits inside the grid so violations are
    // visible as the tail beyond it.
    m_promo_rate_ = &registry->histogram(
        "agent.promo_rate",
        {0.0, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.02, 0.1, 1.0});
}

NodeAgent::JobState
NodeAgent::make_state(const Memcg &cg, SimTime job_start) const
{
    // Snapshots seed from the job's current kernel-side state: zero
    // for a fresh job, the live histograms after an agent restart
    // (the kernel keeps counting while the agent is down, and a
    // restarted agent must not interpret that backlog as one
    // period's delta).
    return JobState{ThresholdController(config_.slo, job_start,
                                        registry_),
                    cg.promo_hist(), cg.promo_hist(), cg.stats(),
                    cg.stats().zswap_promotions,
                    CircuitBreaker(config_.slo_breaker)};
}

void
NodeAgent::register_job(const Memcg &cg)
{
    auto [it, inserted] =
        jobs_.emplace(cg.id(), make_state(cg, cg.start_time()));
    SDFM_ASSERT(inserted);
}

void
NodeAgent::crash_restart(SimTime now, std::vector<Memcg *> &jobs)
{
    ++stats_.restarts;
    if (m_restarts_ != nullptr)
        m_restarts_->inc();
    jobs_.clear();
    for (Memcg *cg : jobs) {
        jobs_.emplace(cg->id(), make_state(*cg, now));
        // The restarted agent starts conservative: reclaim off until
        // its controllers re-enter steady state after the S-second
        // warmup, exactly as for a newly started job.
        cg->set_reclaim_threshold(0);
        cg->set_zswap_enabled(false);
    }
}

void
NodeAgent::unregister_job(JobId id)
{
    std::size_t erased = jobs_.erase(id);
    SDFM_ASSERT(erased == 1);
}

NodeAgent::JobState &
NodeAgent::state_of(const Memcg &cg)
{
    auto it = jobs_.find(cg.id());
    SDFM_ASSERT(it != jobs_.end());
    return it->second;
}

void
NodeAgent::control(SimTime now, std::vector<Memcg *> &jobs,
                   double period_minutes)
{
    double threshold_sum = 0.0;
    for (Memcg *cg : jobs) {
        JobState &state = state_of(*cg);

        // Realized promotion-rate SLI for the period just ended (the
        // would-be rate drives the controller; this is what the job
        // actually experienced, the quantity the SLO is stated over).
        std::uint64_t promos = cg->stats().zswap_promotions;
        std::uint64_t delta_promos = promos - state.control_promotions;
        state.control_promotions = promos;
        std::uint64_t wss = cg->wss_pages();
        bool breached = false;
        if (wss > 0) {
            double rate = static_cast<double>(delta_promos) /
                          static_cast<double>(wss) / period_minutes;
            breached = rate > config_.slo.target_promotion_rate;
            if (m_promo_rate_ != nullptr) {
                m_promo_rate_->observe(rate);
                if (breached)
                    m_slo_violations_->inc();
            }
        }

        // Per-job SLO circuit breaker: N consecutive breached periods
        // disable zswap outright; the half-open probe re-enables it
        // with exponentially longer hold-offs on repeat offenses.
        bool slo_forced_off = false;
        if (config_.slo_breaker_enabled) {
            if (breached) {
                if (state.slo_breaker.record_failure()) {
                    ++stats_.slo_breaker_trips;
                    if (m_slo_breaker_trips_ != nullptr)
                        m_slo_breaker_trips_->inc();
                }
            } else {
                state.slo_breaker.record_success();
            }
            state.slo_breaker.tick();
            slo_forced_off = !state.slo_breaker.allow();
        }

        AgeBucket threshold = 0;
        switch (config_.policy) {
          case FarMemoryPolicy::kProactive: {
            SparseAgeHistogram delta = SparseAgeHistogram::delta(
                cg->promo_hist(), state.control_snapshot);
            state.control_snapshot = cg->promo_hist();
            threshold = state.controller.update(now, delta,
                                                cg->wss_pages(),
                                                period_minutes);
            break;
          }
          case FarMemoryPolicy::kStatic:
            // The delay window is keyed off the controller's start,
            // not the memcg's, so an agent crash_restart re-enters
            // the warmup for static jobs too.
            threshold = (now - state.controller.job_start() >=
                         config_.slo.enable_delay)
                            ? config_.static_threshold
                            : 0;
            break;
          case FarMemoryPolicy::kReactive:
          case FarMemoryPolicy::kOff:
            threshold = 0;  // no proactive reclaim
            break;
        }
        if (slo_forced_off)
            threshold = 0;  // breaker open: job opted out of zswap
        cg->set_reclaim_threshold(threshold);
        cg->set_zswap_enabled(threshold > 0);
        // Soft limit: protect the working set from direct reclaim.
        cg->set_soft_limit_pages(cg->wss_pages());
        threshold_sum += static_cast<double>(threshold);
    }
    if (m_control_rounds_ != nullptr) {
        m_control_rounds_->inc();
        m_jobs_->set(static_cast<double>(jobs.size()));
        m_threshold_sum_->set(threshold_sum);
    }
}

void
NodeAgent::export_telemetry(SimTime now, std::vector<Memcg *> &jobs,
                            TraceLog *sink)
{
    for (Memcg *cg : jobs) {
        JobState &state = state_of(*cg);
        TraceEntry entry;
        entry.job = cg->id();
        entry.timestamp = now;
        entry.wss_pages = cg->wss_pages();
        entry.promo_delta = SparseAgeHistogram::delta(
            cg->promo_hist(), state.telemetry_snapshot);
        entry.cold_hist = SparseAgeHistogram(cg->cold_hist());

        const MemcgStats &cur = cg->stats();
        const MemcgStats &prev = state.sli_snapshot;
        JobSli &sli = entry.sli;
        sli.zswap_promotions_delta =
            cur.zswap_promotions - prev.zswap_promotions;
        sli.zswap_stores_delta = cur.zswap_stores - prev.zswap_stores;
        sli.zswap_rejects_delta = cur.zswap_rejects - prev.zswap_rejects;
        sli.zswap_pages = cg->zswap_pages();
        sli.resident_pages = cg->resident_pages();
        sli.cold_pages_min = cg->cold_pages_min_threshold();
        sli.compressed_bytes = cur.compressed_bytes_stored;
        sli.compress_cycles_delta =
            cur.compress_cycles - prev.compress_cycles;
        sli.decompress_cycles_delta =
            cur.decompress_cycles - prev.decompress_cycles;
        sli.app_cycles_delta = cur.app_cycles - prev.app_cycles;
        sli.decompress_latency_us_delta =
            cur.decompress_latency_us_sum - prev.decompress_latency_us_sum;

        state.telemetry_snapshot = cg->promo_hist();
        state.sli_snapshot = cur;
        if (sink != nullptr)
            sink->append(std::move(entry));
    }
}

const CircuitBreaker *
NodeAgent::slo_breaker_of(JobId id) const
{
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second.slo_breaker;
}

void
NodeAgent::ckpt_save(Serializer &s) const
{
    ckpt_save_slo(s, config_.slo);
    s.put_u64(config_epoch_);
    s.put_u64(stats_.restarts);
    s.put_u64(stats_.slo_breaker_trips);

    std::vector<JobId> ids;
    ids.reserve(jobs_.size());
    // sdfm-lint: allow(unordered-iter) -- key extraction only; ids
    // are sorted before serialization so the wire bytes are
    // independent of hash-map iteration order.
    for (const auto &[id, state] : jobs_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    s.put_u64(ids.size());
    for (JobId id : ids) {
        const JobState &state = jobs_.at(id);
        s.put_u64(id);
        state.controller.ckpt_save(s);
        s.put_age_histogram(state.control_snapshot);
        s.put_age_histogram(state.telemetry_snapshot);
        ckpt_save_memcg_stats(s, state.sli_snapshot);
        s.put_u64(state.control_promotions);
        state.slo_breaker.ckpt_save(s);
    }
}

bool
NodeAgent::ckpt_load(Deserializer &d)
{
    if (!ckpt_load_slo(d, config_.slo))
        return false;
    config_epoch_ = d.get_u64();
    stats_.restarts = d.get_u64();
    stats_.slo_breaker_trips = d.get_u64();

    jobs_.clear();
    std::size_t num = d.get_size(d.remaining() / 64, 64);
    if (!d.ok())
        return false;
    JobId prev_id = 0;
    for (std::size_t i = 0; i < num; ++i) {
        JobId id = d.get_u64();
        if (!d.ok() || (i > 0 && id <= prev_id))
            return false;
        prev_id = id;
        JobState state{
            ThresholdController(config_.slo, 0, registry_),
            AgeHistogram{}, AgeHistogram{}, MemcgStats{}, 0,
            CircuitBreaker(config_.slo_breaker)};
        if (!state.controller.ckpt_load(d))
            return false;
        d.get_age_histogram(state.control_snapshot);
        d.get_age_histogram(state.telemetry_snapshot);
        if (!ckpt_load_memcg_stats(d, state.sli_snapshot))
            return false;
        state.control_promotions = d.get_u64();
        if (!state.slo_breaker.ckpt_load(d))
            return false;
        jobs_.emplace(id, std::move(state));
    }
    return d.ok();
}

void
NodeAgent::set_slo(const SloConfig &slo)
{
    config_.slo = slo;
    // Controllers keep their observation pools; only the tunables
    // change (staged autotuner deployment, Section 5.3). SLO-breaker
    // streaks do NOT carry over: consecutive breaches accumulated
    // under the old tunables would otherwise trip the breaker on the
    // first breach under the new ones, punishing a config for its
    // predecessor's behaviour.
    // sdfm-lint: allow(unordered-iter) -- every controller receives
    // the same SloConfig and controllers do not interact, so the
    // visit order cannot affect any state.
    for (auto &[id, state] : jobs_) {
        state.controller.set_slo(slo);
        state.slo_breaker.reset_streak();
    }
}

void
NodeAgent::deploy_slo(SimTime now, const SloConfig &slo,
                      std::uint64_t epoch, bool conservative,
                      std::vector<Memcg *> &jobs)
{
    set_slo(slo);
    config_epoch_ = epoch;
    if (!conservative)
        return;
    // Rollback posture: every job re-enters the S-second warmup via
    // the controller's own deployment anchor, mirroring
    // crash_restart() -- but the observation pools survive, so steady
    // state resumes from history once the delay elapses.
    for (Memcg *cg : jobs) {
        auto it = jobs_.find(cg->id());
        if (it == jobs_.end())
            continue;
        it->second.controller.reenter_warmup(now);
        cg->set_reclaim_threshold(0);
        cg->set_zswap_enabled(false);
    }
}

}  // namespace sdfm
