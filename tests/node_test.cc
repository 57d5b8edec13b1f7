/**
 * @file
 * Tests for the control plane: the threshold controller (Section 4.3
 * algorithm), the node agent, and the machine integration including
 * SLO compliance, policies, and OOM eviction.
 */

#include <gtest/gtest.h>

#include "node/machine.h"
#include "node/node_agent.h"
#include "node/threshold_controller.h"
#include "util/rng.h"
#include "workload/job.h"

namespace sdfm {
namespace {

// -------------------------------------------------- threshold controller

TEST(BestThreshold, PicksSmallestMeetingBudget)
{
    AgeHistogram promo;
    promo.add(1, 50);   // 50 would-be promotions at age 1
    promo.add(5, 10);
    promo.add(20, 2);
    // WSS 10000, P = 0.2%/min, 1 minute: budget = 20 promotions.
    // T=1: 62 > 20. T=2: 12 <= 20. -> 2.
    EXPECT_EQ(ThresholdController::best_threshold(promo, 10000, 0.002, 1.0),
              2);
}

TEST(BestThreshold, EmptyHistogramGivesMinimum)
{
    AgeHistogram promo;
    EXPECT_EQ(ThresholdController::best_threshold(promo, 1000, 0.002, 1.0),
              1);
}

TEST(BestThreshold, AllBucketsViolatedGivesMax)
{
    AgeHistogram promo;
    promo.add(255, 1000);
    EXPECT_EQ(ThresholdController::best_threshold(promo, 10, 0.002, 1.0),
              255);
}

TEST(BestThreshold, BudgetScalesWithPeriod)
{
    AgeHistogram promo;
    promo.add(1, 15);
    // Budget over 1 min = 10 -> threshold 2; over 2 min = 20 -> 1.
    EXPECT_EQ(ThresholdController::best_threshold(promo, 5000, 0.002, 1.0),
              2);
    EXPECT_EQ(ThresholdController::best_threshold(promo, 5000, 0.002, 2.0),
              1);
}

TEST(BestThreshold, PaperWorkedExample)
{
    // Section 4.3: pages A (idle 5 min) and B (idle 10 min) accessed
    // again 1 minute ago. T = 8 min sees 1 promo/min, T = 2 min sees
    // 2 promos/min.
    AgeHistogram promo;
    promo.add(age_to_bucket(5 * 60), 1);   // A
    promo.add(age_to_bucket(10 * 60), 1);  // B
    EXPECT_EQ(promo.count_at_least(age_to_bucket(8 * 60)), 1u);
    EXPECT_EQ(promo.count_at_least(age_to_bucket(2 * 60)), 2u);
}

/**
 * The dense search best_threshold() replaced: walk every threshold
 * from 255 down, accumulating count_at_least, and stop at the first
 * one over budget.
 */
AgeBucket
dense_best_threshold(const AgeHistogram &promo, std::uint64_t wss_pages,
                     double target_rate, double period_minutes)
{
    double budget =
        target_rate * static_cast<double>(wss_pages) * period_minutes;
    std::uint64_t at_least = 0;
    AgeBucket smallest = 255;
    for (std::size_t t = kAgeBuckets - 1; t >= 1; --t) {
        at_least += promo.at(static_cast<AgeBucket>(t));
        if (static_cast<double>(at_least) <= budget)
            smallest = static_cast<AgeBucket>(t);
        else
            break;
    }
    return smallest;
}

TEST(BestThreshold, SparseSearchMatchesDenseReference)
{
    auto expect_same = [](const AgeHistogram &promo, std::uint64_t wss,
                          double rate, const char *what) {
        EXPECT_EQ(ThresholdController::best_threshold(
                      SparseAgeHistogram(promo), wss, rate, 1.0),
                  dense_best_threshold(promo, wss, rate, 1.0))
            << what << ", wss " << wss << ", rate " << rate;
    };
    for (std::uint64_t wss : {0ull, 1ull, 1000ull, 100000ull}) {
        for (double rate : {0.0, 0.002, 1.0}) {
            AgeHistogram empty;
            expect_same(empty, wss, rate, "all zero");
            AgeHistogram zero_only;
            zero_only.add(0, 500);
            expect_same(zero_only, wss, rate, "bucket 0 only");
            AgeHistogram top_only;
            top_only.add(255, 3);
            expect_same(top_only, wss, rate, "bucket 255 only");
        }
    }

    // A budget exactly equal to each suffix sum, and one page either
    // side of it (a rate of 1 per minute makes the budget the WSS).
    AgeHistogram promo;
    promo.add(0, 9);
    promo.add(2, 4);
    promo.add(17, 3);
    promo.add(200, 2);
    promo.add(255, 1);
    for (std::uint64_t budget = 0; budget <= 12; ++budget) {
        expect_same(promo, budget, 1.0, "suffix-sum budget");
        // Suffix sums: T in [201, 255] -> 1, [18, 200] -> 3,
        // [3, 17] -> 6, [1, 2] -> 10.
        const AgeBucket want = budget >= 10  ? 1
                               : budget >= 6 ? 3
                               : budget >= 3 ? 18
                               : budget >= 1 ? 201
                                             : 255;
        EXPECT_EQ(ThresholdController::best_threshold(promo, budget, 1.0,
                                                      1.0),
                  want)
            << budget;
    }

    Rng rng(90917);
    for (int round = 0; round < 500; ++round) {
        AgeHistogram h;
        const std::uint64_t bins = rng.next_below(30);
        for (std::uint64_t i = 0; i < bins; ++i) {
            h.add(static_cast<AgeBucket>(rng.next_below(256)),
                  1 + rng.next_below(rng.next_bool(0.5) ? 10 : 5000));
        }
        const std::uint64_t wss = rng.next_below(200000);
        const double rate = 0.0005 * static_cast<double>(rng.next_below(9));
        const double minutes = 1.0 + static_cast<double>(rng.next_below(5));
        ASSERT_EQ(ThresholdController::best_threshold(
                      SparseAgeHistogram(h), wss, rate, minutes),
                  dense_best_threshold(h, wss, rate, minutes))
            << "round " << round;
    }
}

TEST(ThresholdControllerTest, DisabledDuringEnableDelay)
{
    SloConfig slo;
    slo.enable_delay = 300;
    ThresholdController ctrl(slo, /*job_start=*/1000);
    AgeHistogram promo;
    EXPECT_EQ(ctrl.update(1060, promo, 100), 0);
    EXPECT_EQ(ctrl.update(1299, promo, 100), 0);
    EXPECT_NE(ctrl.update(1300, promo, 100), 0);
}

TEST(ThresholdControllerTest, KthPercentileOfPool)
{
    SloConfig slo;
    slo.enable_delay = 0;
    slo.percentile_k = 100.0;  // max of pool
    ThresholdController ctrl(slo, 0);
    // Feed histories whose best thresholds are 1 except one period
    // needing 10.
    AgeHistogram quiet;
    AgeHistogram busy;
    busy.add(9, 1000);  // needs threshold 10 to dodge
    SimTime t = 60;
    for (int i = 0; i < 20; ++i, t += 60)
        ctrl.update(t, quiet, 1000);
    ctrl.update(t, busy, 1000);
    t += 60;
    // With K=100 the busy period dominates from the pool.
    EXPECT_EQ(ctrl.update(t, quiet, 1000), 10);
}

TEST(ThresholdControllerTest, SpikeOverridesPercentile)
{
    SloConfig slo;
    slo.enable_delay = 0;
    slo.percentile_k = 50.0;
    ThresholdController ctrl(slo, 0);
    AgeHistogram quiet;
    SimTime t = 60;
    for (int i = 0; i < 30; ++i, t += 60)
        ctrl.update(t, quiet, 1000);
    // Sudden burst of cold re-access: the last minute's best must be
    // used even though the pool median is 1.
    AgeHistogram burst;
    burst.add(40, 5000);
    EXPECT_EQ(ctrl.update(t, burst, 1000), 41);
}

TEST(ThresholdControllerTest, PoolWindowBounded)
{
    SloConfig slo;
    slo.enable_delay = 0;
    slo.percentile_k = 100.0;
    slo.history_window = 5;
    ThresholdController ctrl(slo, 0);
    AgeHistogram busy;
    busy.add(9, 1000);
    AgeHistogram quiet;
    SimTime t = 60;
    ctrl.update(t, busy, 1000);  // old spike
    t += 60;
    // Five quiet periods push the spike out of the window.
    for (int i = 0; i < 5; ++i, t += 60)
        ctrl.update(t, quiet, 1000);
    EXPECT_EQ(ctrl.current_threshold(), 1);
}

TEST(ThresholdControllerTest, SetSloShrinksPool)
{
    SloConfig slo;
    slo.enable_delay = 0;
    slo.history_window = 100;
    ThresholdController ctrl(slo, 0);
    AgeHistogram quiet;
    SimTime t = 60;
    for (int i = 0; i < 50; ++i, t += 60)
        ctrl.update(t, quiet, 1000);
    SloConfig tighter = slo;
    tighter.history_window = 10;
    ctrl.set_slo(tighter);  // must not blow up; pool trimmed
    EXPECT_NE(ctrl.update(t, quiet, 1000), 0);
}

// ----------------------------------------------------------- node agent

TEST(NodeAgentTest, ProgramsMemcgState)
{
    NodeAgentConfig config;
    config.slo.enable_delay = 0;
    NodeAgent agent(config);
    auto compressor = make_compressor(CompressionMode::kModeled);
    Zswap zswap(compressor.get(), 1);
    Memcg cg(1, 100, 42, ContentMix::typical(), 0);
    agent.register_job(cg);
    std::vector<Memcg *> cgs = {&cg};
    agent.control(60, cgs, 1.0);
    EXPECT_TRUE(cg.zswap_enabled());
    EXPECT_GT(cg.reclaim_threshold(), 0);
    EXPECT_EQ(cg.soft_limit_pages(), cg.wss_pages());
}

TEST(NodeAgentTest, ReactivePolicyDisablesProactiveReclaim)
{
    NodeAgentConfig config;
    config.policy = FarMemoryPolicy::kReactive;
    NodeAgent agent(config);
    Memcg cg(1, 100, 42, ContentMix::typical(), 0);
    agent.register_job(cg);
    std::vector<Memcg *> cgs = {&cg};
    agent.control(600, cgs, 1.0);
    EXPECT_EQ(cg.reclaim_threshold(), 0);
    EXPECT_FALSE(cg.zswap_enabled());
}

TEST(NodeAgentTest, StaticPolicyFixedThreshold)
{
    NodeAgentConfig config;
    config.policy = FarMemoryPolicy::kStatic;
    config.static_threshold = 7;
    config.slo.enable_delay = 120;
    NodeAgent agent(config);
    Memcg cg(1, 100, 42, ContentMix::typical(), 0);
    agent.register_job(cg);
    std::vector<Memcg *> cgs = {&cg};
    agent.control(60, cgs, 1.0);
    EXPECT_EQ(cg.reclaim_threshold(), 0);  // still in delay
    agent.control(180, cgs, 1.0);
    EXPECT_EQ(cg.reclaim_threshold(), 7);
}

TEST(NodeAgentTest, TelemetryExportsDeltas)
{
    NodeAgentConfig config;
    config.slo.enable_delay = 0;
    NodeAgent agent(config);
    Memcg cg(1, 100, 42, ContentMix::typical(), 0);
    agent.register_job(cg);
    std::vector<Memcg *> cgs = {&cg};

    cg.mutable_promo_hist().add(4, 10);
    cg.stats().zswap_promotions = 10;
    TraceLog log;
    agent.export_telemetry(300, cgs, &log);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.entries()[0].promo_delta.at(4), 10u);
    EXPECT_EQ(log.entries()[0].sli.zswap_promotions_delta, 10u);

    // Second window: only the delta shows.
    cg.mutable_promo_hist().add(4, 3);
    cg.stats().zswap_promotions = 13;
    agent.export_telemetry(600, cgs, &log);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.entries()[1].promo_delta.at(4), 3u);
    EXPECT_EQ(log.entries()[1].sli.zswap_promotions_delta, 3u);
}

TEST(NodeAgentTest, NullSinkIsNoop)
{
    NodeAgentConfig config;
    NodeAgent agent(config);
    Memcg cg(1, 100, 42, ContentMix::typical(), 0);
    agent.register_job(cg);
    std::vector<Memcg *> cgs = {&cg};
    agent.export_telemetry(300, cgs, nullptr);  // must not crash
    SUCCEED();
}

TEST(NodeAgentTest, UnregisterStopsTracking)
{
    NodeAgentConfig config;
    NodeAgent agent(config);
    Memcg cg(1, 100, 42, ContentMix::typical(), 0);
    agent.register_job(cg);
    agent.unregister_job(1);
    agent.register_job(cg);  // re-register works after unregister
    SUCCEED();
}

// -------------------------------------------------------------- machine

MachineConfig
small_machine()
{
    MachineConfig config;
    config.dram_pages = 256ull * kMiB / kPageSize;
    config.compression = CompressionMode::kModeled;
    return config;
}

std::unique_ptr<Job>
make_job(JobId id, const char *profile_name, std::uint64_t seed,
         SimTime start = 0)
{
    return std::make_unique<Job>(id, profile_by_name(profile_name), seed,
                                 start);
}

TEST(MachineTest, AddRemoveJobAccounting)
{
    Machine machine(0, small_machine(), 1);
    Job &job = machine.add_job(make_job(1, "web_frontend", 2));
    std::uint32_t pages = job.memcg().num_pages();
    EXPECT_EQ(machine.resident_pages(), pages);
    machine.remove_job(1);
    EXPECT_EQ(machine.resident_pages(), 0u);
    EXPECT_EQ(machine.zswap().pool_bytes(), 0u);
}

TEST(MachineTest, StepProducesColdCoverage)
{
    Machine machine(0, small_machine(), 1);
    machine.add_job(make_job(1, "kv_cache", 3));
    machine.add_job(make_job(2, "logs", 4));
    for (SimTime now = 0; now < 2 * kHour; now += kMinute)
        machine.step(now);
    EXPECT_GT(machine.zswap_stored_pages(), 0u);
    EXPECT_GT(machine.cold_memory_coverage(), 0.05);
    EXPECT_LE(machine.cold_memory_coverage(), 1.0);
}

TEST(MachineTest, PromotionSloHeldAtSteadyState)
{
    Machine machine(0, small_machine(), 1);
    for (JobId id = 1; id <= 4; ++id)
        machine.add_job(make_job(id, id % 2 ? "kv_cache" : "bigtable", id));
    // Warm up for 2 hours.
    SimTime now = 0;
    for (; now < 2 * kHour; now += kMinute)
        machine.step(now);
    // Measure promotions vs WSS for 1 hour.
    std::vector<std::uint64_t> promo_before;
    for (auto &job : machine.jobs())
        promo_before.push_back(job->memcg().stats().zswap_promotions);
    double minutes = 60.0;
    for (; now < 3 * kHour; now += kMinute)
        machine.step(now);
    std::size_t i = 0;
    for (auto &job : machine.jobs()) {
        double promos = static_cast<double>(
            job->memcg().stats().zswap_promotions - promo_before[i]);
        double wss = static_cast<double>(job->memcg().wss_pages());
        if (wss > 0.0) {
            double rate = promos / minutes / wss;
            // The SLO is 0.2%/min at the 98th percentile; individual
            // jobs occasionally burst, so allow 2x headroom here.
            EXPECT_LT(rate, 0.004) << "job " << job->id();
        }
        ++i;
    }
}

TEST(MachineTest, OffPolicyNeverCompresses)
{
    MachineConfig config = small_machine();
    config.policy = FarMemoryPolicy::kOff;
    Machine machine(0, config, 1);
    machine.add_job(make_job(1, "logs", 5));
    for (SimTime now = 0; now < kHour; now += kMinute)
        machine.step(now);
    EXPECT_EQ(machine.zswap_stored_pages(), 0u);
}

TEST(MachineTest, ReactivePolicyIdleUntilPressure)
{
    MachineConfig config = small_machine();
    config.policy = FarMemoryPolicy::kReactive;
    Machine machine(0, config, 1);
    machine.add_job(make_job(1, "logs", 5));  // small wrt DRAM
    for (SimTime now = 0; now < kHour; now += kMinute)
        machine.step(now);
    // Plenty of free memory: reactive zswap does nothing ("memory
    // savings are not materialized until the machines are fully
    // saturated", Section 3.2).
    EXPECT_EQ(machine.zswap_stored_pages(), 0u);
    EXPECT_EQ(machine.counters().direct_reclaims, 0u);
}

TEST(MachineTest, EvictsBestEffortOnOom)
{
    MachineConfig config = small_machine();
    config.dram_pages = 24 * 1024;  // 96 MiB
    config.policy = FarMemoryPolicy::kOff;
    Machine machine(0, config, 1);
    // Fill with one high-priority and several best-effort jobs whose
    // combined footprint exceeds DRAM.
    machine.add_job(make_job(1, "web_frontend", 11));
    std::uint64_t evicted = 0;
    JobId id = 2;
    while (machine.resident_pages() < config.dram_pages + 8192) {
        machine.add_job(make_job(id, "batch_analytics", id * 13));
        ++id;
    }
    MachineStepResult result = machine.step(0);
    evicted += result.evicted.size();
    EXPECT_GT(evicted, 0u);
    EXPECT_LE(machine.used_pages(), config.dram_pages);
    // The high-priority job survived.
    EXPECT_NE(machine.find_job(1), nullptr);
}

TEST(MachineTest, QualificationModeVerifiesEveryPromotion)
{
    MachineConfig config = small_machine();
    config.compression = CompressionMode::kReal;
    config.verify_zswap_roundtrip = true;
    Machine machine(0, config, 1);
    machine.add_job(make_job(1, "logs", 5));
    for (SimTime now = 0; now < kHour; now += kMinute)
        machine.step(now);
    const ZswapStats &stats = machine.zswap().stats();
    EXPECT_GT(stats.promotions, 0u);
    EXPECT_EQ(stats.verified_roundtrips, stats.promotions);
}

TEST(MachineTest, TelemetryFlowsToSink)
{
    Machine machine(0, small_machine(), 1);
    TraceLog log;
    machine.set_trace_sink(&log);
    machine.add_job(make_job(1, "bigtable", 17));
    for (SimTime now = 0; now < kHour; now += kMinute)
        machine.step(now);
    // One entry per job per 5 minutes.
    EXPECT_GE(log.size(), 10u);
    EXPECT_LE(log.size(), 13u);
}

TEST(MachineTest, ScanSpikeRaisesThresholdThenRecovers)
{
    // A job whose pages are deeply cold gets fully captured; a scan
    // event then touches a swath of old pages, and the controller's
    // max(percentile, last best) rule must push the threshold up in
    // the very next control period (Section 4.3's responsiveness
    // requirement).
    MachineConfig config = small_machine();
    Machine machine(0, config, 1);
    JobProfile profile = profile_by_name("logs");
    profile.scan_interval_mean = 0;  // we trigger the spike by hand
    machine.add_job(std::make_unique<Job>(1, profile, 11, 0));
    for (SimTime now = 0; now < 2 * kHour; now += kMinute)
        machine.step(now);
    Job *job = machine.find_job(1);
    ASSERT_NE(job, nullptr);
    AgeBucket before = job->memcg().reclaim_threshold();
    ASSERT_GT(before, 0);

    // Synthetic scan: touch every page (many are old / in zswap).
    for (PageId p = 0; p < job->memcg().num_pages(); ++p)
        job->memcg().touch(p, false, machine.zswap());
    // The very next control period must react (the max(percentile,
    // last best) spike rule) before the pool percentile can pull the
    // threshold back down.
    machine.step(2 * kHour);
    AgeBucket after = job->memcg().reclaim_threshold();
    EXPECT_GT(after, before);
}

TEST(MachineTest, HasCapacityFor)
{
    MachineConfig config = small_machine();
    config.dram_pages = 10000;
    Machine machine(0, config, 1);
    EXPECT_TRUE(machine.has_capacity_for(10000));
    EXPECT_FALSE(machine.has_capacity_for(10001));
}

/**
 * Property test: machine-level accounting invariants hold through
 * randomized configurations and multi-hour runs.
 */
class MachineInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MachineInvariants, HoldUnderRandomConfigs)
{
    Rng rng(GetParam());
    MachineConfig config;
    config.dram_pages = (96 + rng.next_below(160)) * kMiB / kPageSize;
    config.compression = CompressionMode::kModeled;
    config.policy = rng.next_bool(0.5) ? FarMemoryPolicy::kProactive
                                       : FarMemoryPolicy::kStatic;
    config.static_threshold =
        static_cast<AgeBucket>(2 + rng.next_below(30));
    config.slo.percentile_k = 85.0 + rng.next_double() * 15.0;
    config.slo.enable_delay =
        static_cast<SimTime>(rng.next_below(1200));
    config.kstaled.scan_stride =
        static_cast<std::uint32_t>(1 + rng.next_below(4));
    if (rng.next_bool(0.4)) {
        TierConfig nvm;
        nvm.kind = TierKind::kNvm;
        nvm.nvm.capacity_pages = 1024 + rng.next_below(8192);
        nvm.band_lo = 1.0;
        nvm.band_hi = 4.0;
        config.tiers = {nvm};
    }
    Machine machine(0, config, rng.next_u64());

    FleetMix mix = typical_fleet_mix();
    JobId next_id = 1;
    for (int attempts = 0; attempts < 40; ++attempts) {
        JobProfile profile = mix.profiles[mix.sample(rng)];
        if (rng.next_bool(0.3))
            profile.huge_page_frac = rng.next_double() * 0.6;
        auto job = std::make_unique<Job>(next_id, profile,
                                         rng.next_u64(), 0);
        if (machine.has_capacity_for(job->memcg().num_pages())) {
            machine.add_job(std::move(job));
            ++next_id;
        }
    }

    for (SimTime now = 0; now < 90 * kMinute; now += kMinute) {
        machine.step(now);
        // Accounting invariants.
        ASSERT_LE(machine.used_pages(), config.dram_pages);
        std::uint64_t job_zswap = 0, job_nvm = 0, job_resident = 0;
        for (const auto &job : machine.jobs()) {
            const Memcg &cg = job->memcg();
            job_zswap += cg.zswap_pages();
            job_nvm += cg.tier_pages();
            job_resident += cg.resident_pages();
            ASSERT_EQ(cg.zswap_pages() + cg.tier_pages() +
                          cg.resident_pages(),
                      cg.num_pages());
        }
        ASSERT_EQ(job_zswap, machine.zswap_stored_pages());
        ASSERT_EQ(job_nvm, machine.tier_stored_pages());
        ASSERT_EQ(job_resident, machine.resident_pages());
        // The arena never claims more stored than pool bytes.
        ASSERT_GE(machine.zswap().pool_bytes(),
                  machine.zswap().arena().stored_bytes());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineInvariants,
                         ::testing::Values(101, 102, 103, 104, 105));

}  // namespace
}  // namespace sdfm
