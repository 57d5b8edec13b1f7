/**
 * @file
 * Tests for the staged canary rollout of autotuner configs
 * (autotune/rollout.h): the happy-path stage walk, guardrail-breach
 * rollback (with warmup re-entry on the rollback deployment), all
 * three config-push fault kinds (loss with bounded retry / stage
 * abort, stall with a frozen stage window, split brain with epoch
 * audit reconciliation), mid-rollout checkpoint/restore digest
 * continuation, and corrupt rollout-section rejection sparing the
 * live fleet.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "autotune/rollout.h"
#include "ckpt/checkpoint.h"
#include "core/far_memory_system.h"
#include "mem/memcg.h"
#include "node/machine.h"
#include "node/node_agent.h"
#include "workload/job_profile.h"

namespace sdfm {
namespace {

// ---------------------------------------------------------------------
// Unit-level harness: bare machines (never stepped) whose guardrail
// counters the tests drive directly through the metric registry.
// ---------------------------------------------------------------------

struct RolloutHarness
{
    static constexpr std::uint32_t kMachinesPerCluster = 4;

    std::vector<std::unique_ptr<Machine>> cluster0;
    std::vector<std::unique_ptr<Machine>> cluster1;
    ConfigRollout::MachineView view;

    RolloutHarness()
    {
        MachineConfig config;
        config.dram_pages = 4 * 1024;
        for (std::uint32_t m = 0; m < kMachinesPerCluster; ++m) {
            cluster0.push_back(
                std::make_unique<Machine>(m, config, 100 + m));
            cluster1.push_back(
                std::make_unique<Machine>(m, config, 200 + m));
        }
        view = {&cluster0, &cluster1};
    }

    /** Machines currently on @p epoch, as (cluster, machine) pairs. */
    std::vector<std::pair<std::size_t, std::size_t>>
    machines_on_epoch(std::uint64_t epoch) const
    {
        std::vector<std::pair<std::size_t, std::size_t>> hits;
        for (std::size_t c = 0; c < view.size(); ++c) {
            for (std::size_t m = 0; m < view[c]->size(); ++m) {
                if ((*view[c])[m]->agent().config_epoch() == epoch)
                    hits.emplace_back(c, m);
            }
        }
        return hits;
    }
};

RolloutParams
small_rollout_params()
{
    RolloutParams params;
    params.enabled = true;
    params.seed = 7;
    params.stage_fractions = {0.25, 1.0};  // 2-machine canary, then all
    params.baseline_periods = 2;
    params.observe_periods = 3;
    params.guardrails.counter_grace = 0;  // any breach event rolls back
    params.guardrails.counter_slack = 1.0;
    return params;
}

SloConfig
candidate_config()
{
    SloConfig slo;
    slo.percentile_k = 95.0;  // distinguishable from the default 98
    return slo;
}

/** Drive @p rollout for @p steps one-minute periods starting at
 *  @p now; returns the time after the last step. */
SimTime
run_steps(ConfigRollout &rollout, const ConfigRollout::MachineView &view,
          SimTime now, int steps)
{
    for (int i = 0; i < steps; ++i, now += kMinute)
        rollout.step(now, kMinute, view);
    return now;
}

TEST(ConfigRolloutTest, HappyPathWalksEveryStageToDeployed)
{
    RolloutHarness h;
    ConfigRollout rollout(small_rollout_params(), SloConfig{}, 1,
                          {4, 4});
    EXPECT_EQ(rollout.state(), RolloutState::kIdle);

    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));
    EXPECT_EQ(rollout.state(), RolloutState::kProposed);
    // A second proposal while one is in flight is refused.
    EXPECT_FALSE(rollout.propose(0, candidate_config(), h.view));

    // Two baseline periods, then the canary stage begins.
    SimTime now = run_steps(rollout, h.view, 0, 2);
    EXPECT_EQ(rollout.state(), RolloutState::kCanary);
    EXPECT_EQ(rollout.stats().pushes_delivered, 0u);

    // Delivery period: exactly the canary cohort (one machine per
    // cluster at 0.25 of four) switches to epoch 1.
    now = run_steps(rollout, h.view, now, 1);
    EXPECT_EQ(rollout.stats().pushes_delivered, 2u);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 2u);
    rollout.check_invariants(h.view);

    // Three clean observation periods, then the final stage expands.
    now = run_steps(rollout, h.view, now, 3);
    EXPECT_EQ(rollout.state(), RolloutState::kExpanding);
    now = run_steps(rollout, h.view, now, 1);
    EXPECT_EQ(rollout.stats().pushes_delivered, 8u);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 8u);

    // Final observation window, then the candidate is the config.
    now = run_steps(rollout, h.view, now, 3);
    EXPECT_EQ(rollout.state(), RolloutState::kDeployed);
    EXPECT_EQ(rollout.stats().deployments, 1u);
    EXPECT_EQ(rollout.stats().rollbacks, 0u);
    EXPECT_EQ(rollout.current_config().percentile_k, 95.0);
    // Every machine runs the candidate tunables.
    for (std::size_t c = 0; c < h.view.size(); ++c) {
        for (const auto &m : *h.view[c]) {
            EXPECT_EQ(m->agent().config().slo.percentile_k, 95.0);
        }
    }
    rollout.check_invariants(h.view);

    // The terminal state accepts the next campaign.
    EXPECT_TRUE(rollout.propose(now, SloConfig{}, h.view));
}

TEST(ConfigRolloutTest, GuardrailBreachRollsBackOnlyTheCohort)
{
    RolloutHarness h;
    ConfigRollout rollout(small_rollout_params(), SloConfig{}, 1,
                          {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));

    // Baseline, then canary delivery, then the window opens.
    SimTime now = run_steps(rollout, h.view, 0, 3);
    ASSERT_EQ(rollout.state(), RolloutState::kCanary);
    auto canaries = h.machines_on_epoch(1);
    ASSERT_EQ(canaries.size(), 2u);

    // An SLO-breaker trip on a canary machine during the observation
    // window: with zero grace and a zero baseline rate, one event is
    // a breach.
    auto [c, m] = canaries.front();
    (*h.view[c])[m]->metrics().counter("agent.slo_breaker_trips").inc();
    now = run_steps(rollout, h.view, now, 1);
    EXPECT_EQ(rollout.state(), RolloutState::kRollingBack);
    EXPECT_EQ(rollout.stats().guardrail_breaches, 1u);

    // Rollback delivery, then one clean audit pass completes it.
    now = run_steps(rollout, h.view, now, 2);
    EXPECT_EQ(rollout.state(), RolloutState::kRolledBack);
    EXPECT_EQ(rollout.stats().rollbacks, 1u);
    // The committed config is still the original.
    EXPECT_EQ(rollout.current_config().percentile_k, 98.0);
    // Only the canary cohort was ever touched: it now runs the
    // rollback epoch (2) with the old tunables; everyone else never
    // left epoch 0.
    EXPECT_EQ(h.machines_on_epoch(2).size(), 2u);
    EXPECT_EQ(h.machines_on_epoch(0).size(), 6u);
    for (auto [rc, rm] : h.machines_on_epoch(2)) {
        EXPECT_EQ((*h.view[rc])[rm]->agent().config().slo.percentile_k,
                  98.0);
    }
    rollout.check_invariants(h.view);
}

TEST(ConfigRolloutTest, RollbackDeploymentReentersWarmup)
{
    // The conservative rollback posture at the agent level: zswap
    // off, threshold zero, and the S-second enablement delay anchored
    // at the deployment -- not at job start.
    NodeAgentConfig config;
    config.policy = FarMemoryPolicy::kStatic;
    config.static_threshold = 4;
    config.slo.enable_delay = 300;
    NodeAgent agent(config);

    Memcg cg(1, 1000, 42, ContentMix::typical(), 0);
    cg.mutable_cold_hist().add(0, 1000);
    agent.register_job(cg);
    std::vector<Memcg *> jobs = {&cg};

    // Past the initial warmup the static policy reclaims.
    agent.control(300, jobs, 1.0);
    ASSERT_EQ(cg.reclaim_threshold(), 4);
    ASSERT_TRUE(cg.zswap_enabled());

    // Conservative deployment (the rollback path): reclaim stops
    // immediately...
    agent.deploy_slo(300, config.slo, /*epoch=*/2,
                     /*conservative=*/true, jobs);
    EXPECT_EQ(cg.reclaim_threshold(), 0);
    EXPECT_FALSE(cg.zswap_enabled());
    EXPECT_EQ(agent.config_epoch(), 2u);

    // ... and stays off for a full S seconds from the deployment.
    agent.control(360, jobs, 1.0);
    EXPECT_EQ(cg.reclaim_threshold(), 0);
    agent.control(599, jobs, 1.0);
    EXPECT_EQ(cg.reclaim_threshold(), 0);
    agent.control(600, jobs, 1.0);
    EXPECT_EQ(cg.reclaim_threshold(), 4);
    EXPECT_TRUE(cg.zswap_enabled());
}

TEST(ConfigRolloutTest, PushLossRetriesWithBackoffThenDelivers)
{
    RolloutParams params = small_rollout_params();
    params.fault.enabled = true;
    // One delivery lost in the canary push period (time 120 is the
    // third step: two baseline periods precede it).
    params.fault.schedule.push_back(
        {120, {FaultKind::kConfigPushLoss, 1, 0}});

    RolloutHarness h;
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));

    SimTime now = run_steps(rollout, h.view, 0, 3);
    EXPECT_EQ(rollout.stats().pushes_lost, 1u);
    EXPECT_EQ(rollout.stats().pushes_delivered, 1u);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 1u);

    // The retry (backoff of one period) lands the second canary; the
    // campaign then proceeds to full deployment.
    now = run_steps(rollout, h.view, now, 1);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 2u);
    run_steps(rollout, h.view, now, 10);
    EXPECT_EQ(rollout.state(), RolloutState::kDeployed);
    EXPECT_EQ(rollout.stats().pushes_aborted, 0u);
    EXPECT_EQ(rollout.stats().pushes_delivered, 8u);
}

TEST(ConfigRolloutTest, PushRetryExhaustionAbortsStageAndRollsBack)
{
    RolloutParams params = small_rollout_params();
    params.max_push_retries = 0;  // the first loss aborts the push
    params.fault.enabled = true;
    params.fault.schedule.push_back(
        {120, {FaultKind::kConfigPushLoss, 1, 0}});

    RolloutHarness h;
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));

    // Canary delivery period: the first push is lost and aborted
    // (retry budget zero), which cancels the campaign; the second
    // canary had already switched and must be rolled back.
    SimTime now = run_steps(rollout, h.view, 0, 3);
    EXPECT_EQ(rollout.state(), RolloutState::kRollingBack);
    EXPECT_EQ(rollout.stats().pushes_aborted, 1u);

    run_steps(rollout, h.view, now, 3);
    EXPECT_EQ(rollout.state(), RolloutState::kRolledBack);
    EXPECT_EQ(rollout.stats().rollbacks, 1u);
    // One machine on the rollback epoch, seven never touched.
    EXPECT_EQ(h.machines_on_epoch(2).size(), 1u);
    EXPECT_EQ(h.machines_on_epoch(0).size(), 7u);
    EXPECT_EQ(rollout.current_config().percentile_k, 98.0);
}

TEST(ConfigRolloutTest, PushStallFreezesTheStageWindow)
{
    RolloutParams params = small_rollout_params();
    params.fault.enabled = true;
    // A stall landing on the canary delivery period, covering it and
    // the next two periods.
    params.fault.schedule.push_back(
        {120, {FaultKind::kConfigPushStall, 1, 2 * kMinute}});

    RolloutHarness h;
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));

    // Three frozen periods: no deliveries, no window progress.
    SimTime now = run_steps(rollout, h.view, 0, 5);
    EXPECT_EQ(rollout.stats().stall_periods, 3u);
    EXPECT_EQ(rollout.stats().pushes_delivered, 0u);
    EXPECT_EQ(rollout.state(), RolloutState::kCanary);

    // The push plane recovers and the campaign completes normally.
    run_steps(rollout, h.view, now, 12);
    EXPECT_EQ(rollout.state(), RolloutState::kDeployed);
    EXPECT_EQ(rollout.stats().pushes_delivered, 8u);
}

TEST(ConfigRolloutTest, SplitBrainIsAuditedAndReconciled)
{
    RolloutParams params = small_rollout_params();
    params.fault.enabled = true;
    params.fault.schedule.push_back(
        {120, {FaultKind::kConfigSplitBrain, 1, 0}});

    RolloutHarness h;
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));

    // Canary delivery period: one push is acknowledged but never
    // applied -- the rollout believes two machines switched, but only
    // one did.
    SimTime now = run_steps(rollout, h.view, 0, 3);
    EXPECT_EQ(rollout.stats().pushes_delivered, 1u);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 1u);
    EXPECT_EQ(rollout.stats().split_brains, 0u);

    // The next period's config-epoch audit detects the divergence and
    // the reconcile redelivery lands the same period.
    now = run_steps(rollout, h.view, now, 1);
    EXPECT_EQ(rollout.stats().split_brains, 1u);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 2u);

    run_steps(rollout, h.view, now, 11);
    EXPECT_EQ(rollout.state(), RolloutState::kDeployed);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 8u);
    rollout.check_invariants(h.view);
}

TEST(ConfigRolloutTest, LostSplitBrainRedeliveryClosesTheWindow)
{
    RolloutParams params = small_rollout_params();
    params.fault.enabled = true;
    // The canary delivery period leaves one machine split-brained;
    // the audit's reconcile redelivery next period is itself lost.
    params.fault.schedule.push_back(
        {120, {FaultKind::kConfigSplitBrain, 1, 0}});
    params.fault.schedule.push_back(
        {180, {FaultKind::kConfigPushLoss, 1, 0}});

    RolloutHarness h;
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));

    // Baseline, then the canary delivery (one split brain), and the
    // observation window opens over the two believed-switched
    // machines.
    SimTime now = run_steps(rollout, h.view, 0, 3);
    ASSERT_EQ(rollout.state(), RolloutState::kCanary);

    // The audit enqueues the reconcile redelivery and the redelivery
    // is lost: the window must close (its counters covered a machine
    // on the wrong config) rather than stay open around the in-flight
    // retry -- the state that used to trip 'no in-flight pushes
    // inside an open window'.
    now = run_steps(rollout, h.view, now, 1);
    EXPECT_EQ(rollout.stats().split_brains, 1u);
    EXPECT_EQ(rollout.stats().pushes_lost, 1u);
    rollout.check_invariants(h.view);

    // A kill here must be recoverable: the mid-backoff state
    // checkpoints, restores, and resolves to the same digest.
    Serializer s;
    rollout.ckpt_save(s);
    Deserializer d(s.bytes());
    ConfigRollout restored(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(restored.ckpt_load(d));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(restored.ckpt_resolve(h.view));
    EXPECT_EQ(restored.state_digest(h.view),
              rollout.state_digest(h.view));

    // The retried redelivery lands and the campaign completes.
    run_steps(rollout, h.view, now, 14);
    EXPECT_EQ(rollout.state(), RolloutState::kDeployed);
    EXPECT_EQ(h.machines_on_epoch(1).size(), 8u);
    rollout.check_invariants(h.view);
}

TEST(ConfigRolloutTest, StalledBaselineDoesNotInflateGuardrailRates)
{
    RolloutParams params = small_rollout_params();
    params.fault.enabled = true;
    // Two stall periods inside the baseline window: machine counters
    // keep accumulating while baseline_elapsed_ is frozen.
    params.fault.schedule.push_back(
        {60, {FaultKind::kConfigPushStall, 1, kMinute}});

    RolloutHarness h;
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));

    // One baseline period, two stall periods, one baseline period:
    // the baseline counters span four real periods. One eviction per
    // machine over that span is a true 0.25 events/machine-period.
    SimTime now = run_steps(rollout, h.view, 0, 3);
    ASSERT_EQ(rollout.stats().stall_periods, 2u);
    for (auto *cluster : h.view)
        for (const auto &m : *cluster)
            m->metrics().counter("machine.evictions").inc();
    now = run_steps(rollout, h.view, now, 1);
    ASSERT_EQ(rollout.state(), RolloutState::kCanary);

    // Canary delivery; the window opens over the two canaries.
    now = run_steps(rollout, h.view, now, 1);
    auto canaries = h.machines_on_epoch(1);
    ASSERT_EQ(canaries.size(), 2u);

    // One eviction on a canary in the first observed period. Against
    // the true baseline the allowance is 0.25 x 2 machine-periods =
    // 0.5, a breach; a stall-inflated baseline (deltas divided by the
    // two counted periods only) would have let it slip through.
    auto [c, m] = canaries.front();
    (*h.view[c])[m]->metrics().counter("machine.evictions").inc();
    run_steps(rollout, h.view, now, 1);
    EXPECT_EQ(rollout.state(), RolloutState::kRollingBack);
    EXPECT_EQ(rollout.stats().guardrail_breaches, 1u);
}

TEST(ConfigRolloutTest, CkptRoundTripPreservesStateAndDigest)
{
    RolloutHarness h;
    RolloutParams params = small_rollout_params();
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));
    run_steps(rollout, h.view, 0, 4);  // mid-campaign: canary window

    Serializer s;
    rollout.ckpt_save(s);
    Deserializer d(s.bytes());
    ConfigRollout restored(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(restored.ckpt_load(d));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.at_end());
    ASSERT_TRUE(restored.ckpt_resolve(h.view));
    EXPECT_EQ(restored.state(), rollout.state());
    EXPECT_EQ(restored.state_digest(h.view),
              rollout.state_digest(h.view));
}

TEST(ConfigRolloutTest, CkptLoadRejectsCorruptPayloads)
{
    RolloutHarness h;
    RolloutParams params = small_rollout_params();
    ConfigRollout rollout(params, SloConfig{}, 1, {4, 4});
    ASSERT_TRUE(rollout.propose(0, candidate_config(), h.view));
    run_steps(rollout, h.view, 0, 4);

    Serializer s;
    rollout.ckpt_save(s);

    {  // out-of-range state enum
        std::vector<std::uint8_t> bytes = s.bytes();
        bytes[0] = 99;
        Deserializer d(bytes);
        ConfigRollout victim(params, SloConfig{}, 1, {4, 4});
        EXPECT_FALSE(victim.ckpt_load(d));
    }
    {  // truncated payload
        std::vector<std::uint8_t> bytes = s.bytes();
        bytes.resize(bytes.size() / 2);
        Deserializer d(bytes);
        ConfigRollout victim(params, SloConfig{}, 1, {4, 4});
        EXPECT_FALSE(victim.ckpt_load(d) && d.ok() && d.at_end());
    }
    {  // topology mismatch: restored into a smaller fleet
        Deserializer d(s.bytes());
        ConfigRollout victim(params, SloConfig{}, 1, {2, 2});
        EXPECT_FALSE(victim.ckpt_load(d));
    }
    {   // parseable but incoherent: the saved campaign has an open
        // observation window (4 steps in), and flipping the state
        // byte to a terminal kDeployed yields a state machine the
        // runtime can never produce -- release builds must reject it
        // too, not just SDFM_CHECK_INVARIANTS ones.
        std::vector<std::uint8_t> bytes = s.bytes();
        bytes[0] = static_cast<std::uint8_t>(RolloutState::kDeployed);
        Deserializer d(bytes);
        ConfigRollout victim(params, SloConfig{}, 1, {4, 4});
        EXPECT_FALSE(victim.ckpt_load(d));
    }
}

// ---------------------------------------------------------------------
// Fleet-level integration: the rollout riding FarMemorySystem's step,
// digest, telemetry, and checkpoint planes.
// ---------------------------------------------------------------------

FleetConfig
rollout_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 33;
    config.serial_step = true;
    config.cluster.num_machines = 4;
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.machine.slo_breaker_enabled = true;
    config.cluster.mix = typical_fleet_mix();
    config.rollout.enabled = true;
    config.rollout.seed = 11;
    config.rollout.stage_fractions = {0.25, 1.0};
    config.rollout.baseline_periods = 3;
    config.rollout.observe_periods = 4;
    // Exercise the push fault plane across the checkpoint boundary.
    config.rollout.fault.enabled = true;
    config.rollout.fault.config_push_loss_prob = 0.2;
    config.rollout.fault.config_split_brain_prob = 0.2;
    return config;
}

/** Read a whole file into bytes. */
std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

/** RAII temp checkpoint path (removed on scope exit). */
struct TempCkpt
{
    explicit TempCkpt(const char *name) : path(name) {}
    ~TempCkpt() { std::remove(path.c_str()); }
    std::string path;
};

TEST(RolloutFleetTest, MidRolloutCheckpointContinuesTheDigestTrajectory)
{
    TempCkpt ckpt("rollout_ckpt_traj.ckpt");
    FleetConfig config = rollout_fleet_config();

    FarMemorySystem reference(config);
    reference.populate();
    for (int i = 0; i < 4; ++i)
        reference.step();
    ASSERT_TRUE(reference.propose_slo(candidate_config()));
    // Into the canary stage (baseline + delivery + some observation).
    for (int i = 0; i < 6; ++i)
        reference.step();
    ASSERT_NE(reference.rollout()->state(), RolloutState::kIdle);
    ASSERT_EQ(reference.checkpoint(ckpt.path), CkptStatus::kOk);

    FarMemorySystem resumed(config);
    ASSERT_EQ(resumed.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(resumed.state_digest(), reference.state_digest());
    EXPECT_EQ(resumed.rollout()->state(), reference.rollout()->state());

    // The interrupted and uninterrupted runs walk the identical
    // trajectory through the rest of the campaign.
    for (int i = 0; i < 20; ++i) {
        reference.step();
        resumed.step();
        ASSERT_EQ(resumed.state_digest(), reference.state_digest())
            << "diverged " << i << " steps after restore";
    }
    EXPECT_EQ(resumed.rollout()->state(), reference.rollout()->state());
}

TEST(RolloutFleetTest, CorruptRolloutSectionSparesTheLiveFleet)
{
    TempCkpt good("rollout_ckpt_good.ckpt");
    TempCkpt bad("rollout_ckpt_bad.ckpt");
    FleetConfig config = rollout_fleet_config();

    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 4; ++i)
        fleet.step();
    ASSERT_TRUE(fleet.propose_slo(candidate_config()));
    for (int i = 0; i < 6; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);

    // Rebuild the container with a garbage rollout section (the CRC
    // is recomputed, so rejection must come from payload validation,
    // not the checksum).
    {
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        CkptWriter writer;
        for (const CkptSection &section : reader.sections()) {
            if (section.name == "rollout")
                writer.add_section(section.name, {0xDE, 0xAD, 0xBE});
            else
                writer.add_section(
                    section.name,
                    {section.payload.begin(), section.payload.end()});
        }
        ASSERT_EQ(writer.write_file(bad.path), CkptStatus::kOk);
    }
    std::uint64_t before = fleet.state_digest();
    EXPECT_EQ(fleet.restore(bad.path), CkptStatus::kCorruptPayload);
    EXPECT_EQ(fleet.state_digest(), before);

    // A missing rollout section is equally fatal...
    {
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        CkptWriter writer;
        for (const CkptSection &section : reader.sections()) {
            if (section.name != "rollout")
                writer.add_section(
                    section.name,
                    {section.payload.begin(), section.payload.end()});
        }
        ASSERT_EQ(writer.write_file(bad.path), CkptStatus::kOk);
    }
    EXPECT_EQ(fleet.restore(bad.path), CkptStatus::kCorruptPayload);
    EXPECT_EQ(fleet.state_digest(), before);

    // ... and a flipped byte anywhere in the file still trips the
    // section CRC.
    {
        std::vector<std::uint8_t> bytes = slurp(good.path);
        bytes[bytes.size() - 9] ^= 0x40;
        std::ofstream out(bad.path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_NE(fleet.restore(bad.path), CkptStatus::kOk);
    EXPECT_EQ(fleet.state_digest(), before);

    // The intact checkpoint still restores.
    EXPECT_EQ(fleet.restore(good.path), CkptStatus::kOk);
}

TEST(RolloutFleetTest, DisabledRolloutLeavesTrajectoriesUntouched)
{
    // A fleet with the rollout plane disabled must be bit-identical
    // to one that predates it: same digests, no rollout.* metrics.
    FleetConfig config = rollout_fleet_config();
    config.rollout.enabled = false;
    FarMemorySystem fleet(config);
    fleet.populate();
    EXPECT_EQ(fleet.rollout(), nullptr);
    EXPECT_FALSE(fleet.propose_slo(candidate_config()));
    for (int i = 0; i < 5; ++i)
        fleet.step();
    MetricsSnapshot snap = fleet.fleet_telemetry();
    EXPECT_EQ(snap.counters.find("rollout.pushes_delivered"),
              snap.counters.end());
    FleetFaultReport report = fleet.fault_report();
    EXPECT_EQ(report.rollout_pushes_delivered, 0u);
    EXPECT_EQ(report.rollout_rollbacks, 0u);
}

}  // namespace
}  // namespace sdfm
