// Fleet benchmark binary: builds one workload's fleet through the
// public FarMemorySystem API, times every call it makes into the
// library from outside, checks the outputs, and prints one JSON
// object of raw measurements on stdout. fleetbench/run.py turns that
// object into the benchmark's metrics.
//
// Usage: fleetbench --workload cold_fleet|diurnal_zswap|tiered_faults
//                   --seed N --seconds S [--trace 0|1]
//                   [--scale full|tiny] [--ckpt FILE] [--spans FILE]
//
// Run structure (identical with and without --trace):
//   1. set-up: construct + populate the fleet, repeated;
//   2. fixed phase: a seeded, fixed number of steps from populate,
//      through the demotion ramp into steady state; the simulated
//      metrics and the state digest are taken at its end, so they
//      repeat exactly for a given seed;
//   3. checkpoint the fleet and restore it into a fresh fleet
//      (repeated), checking the restored digest;
//   4. the offline pipeline: steady-state traces, tiled, through the
//      GP-Bandit autotuner;
//   5. open phase: the restored fleet keeps stepping until the timed
//      step horizon reaches --seconds.
// With --trace 1 every call is wrapped in a span, the telemetry
// rollup is sampled after every step, and the spans are written to
// --spans at exit.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autotune/autotuner.h"
#include "core/far_memory_system.h"
#include "core/reports.h"
#include "util/thread_pool.h"

using namespace sdfm;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Spans

struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
};

/**
 * In-memory span recorder. Disabled, begin()/end() only read the
 * clock for the caller's own timing; enabled, they also keep a span
 * with its parent (the innermost open span).
 */
class Tracer
{
  public:
    Tracer(bool enabled, std::string run_id)
        : enabled_(enabled), run_id_(std::move(run_id)),
          origin_(Clock::now())
    {
    }

    std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    int begin(const char *name)
    {
        if (!enabled_)
            return -1;
        Span span;
        span.name = name;
        span.parent = open_.empty() ? -1 : open_.back();
        span.start_ns = now_ns();
        spans_.push_back(span);
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void end(int id)
    {
        if (!enabled_ || id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        open_.pop_back();
    }

    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"run_id\": \"" << run_id_ << "\", \"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i == 0 ? "" : ",") << "\n[\"" << s.name << "\", "
                << s.start_ns << ", " << s.end_ns << ", " << s.parent
                << "]";
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    std::string run_id_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Times one call into a layer; records a span when tracing. */
class Timed
{
  public:
    Timed(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.begin(name)), start_(Clock::now())
    {
    }
    ~Timed() { stop(); }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** Ends the span; returns the elapsed seconds. */
    double stop()
    {
        if (!stopped_) {
            seconds_ = std::chrono::duration<double>(Clock::now() - start_)
                           .count();
            tracer_.end(id_);
            stopped_ = true;
        }
        return seconds_;
    }

  private:
    Tracer &tracer_;
    int id_;
    Clock::time_point start_;
    bool stopped_ = false;
    double seconds_ = 0.0;
};

// ---------------------------------------------------------------------
// Workloads

/** Leading trace windows of each job left out of its promotion rate
 *  (a fresh job's controller is still warming up), as the promotion
 *  CDF figure does. */
constexpr std::size_t kSkipLeadingWindows = 6;

/** The autotuner searches with a fixed seed and trial budget, so its
 *  pick changes only when the traces do. */
constexpr std::uint64_t kTunerSeed = 42;
constexpr std::size_t kTunerTrials = 24;

struct Workload
{
    FleetConfig config;
    std::uint32_t fixed_steps = 0;     ///< deterministic phase length
    std::uint32_t steady_after = 0;    ///< trace windows before this
                                       ///< step are warm-up
    std::size_t tune_jobs = 2000;      ///< job traces the tuner sees
    /** The autotuner must find a feasible configuration (full scale:
     *  a tiny fleet's few trace windows meet no SLO). */
    bool require_feasible_pick = false;
};

/** The bench/fleet_scale cold-majority mix: ~97% frozen pages. */
FleetMix
warehouse_cold_mix()
{
    JobProfile p;
    p.name = "fleet-scale-resident";
    p.min_pages = 8192;
    p.max_pages = 16384;
    p.hot_frac = 0.001;
    p.warm_frac = 0.004;
    p.diurnal_frac = 0.0;
    p.cold_frac = 0.025;
    p.hot_gap_mean = 120.0;
    p.warm_median_gap = 300.0;
    p.cold_scale = 7200.0;
    p.frozen_reaccess_prob = 0.002;
    p.write_frac = 0.05;
    FleetMix mix;
    mix.profiles.push_back(p);
    mix.weights.push_back(1.0);
    return mix;
}

/** typical_fleet_mix() with every job footprint divided by
 *  @p divisor: the same archetypes and access shapes, with more jobs
 *  per machine. */
FleetMix
scaled_typical_mix(std::uint64_t divisor)
{
    FleetMix mix = typical_fleet_mix();
    for (JobProfile &p : mix.profiles) {
        p.min_pages = std::max<std::uint64_t>(1, p.min_pages / divisor);
        p.max_pages = std::max<std::uint64_t>(p.min_pages,
                                              p.max_pages / divisor);
    }
    return mix;
}

FleetConfig
base_fleet(std::uint32_t clusters, std::uint32_t machines,
           std::uint64_t dram_mib, std::uint64_t seed)
{
    FleetConfig config;
    config.num_clusters = clusters;
    config.seed = seed;
    config.cluster.num_machines = machines;
    config.cluster.machine.dram_pages = dram_mib * kMiB / kPageSize;
    config.cluster.machine.policy = FarMemoryPolicy::kProactive;
    config.cluster.machine.compression = CompressionMode::kModeled;
    config.cluster.target_utilization = 0.78;
    config.cluster.churn_per_hour = 0.12;
    // Every cluster runs the same archetype weights, so a seed
    // changes which jobs are drawn but not the fleet's composition.
    config.mix_weight_jitter = 0.0;
    return config;
}

bool
make_workload(const std::string &name, bool tiny, std::uint64_t seed,
              Workload &w)
{
    if (name == "cold_fleet") {
        w.config = base_fleet(4, tiny ? 2 : 32, 256, seed);
        w.config.cluster.mix = warehouse_cold_mix();
        w.fixed_steps = tiny ? 72 : 150;
        w.steady_after = tiny ? 0 : 40;
    } else if (name == "diurnal_zswap" || name == "tiered_faults") {
        // tiered_faults has no compression ramp, so its step-time tail
        // is whatever the host adds to a step; 64 machines make its
        // steps long enough that a scheduling hiccup moves it little.
        std::uint32_t machines = name == "diurnal_zswap" ? 5 : 8;
        w.config = base_fleet(tiny ? 2 : 8, tiny ? 2 : machines, 128, seed);
        // Eighth-size jobs: hundreds of them instead of ~95, so the
        // coverage and p50s a seed yields move a few percent, not tens.
        w.config.cluster.mix = scaled_typical_mix(8);
        w.fixed_steps = tiny ? 72 : 180;
        w.steady_after = tiny ? 0 : 60;
        MachineConfig &m = w.config.cluster.machine;
        if (name == "diurnal_zswap") {
            w.require_feasible_pick = !tiny;
            m.compression = CompressionMode::kReal;
            m.verify_zswap_roundtrip = true;
        } else {
            TierConfig nvm;
            nvm.kind = TierKind::kNvm;
            nvm.nvm.capacity_pages = 4096;
            nvm.band_lo = 1.0;
            nvm.band_hi = 1.5;
            nvm.breaker_enabled = true;
            TierConfig remote;
            remote.kind = TierKind::kRemote;
            remote.band_lo = 1.5;
            remote.band_hi = 0.0;
            remote.breaker_enabled = true;
            m.tiers = {nvm, remote};
            m.slo_breaker_enabled = true;
            FaultConfig &fault = m.fault;
            fault.enabled = true;
            fault.donor_failure_prob = 0.005;
            fault.zswap_corruption_prob = 0.02;
            fault.remote_degrade_prob = 0.01;
            fault.agent_crash_prob = 0.002;
            MemPoolParams &pool = w.config.cluster.pool;
            pool.enabled = true;
            pool.lease_pages = 2048;
            pool.max_leases_per_borrower = 4;
            pool.lease_term_periods = 30;
            pool.grace_periods = 1;
            pool.drain_pages_per_period = 512;
            pool.donor_reserve_frac = 0.08;
            pool.fault.enabled = true;
            pool.fault.lease_grant_loss_prob = 0.02;
            pool.fault.revocation_loss_prob = 0.02;
            pool.fault.broker_stall_prob = 0.01;
        }
    } else {
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// JSON output

class Json
{
  public:
    void num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        field(key) << (std::isfinite(v) ? buf : "null");
    }
    void u64(const std::string &key, std::uint64_t v) { field(key) << v; }
    void str(const std::string &key, const std::string &v)
    {
        field(key) << '"' << v << '"';
    }
    void list(const std::string &key, const std::vector<double> &v)
    {
        std::ostringstream &os = field(key);
        os << '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.9g", v[i]);
            os << (i == 0 ? "" : ",") << buf;
        }
        os << ']';
    }
    void raw(const std::string &key, const std::string &json)
    {
        field(key) << json;
    }
    std::string done() const
    {
        std::string body = os_.str();
        body.insert(body.begin(), '{');
        body.push_back('}');
        return body;
    }

  private:
    std::ostringstream &field(const std::string &key)
    {
        if (!first_)
            os_ << ", ";
        first_ = false;
        os_ << '"' << key << "\": ";
        return os_;
    }
    std::ostringstream os_;
    bool first_ = true;
};

// ---------------------------------------------------------------------
// Measurements read from the fleet

/** Fleet-wide counters the per-layer metrics are derived from. */
std::map<std::string, double>
layer_counters(const FarMemorySystem &fleet)
{
    static const char *const kCounters[] = {
        "agent.control_rounds", "agent.slo_violations",
        "controller.updates", "fault.injected", "fault.jobs_killed",
        "fault.tier_breaker_opens", "kreclaimd.pages_stored",
        "kreclaimd.pages_walked", "kstaled.pages_accessed",
        "kstaled.pages_scanned", "machine.accesses", "pool.forced_kills",
        "pool.grace_drains", "pool.leases_granted", "pool.revocations",
        "tier.nvm.demotions", "tier.remote.demotions", "zswap.promotions",
        "zswap.rejects", "zswap.stores",
    };
    static const char *const kGauges[] = {
        "agent.jobs", "agent.threshold_sum", "tier.nvm.utilization",
        "tier.remote.utilization", "zswap.arena_bytes",
        "zswap.stored_pages",
    };
    MetricsSnapshot snap = fleet.fleet_telemetry();
    std::map<std::string, double> out;
    for (const char *name : kCounters)
        out[name] = static_cast<double>(snap.counter_or_zero(name));
    for (const char *name : kGauges)
        out[name] = snap.gauge_or_zero(name);
    ZswapStats z;
    for (const auto &cluster : fleet.clusters()) {
        for (const auto &machine : cluster->machines()) {
            const ZswapStats &s = machine->zswap().stats();
            z.promotions += s.promotions;
            z.poisoned_entries += s.poisoned_entries;
            z.verified_roundtrips += s.verified_roundtrips;
        }
    }
    out["zswap.verified_roundtrips"] =
        static_cast<double>(z.verified_roundtrips);
    out["zswap.poisoned_entries"] = static_cast<double>(z.poisoned_entries);
    out["zswap.stat_promotions"] = static_cast<double>(z.promotions);
    return out;
}

std::string
counters_json(const std::map<std::string, double> &counters)
{
    Json j;
    for (const auto &[name, value] : counters)
        j.num(name, value);
    return j.done();
}

/** Job ids on each machine, in fleet order. */
using JobSets = std::vector<std::vector<JobId>>;

JobSets
job_sets(const FarMemorySystem &fleet)
{
    JobSets sets;
    for (const auto &cluster : fleet.clusters()) {
        for (const auto &machine : cluster->machines()) {
            std::vector<JobId> ids;
            for (const auto &job : machine->jobs())
                ids.push_back(job->id());
            std::sort(ids.begin(), ids.end());
            sets.push_back(std::move(ids));
        }
    }
    return sets;
}

/** Raises @p next_id[c] to one past the highest job id seen in
 *  cluster c; ids are allocated sequentially from c << 40, so this is
 *  the cluster's placement count. */
void
note_placements(const FarMemorySystem &fleet,
                std::vector<std::uint64_t> &next_id)
{
    next_id.resize(fleet.clusters().size(), 0);
    for (std::size_t c = 0; c < fleet.clusters().size(); ++c) {
        for (const auto &machine : fleet.clusters()[c]->machines()) {
            for (const auto &job : machine->jobs()) {
                std::uint64_t local = (job->id() & ((1ull << 40) - 1)) + 1;
                next_id[c] = std::max(next_id[c], local);
            }
        }
    }
}

double
median_compression_ratio(const FarMemorySystem &fleet)
{
    SampleSet ratios = job_compression_ratio_samples(fleet);
    return ratios.empty() ? 0.0 : ratios.percentile(50.0);
}

/**
 * Application cycles per machine since populate. A job's cycles live
 * in its memcg and leave with it, while the machine's far-memory
 * cycles are cumulative; the tracker keeps each job's last reading
 * and folds it into its machine's total when the job is gone.
 */
class AppCycles
{
  public:
    void observe(const FarMemorySystem &fleet)
    {
        std::size_t index = 0;
        for (const auto &cluster : fleet.clusters()) {
            for (const auto &machine : cluster->machines()) {
                if (index == last_.size()) {
                    last_.emplace_back();
                    departed_.push_back(0.0);
                }
                std::map<JobId, double> now;
                for (const auto &job : machine->jobs())
                    now[job->id()] = job->memcg().stats().app_cycles;
                for (const auto &[id, cycles] : last_[index]) {
                    if (now.count(id) == 0)
                        departed_[index] += cycles;
                }
                last_[index] = std::move(now);
                ++index;
            }
        }
    }

    /** Median over machines of modeled far-memory CPU cycles
     *  (compress, decompress, kstaled, kreclaimd) over application
     *  cycles. */
    double overhead(const FarMemorySystem &fleet) const
    {
        SampleSet samples;
        std::size_t index = 0;
        for (const auto &cluster : fleet.clusters()) {
            for (const auto &machine : cluster->machines()) {
                double app = departed_[index];
                for (const auto &[id, cycles] : last_[index])
                    app += cycles;
                ++index;
                if (app <= 0.0)
                    continue;
                const ZswapStats &z = machine->zswap().stats();
                const MachineCounters &m = machine->counters();
                samples.add((z.compress_cycles + z.decompress_cycles +
                             m.kstaled_cycles + m.kreclaimd_cycles) /
                            app);
            }
        }
        return samples.empty() ? 0.0 : samples.percentile(50.0);
    }

  private:
    std::vector<std::map<JobId, double>> last_;
    std::vector<double> departed_;
};

double
peak_rss_mib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Cycles through the job traces, copying each under a fresh job id,
 *  until there are @p jobs of them: a fleet of a stated size with the
 *  measured per-job behaviour, for the offline model. */
std::vector<JobTrace>
tile_traces(const std::vector<JobTrace> &traces, std::size_t jobs)
{
    std::vector<JobTrace> out;
    if (traces.empty())
        return out;
    out.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
        const JobTrace &trace = traces[i % traces.size()];
        JobTrace copy = trace;
        copy.job = trace.job +
                   (static_cast<JobId>(i / traces.size()) << 48);
        for (TraceEntry &entry : copy.entries)
            entry.job = copy.job;
        out.push_back(std::move(copy));
    }
    return out;
}

// ---------------------------------------------------------------------

struct Checks
{
    std::vector<std::string> lines;
    bool all_ok = true;

    void add(const std::string &name, bool ok, const std::string &detail)
    {
        all_ok = all_ok && ok;
        Json j;
        j.str("name", name);
        j.raw("ok", ok ? "true" : "false");
        j.str("detail", detail);
        lines.push_back(j.done());
    }

    std::string json() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < lines.size(); ++i)
            out += (i == 0 ? "" : ", ") + lines[i];
        return out + "]";
    }
};

std::string
fmt(const char *format, double a, double b = 0.0)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), format, a, b);
    return buf;
}

/**
 * Capacity and gauge consistency. A machine samples its
 * machine.far_memory_pages gauge at the end of its own step; the
 * cluster's churn can remove a job after that, so the live count is
 * compared only on machines that lost no job in the last step
 * (@p before_last holds the job sets from before it).
 */
void
check_capacity_and_gauges(const FarMemorySystem &fleet,
                          const JobSets &before_last, Checks &checks)
{
    JobSets after_last = job_sets(fleet);
    std::uint64_t dram = fleet.config().cluster.machine.dram_pages;
    double gauge_sum = 0.0;
    std::uint64_t over = 0, compared = 0, stale = 0, mismatched = 0;
    std::size_t index = 0;
    for (const auto &cluster : fleet.clusters()) {
        for (const auto &machine : cluster->machines()) {
            if (machine->used_pages() > dram)
                ++over;
            double gauge = machine->metrics().snapshot().gauge_or_zero(
                "machine.far_memory_pages");
            gauge_sum += gauge;
            const std::vector<JobId> &prev = before_last[index];
            const std::vector<JobId> &now = after_last[index];
            ++index;
            if (!std::includes(now.begin(), now.end(), prev.begin(),
                               prev.end())) {
                ++stale;
                continue;
            }
            ++compared;
            if (static_cast<std::uint64_t>(gauge) !=
                machine->far_memory_pages())
                ++mismatched;
        }
    }
    checks.add("used_pages_within_dram", over == 0,
               fmt("%.0f machines over DRAM", static_cast<double>(over)));
    double fleet_gauge = fleet.fleet_telemetry().gauge_or_zero(
        "machine.far_memory_pages");
    checks.add("far_memory_gauge_is_machine_sum", fleet_gauge == gauge_sum,
               fmt("fleet gauge %.0f, sum of machine gauges %.0f",
                   fleet_gauge, gauge_sum));
    checks.add("far_memory_gauge_matches_live",
               mismatched == 0 && compared > 0,
               fmt("%.0f of %.0f machines differ",
                   static_cast<double>(mismatched),
                   static_cast<double>(compared)) +
                   fmt(" (%.0f skipped: a job left after the sample)",
                       static_cast<double>(stale)));
}

/** Each workload's own layer carries its load (full scale only: the
 *  tiny smoke fleets are too small). */
void
check_layer_load(const std::string &workload, bool tiny,
                 std::map<std::string, double> &counters, Checks &checks)
{
    if (workload == "cold_fleet") {
        double accesses = counters["machine.accesses"];
        double walked = counters["kstaled.pages_scanned"] +
                        counters["kreclaimd.pages_walked"];
        double per_access = accesses > 0.0 ? walked / accesses : 0.0;
        checks.add("pages_walked_per_access_ge_100",
                   per_access >= 100.0 || tiny,
                   fmt("%.1f pages walked per access", per_access));
    } else if (workload == "diurnal_zswap") {
        double verified = counters["zswap.verified_roundtrips"];
        double clean = counters["zswap.stat_promotions"] -
                       counters["zswap.poisoned_entries"];
        checks.add("szo_roundtrips_verified",
                   verified > 0.0 && verified == clean,
                   fmt("%.0f verified of %.0f unpoisoned promotions",
                       verified, clean));
    } else {
        double deep = counters["tier.nvm.demotions"] +
                      counters["tier.remote.demotions"];
        checks.add("deep_tiers_take_demotions",
                   deep > counters["zswap.stores"] || tiny,
                   fmt("%.0f deep-tier demotions vs %.0f zswap stores", deep,
                       counters["zswap.stores"]));
        checks.add("faults_injected", counters["fault.injected"] > 0.0,
                   fmt("%.0f faults", counters["fault.injected"]));
        checks.add("leases_granted",
                   counters["pool.leases_granted"] > 0.0 || tiny,
                   fmt("%.0f leases", counters["pool.leases_granted"]));
    }
}

/** Whether a timed operation run @p done times, taking @p spent
 *  seconds so far, runs again: at least 3 times, then until it has
 *  taken 3 s, at most 15 times. Its median is the reported value. */
bool
repeat(int done, double spent)
{
    return done < 3 || (spent < 3.0 && done < 15);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload cold_fleet|diurnal_zswap|"
                 "tiered_faults --seed N --seconds S [--trace 0|1] "
                 "[--scale full|tiny] [--ckpt FILE] "
                 "[--spans FILE]\n",
                 argv0);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string ckpt_path = "fleetbench.ckpt";
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string value = argv[++i];
        if (arg == "--workload")
            workload_name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            trace = value == "1";
        else if (arg == "--scale")
            tiny = value == "tiny";
        else if (arg == "--ckpt")
            ckpt_path = value;
        else if (arg == "--spans")
            spans_path = value;
        else
            return usage(argv[0]);
    }
    Workload w;
    if (!make_workload(workload_name, tiny, seed, w))
        return usage(argv[0]);
    if (tiny)
        w.tune_jobs = 50;
    const FleetConfig &config = w.config;
    const double machines = static_cast<double>(
        config.num_clusters * config.cluster.num_machines);

    Tracer tracer(trace, workload_name + "-" + std::to_string(seed));
    Json out;
    out.str("workload", workload_name);
    out.u64("seed", seed);
    out.u64("machines", static_cast<std::uint64_t>(machines));

    // 1. Set-up, repeated; the last fleet is kept.
    std::vector<double> setup_s;
    std::unique_ptr<FarMemorySystem> fleet;
    double spent = 0.0;
    for (int rep = 0; repeat(rep, spent); ++rep) {
        fleet.reset();
        Timed setup(tracer, "core.setup");
        {
            Timed t(tracer, "core.construct");
            fleet = std::make_unique<FarMemorySystem>(config);
        }
        {
            Timed t(tracer, "core.populate");
            fleet->populate();
        }
        setup_s.push_back(setup.stop());
        spent += setup_s.back();
    }
    out.list("setup_s", setup_s);

    std::vector<std::uint64_t> next_id;
    note_placements(*fleet, next_id);
    std::uint64_t killed = 0;
    std::uint64_t attempted = 0;
    std::vector<double> step_ms, rollup_ms;
    std::map<std::string, double> window_start;
    if (trace) {
        Timed t(tracer, "telemetry.rollup");
        window_start = layer_counters(*fleet);
        rollup_ms.push_back(1e3 * t.stop());
    }

    auto timed_step = [&](FarMemorySystem &f) {
        Timed t(tracer, "core.step");
        FleetStepResult r = f.step();
        step_ms.push_back(1e3 * t.stop());
        ++attempted;
        killed += r.evictions;
        if (trace) {
            Timed rollup(tracer, "telemetry.rollup");
            (void)f.fleet_telemetry();
            rollup_ms.push_back(1e3 * rollup.stop());
        }
    };

    // 2. Fixed phase.
    const SimTime steady_from =
        config.start_time + static_cast<SimTime>(w.steady_after) *
                                config.cluster.machine.control_period;
    JobSets before_last;
    // Coverage and cold fraction are averaged over the steady steps:
    // a single end-of-phase reading moves with the last few churn
    // events and the diurnal load of that minute.
    SampleSet coverage_samples, cold_samples;
    AppCycles app_cycles;
    for (std::uint32_t s = 0; s < w.fixed_steps; ++s) {
        if (s + 1 == w.fixed_steps)
            before_last = job_sets(*fleet);
        timed_step(*fleet);
        note_placements(*fleet, next_id);
        app_cycles.observe(*fleet);
        if (s >= w.steady_after) {
            coverage_samples.add(fleet->fleet_coverage());
            cold_samples.add(fleet->fleet_cold_fraction());
        }
    }
    std::uint64_t digest = 0;
    {
        Timed t(tracer, "core.digest");
        digest = fleet->state_digest();
        out.num("digest_ms", 1e3 * t.stop());
    }
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    out.str("state_digest", digest_hex);

    Checks checks;
    {
        Timed t(tracer, "core.reports");
        std::uint64_t placements = 0;
        for (std::uint64_t n : next_id)
            placements += n;
        double coverage = coverage_samples.mean();
        double cold = cold_samples.mean();
        double ratio = median_compression_ratio(*fleet);
        TcoModel tco;
        tco.coverage = coverage;
        tco.cold_fraction = cold;
        tco.compression_ratio = ratio;
        TraceLog merged = fleet->merged_trace();
        SampleSet promo = job_promotion_rate_samples(
            merged, steady_from, kSkipLeadingWindows);
        Json sim;
        sim.num("coverage_pct", 100.0 * coverage);
        sim.num("promo_p98_pct",
                promo.empty() ? 0.0 : 100.0 * promo.percentile(98.0));
        sim.u64("promo_jobs", promo.size());
        sim.num("cpu_overhead_pct", 100.0 * app_cycles.overhead(*fleet));
        sim.num("tco_savings_pct",
                ratio > 0.0 ? 100.0 * tco.tco_savings() : 0.0);
        sim.u64("placements", placements);
        sim.u64("killed", killed);
        sim.num("failed_pct",
                placements == 0 ? 0.0
                                : 100.0 * static_cast<double>(killed) /
                                      static_cast<double>(placements));
        out.raw("sim", sim.done());

        check_capacity_and_gauges(*fleet, before_last, checks);
    }
    std::map<std::string, double> fixed_end = layer_counters(*fleet);

    check_layer_load(workload_name, tiny, fixed_end, checks);

    // 3. Checkpoint and restore into a fresh fleet, repeated; the
    // last restored fleet carries on.
    std::vector<double> ckpt_s, restore_s;
    bool digests_match = true;
    spent = 0.0;
    for (int rep = 0; repeat(rep, spent); ++rep) {
        {
            Timed t(tracer, "ckpt.save");
            CkptStatus st = fleet->checkpoint(ckpt_path);
            ckpt_s.push_back(t.stop());
            spent += ckpt_s.back();
            ++attempted;
            if (st != CkptStatus::kOk) {
                std::fprintf(stderr, "checkpoint failed: %s\n",
                             to_string(st));
                return 1;
            }
        }
        // Only the file carries the state across: the checkpointed
        // fleet is gone before the fresh one restores.
        fleet.reset();
        auto fresh = std::make_unique<FarMemorySystem>(config);
        {
            Timed t(tracer, "ckpt.load");
            CkptStatus st = fresh->restore(ckpt_path);
            restore_s.push_back(t.stop());
            spent += restore_s.back();
            ++attempted;
            if (st != CkptStatus::kOk) {
                std::fprintf(stderr, "restore failed: %s\n",
                             to_string(st));
                return 1;
            }
        }
        std::uint64_t restored = 0;
        {
            Timed t(tracer, "core.digest");
            restored = fresh->state_digest();
        }
        digests_match = digests_match && restored == digest;
        fleet = std::move(fresh);
    }
    {
        std::ifstream f(ckpt_path, std::ios::binary | std::ios::ate);
        out.u64("ckpt_bytes", static_cast<std::uint64_t>(f.tellg()));
    }
    std::remove(ckpt_path.c_str());
    out.list("ckpt_s", ckpt_s);
    out.list("restore_s", restore_s);
    checks.add("digest_after_restore", digests_match,
               std::string("digest ") + digest_hex);

    // 4. Offline pipeline: steady-state traces, tiled, autotuned.
    {
        std::vector<JobTrace> traces;
        {
            Timed t(tracer, "workload.trace_extract");
            TraceLog merged = fleet->merged_trace();
            TraceLog steady;
            for (const TraceEntry &entry : merged.entries()) {
                if (entry.timestamp >= steady_from)
                    steady.append(entry);
            }
            traces = tile_traces(steady.by_job(), w.tune_jobs);
            out.num("trace_extract_ms", 1e3 * t.stop());
        }
        out.u64("tune_traces", traces.size());

        ThreadPool pool(std::min<std::size_t>(
            4, std::max(1u, std::thread::hardware_concurrency())));
        FarMemoryModel model(&pool);
        AutotunerConfig tuner_config;
        tuner_config.iterations = kTunerTrials;
        tuner_config.seed = kTunerSeed;
        SloConfig base = config.cluster.machine.slo;
        // The search is deterministic, so every repetition picks the
        // same config; the last tuner's history is checked below.
        std::unique_ptr<Autotuner> tuner;
        SloConfig best;
        std::vector<double> tune_s;
        spent = 0.0;
        for (int rep = 0; repeat(rep, spent); ++rep) {
            tuner = std::make_unique<Autotuner>(tuner_config, base, &model,
                                                &traces);
            Timed t(tracer, "autotune.run");
            best = tuner->run();
            tune_s.push_back(t.stop());
            spent += tune_s.back();
            ++attempted;
        }
        out.list("tune_s", tune_s);
        ModelResult picked;
        {
            Timed t(tracer, "model.evaluate");
            picked = model.evaluate(traces, best);
        }
        out.num("tuned_captured_pages", picked.mean_captured_pages);
        out.num("tuned_p98_pct", 100.0 * picked.p98_promotion_rate);
        out.num("tuned_k", best.percentile_k);
        out.num("tuned_s", static_cast<double>(best.enable_delay));
        double limit =
            tuner_config.feasibility_margin * base.target_promotion_rate;
        // Autotuner::run returns the best feasible trial, or the base
        // config when no trial was feasible.
        bool any_feasible = false;
        for (const TrialRecord &record : tuner->history())
            any_feasible = any_feasible || record.feasible;
        std::string detail = fmt("re-evaluated p98 %.5f vs limit %.5f",
                                 picked.p98_promotion_rate, limit);
        if (any_feasible) {
            checks.add("tuned_pick_feasible",
                       picked.p98_promotion_rate <= limit, detail);
        } else {
            checks.add("tuned_pick_is_base_when_none_feasible",
                       !w.require_feasible_pick &&
                           best.percentile_k == base.percentile_k &&
                           best.enable_delay == base.enable_delay &&
                           best.history_window == base.history_window,
                       detail + " (no feasible trial)");
        }
        if (trace) {
            // Re-evaluate every trial: the model's share of tune_s.
            double eval_s = 0.0;
            for (const TrialRecord &record : tuner->history()) {
                Timed t(tracer, "model.evaluate");
                (void)model.evaluate(traces, record.config);
                eval_s += t.stop();
            }
            out.num("model_eval_s", eval_s);
            out.u64("model_evals", tuner->history().size());
            out.u64("model_windows", picked.total_windows);
        }
    }

    // 5. Open phase: keep stepping the restored fleet until the timed
    // horizon reaches the requested seconds.
    double stepped_s = 0.0;
    for (double ms : step_ms)
        stepped_s += ms / 1e3;
    do {
        timed_step(*fleet);
        stepped_s += step_ms.back() / 1e3;
    } while (stepped_s < seconds);
    out.list("step_ms", step_ms);
    out.num("sim_machine_min_per_s",
            machines * static_cast<double>(step_ms.size()) / stepped_s);

    if (trace) {
        out.list("rollup_ms", rollup_ms);
        out.raw("window_start", counters_json(window_start));
        out.raw("window_end", counters_json(layer_counters(*fleet)));
        out.num("compression_ratio_p50", median_compression_ratio(*fleet));
    }
    out.num("peak_rss_mib", peak_rss_mib());
    out.raw("checks", checks.json());
    out.u64("attempted", attempted);
    out.raw("correct", checks.all_ok ? "true" : "false");

    if (trace && !spans_path.empty() && !tracer.write(spans_path)) {
        std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
        return 1;
    }
    std::printf("%s\n", out.done().c_str());
    return 0;
}
