/**
 * @file
 * The per-machine metric registry: a named collection of counters,
 * gauges, and histograms.
 *
 * One MetricRegistry instance lives in each Machine; the daemons and
 * agents on that machine resolve their metrics by name once (at
 * bind time) and then increment through cached pointers, so steady
 * state never touches the registry lock. Cluster and FarMemorySystem
 * aggregate registries bucket-wise into MetricsSnapshot rollups
 * (snapshot.h) -- mirroring how the paper's per-machine counters roll
 * up into the fleet-wide monitoring dashboards of Section 5.
 */

#ifndef SDFM_TELEMETRY_REGISTRY_H
#define SDFM_TELEMETRY_REGISTRY_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "telemetry/metric.h"
#include "telemetry/snapshot.h"

namespace sdfm {

/**
 * A registry of named metrics. Registration (the counter/gauge/
 * histogram lookups) takes a mutex and may allocate; returned
 * references stay valid for the registry's lifetime, so callers
 * resolve once and increment lock-free afterwards.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /**
     * The counter named @p name, created on first use. Names are
     * dotted paths ("zswap.stores"); a name identifies one metric
     * kind per registry -- re-registering it as a different kind is
     * a bug.
     */
    Counter &counter(const std::string &name);

    /** The gauge named @p name, created on first use. */
    Gauge &gauge(const std::string &name);

    /**
     * counter(name) / gauge(name) cached in @p slot: the locked lookup
     * runs only while @p slot is null. For hot paths whose metrics
     * must stay unregistered until they first fire -- a registered
     * metric shows in snapshots and checkpoints even at zero.
     */
    Counter &
    counter(const char *name, Counter *&slot)
    {
        if (slot == nullptr)
            slot = &counter(std::string(name));
        return *slot;
    }

    Gauge &
    gauge(const char *name, Gauge *&slot)
    {
        if (slot == nullptr)
            slot = &gauge(std::string(name));
        return *slot;
    }

    /**
     * The histogram named @p name, created on first use with
     * @p upper_bounds. Later lookups of an existing histogram must
     * pass identical bounds (the buckets are part of the metric's
     * identity -- cross-machine aggregation is bucket-wise).
     */
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &upper_bounds);

    /** Copy the current value of every metric into a snapshot. */
    MetricsSnapshot snapshot() const;

    /**
     * Checkpoint the registry contents: every metric by name, in map
     * (lexicographic) order. Restore overwrites metrics in place --
     * creating any not yet registered, since registration is lazy --
     * so it must run after the owning machine has bound its daemons
     * (their cached pointers then see the restored values). Returns
     * false on corrupt bytes or a histogram whose stored bounds
     * disagree with an already-registered histogram of the same name.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sdfm

#endif  // SDFM_TELEMETRY_REGISTRY_H
