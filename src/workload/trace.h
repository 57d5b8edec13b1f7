/**
 * @file
 * Far-memory telemetry traces (Section 5.3).
 *
 * Each entry aggregates one job over a 5-minute window: working set
 * size, the promotion histogram delta for the window, and the
 * cold-age histogram snapshot at the window's end. These three
 * quantities are everything the control algorithm consumes, which is
 * what makes offline what-if replay under arbitrary (K, S) possible.
 */

#ifndef SDFM_WORKLOAD_TRACE_H
#define SDFM_WORKLOAD_TRACE_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "ckpt/checkpoint.h"
#include "mem/page.h"
#include "util/age_histogram.h"
#include "util/sim_time.h"

namespace sdfm {

/** Telemetry aggregation window (5 minutes, as in the paper). */
inline constexpr SimTime kTraceWindow = 5 * kMinute;

/**
 * Per-window service-level indicators: the realized (not would-be)
 * far-memory behaviour of the job, used by the evaluation figures.
 * "delta" fields are counts within the window; the rest are
 * end-of-window snapshots.
 */
struct JobSli
{
    std::uint64_t zswap_promotions_delta = 0;
    std::uint64_t zswap_stores_delta = 0;
    std::uint64_t zswap_rejects_delta = 0;
    std::uint64_t zswap_pages = 0;
    std::uint64_t resident_pages = 0;
    std::uint64_t cold_pages_min = 0;  ///< cold under the 120 s threshold
    std::uint64_t compressed_bytes = 0;
    double compress_cycles_delta = 0.0;
    double decompress_cycles_delta = 0.0;
    double app_cycles_delta = 0.0;
    double decompress_latency_us_delta = 0.0;

    bool operator==(const JobSli &other) const = default;
};

/**
 * One job-window telemetry record. The histograms are sparse: a window
 * touches a few dozen of the 256 age buckets, so an entry costs its
 * fixed fields plus 8 bytes per non-zero bucket.
 */
struct TraceEntry
{
    JobId job = 0;
    SimTime timestamp = 0;           ///< window end time
    std::uint64_t wss_pages = 0;     ///< working set size at window end
    SparseAgeHistogram promo_delta;  ///< would-be promotions by age
    SparseAgeHistogram cold_hist;    ///< cold-age snapshot at window end
    JobSli sli;                      ///< realized far-memory indicators

    bool operator==(const TraceEntry &other) const = default;
};

/** A single job's time-ordered trace. */
struct JobTrace
{
    JobId job = 0;
    std::vector<TraceEntry> entries;
};

/** Append-only store of telemetry records with (de)serialization. */
class TraceLog
{
  public:
    /** Append one record. */
    void append(TraceEntry entry);

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const std::vector<TraceEntry> &entries() const { return entries_; }

    /**
     * Heap bytes the log holds: the entry array's allocation plus each
     * entry's histogram bins.
     */
    std::size_t heap_bytes() const;

    /** Group records by job, each group time-ordered. */
    std::vector<JobTrace> by_job() const;

    /**
     * Text serialization. Format, per record:
     *   E <job> <timestamp> <wss_pages>
     *   P <bucket>:<count> ...   (sparse promotion delta)
     *   C <bucket>:<count> ...   (sparse cold-age snapshot)
     *   S <eleven SLI fields in declaration order>
     */
    void save(std::ostream &os) const;

    /**
     * Load records appended to the current contents.
     * @return false on malformed input (log state is unspecified).
     */
    bool load(std::istream &is);

    /**
     * Binary checkpoint serialization. Unlike the text save()/load()
     * pair -- which formats doubles for humans and loses bits -- this
     * is bit-exact, so a restored log compares == entry for entry.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

  private:
    std::vector<TraceEntry> entries_;
};

}  // namespace sdfm

#endif  // SDFM_WORKLOAD_TRACE_H
