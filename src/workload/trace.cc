#include "workload/trace.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

namespace sdfm {

void
TraceLog::append(TraceEntry entry)
{
    entries_.push_back(std::move(entry));
}

std::size_t
TraceLog::heap_bytes() const
{
    std::size_t bytes = entries_.capacity() * sizeof(TraceEntry);
    for (const TraceEntry &entry : entries_)
        bytes += entry.promo_delta.heap_bytes() +
                 entry.cold_hist.heap_bytes();
    return bytes;
}

std::vector<JobTrace>
TraceLog::by_job() const
{
    std::map<JobId, JobTrace> groups;
    for (const auto &entry : entries_) {
        JobTrace &trace = groups[entry.job];
        trace.job = entry.job;
        trace.entries.push_back(entry);
    }
    std::vector<JobTrace> result;
    result.reserve(groups.size());
    for (auto &[job, trace] : groups) {
        std::sort(trace.entries.begin(), trace.entries.end(),
                  [](const TraceEntry &a, const TraceEntry &b) {
                      return a.timestamp < b.timestamp;
                  });
        result.push_back(std::move(trace));
    }
    return result;
}

namespace {

void
save_histogram(std::ostream &os, char tag, const SparseAgeHistogram &hist)
{
    os << tag;
    for (std::size_t i = 0; i < hist.num_bins(); ++i) {
        os << ' ' << static_cast<unsigned>(hist.bin_bucket(i)) << ':'
           << hist.bin_count(i);
    }
    os << '\n';
}

bool
load_histogram(std::istream &is, char expected_tag,
               SparseAgeHistogram *hist)
{
    std::string line;
    if (!std::getline(is, line) || line.empty() || line[0] != expected_tag)
        return false;
    std::istringstream ss(line.substr(1));
    std::string field;
    while (ss >> field) {
        std::size_t colon = field.find(':');
        if (colon == std::string::npos)
            return false;
        unsigned long bucket = std::stoul(field.substr(0, colon));
        unsigned long long count = std::stoull(field.substr(colon + 1));
        if (bucket >= kAgeBuckets)
            return false;
        auto b = static_cast<AgeBucket>(bucket);
        if (count > SparseAgeHistogram::kMaxCount - hist->at(b))
            return false;
        hist->add(b, count);
    }
    return true;
}

}  // namespace

void
TraceLog::save(std::ostream &os) const
{
    // Doubles must survive the text round-trip exactly.
    os.precision(17);
    for (const auto &entry : entries_) {
        os << "E " << entry.job << ' ' << entry.timestamp << ' '
           << entry.wss_pages << '\n';
        save_histogram(os, 'P', entry.promo_delta);
        save_histogram(os, 'C', entry.cold_hist);
        const JobSli &s = entry.sli;
        os << "S " << s.zswap_promotions_delta << ' '
           << s.zswap_stores_delta << ' ' << s.zswap_rejects_delta << ' '
           << s.zswap_pages << ' ' << s.resident_pages << ' '
           << s.cold_pages_min << ' ' << s.compressed_bytes << ' '
           << s.compress_cycles_delta << ' ' << s.decompress_cycles_delta
           << ' ' << s.app_cycles_delta << ' '
           << s.decompress_latency_us_delta << '\n';
    }
}

bool
TraceLog::load(std::istream &is)
{
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line[0] != 'E')
            return false;
        TraceEntry entry;
        std::istringstream ss(line.substr(1));
        if (!(ss >> entry.job >> entry.timestamp >> entry.wss_pages))
            return false;
        if (!load_histogram(is, 'P', &entry.promo_delta))
            return false;
        if (!load_histogram(is, 'C', &entry.cold_hist))
            return false;
        if (!std::getline(is, line) || line.empty() || line[0] != 'S')
            return false;
        {
            std::istringstream sli_ss(line.substr(1));
            JobSli &s = entry.sli;
            if (!(sli_ss >> s.zswap_promotions_delta >>
                  s.zswap_stores_delta >> s.zswap_rejects_delta >>
                  s.zswap_pages >> s.resident_pages >> s.cold_pages_min >>
                  s.compressed_bytes >> s.compress_cycles_delta >>
                  s.decompress_cycles_delta >> s.app_cycles_delta >>
                  s.decompress_latency_us_delta)) {
                return false;
            }
        }
        entries_.push_back(std::move(entry));
    }
    return true;
}

void
TraceLog::ckpt_save(Serializer &s) const
{
    s.put_u64(entries_.size());
    for (const TraceEntry &e : entries_) {
        s.put_u64(e.job);
        s.put_i64(e.timestamp);
        s.put_u64(e.wss_pages);
        s.put_age_histogram(e.promo_delta);
        s.put_age_histogram(e.cold_hist);
        s.put_u64(e.sli.zswap_promotions_delta);
        s.put_u64(e.sli.zswap_stores_delta);
        s.put_u64(e.sli.zswap_rejects_delta);
        s.put_u64(e.sli.zswap_pages);
        s.put_u64(e.sli.resident_pages);
        s.put_u64(e.sli.cold_pages_min);
        s.put_u64(e.sli.compressed_bytes);
        s.put_double(e.sli.compress_cycles_delta);
        s.put_double(e.sli.decompress_cycles_delta);
        s.put_double(e.sli.app_cycles_delta);
        s.put_double(e.sli.decompress_latency_us_delta);
    }
}

bool
TraceLog::ckpt_load(Deserializer &d)
{
    entries_.clear();
    // An entry is at least 24 bytes of header plus two (possibly
    // empty) sparse histograms and the 11 SLI fields.
    std::size_t num = d.get_size(d.remaining() / 120, 120);
    if (!d.ok())
        return false;
    entries_.reserve(num);
    for (std::size_t i = 0; i < num; ++i) {
        TraceEntry e;
        e.job = d.get_u64();
        e.timestamp = d.get_i64();
        e.wss_pages = d.get_u64();
        d.get_age_histogram(e.promo_delta);
        d.get_age_histogram(e.cold_hist);
        e.sli.zswap_promotions_delta = d.get_u64();
        e.sli.zswap_stores_delta = d.get_u64();
        e.sli.zswap_rejects_delta = d.get_u64();
        e.sli.zswap_pages = d.get_u64();
        e.sli.resident_pages = d.get_u64();
        e.sli.cold_pages_min = d.get_u64();
        e.sli.compressed_bytes = d.get_u64();
        e.sli.compress_cycles_delta = d.get_double();
        e.sli.decompress_cycles_delta = d.get_double();
        e.sli.app_cycles_delta = d.get_double();
        e.sli.decompress_latency_us_delta = d.get_double();
        if (!d.ok())
            return false;
        entries_.push_back(std::move(e));
    }
    return true;
}

}  // namespace sdfm
