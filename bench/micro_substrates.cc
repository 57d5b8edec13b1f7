/**
 * @file
 * Substrate micro-benchmarks (google-benchmark): szo compression and
 * decompression throughput per content class, zsmalloc operations and
 * compaction, kstaled scan throughput, checkpoint substrates (CRC32,
 * Serializer puts, PageTable save/load per page), the far-memory
 * model's replay rate, and GP fit/predict cost.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "autotune/gp.h"
#include "ckpt/checkpoint.h"
#include "compression/compressor.h"
#include "compression/page_content.h"
#include "compression/szo.h"
#include "mem/kstaled.h"
#include "mem/memcg.h"
#include "mem/page_table.h"
#include "model/far_memory_model.h"
#include "util/rng.h"
#include "zsmalloc/zsmalloc.h"

namespace sdfm {
namespace {

// ------------------------------------------------------------- szo

void
BM_SzoCompress(benchmark::State &state)
{
    auto cls = static_cast<ContentClass>(state.range(0));
    std::uint8_t page[kPageSize];
    generate_page_content(cls, 99, page);
    std::vector<std::uint8_t> dst(szo_max_compressed_size(kPageSize));
    std::size_t out = 0;
    for (auto _ : state) {
        out = szo_compress(page, kPageSize, dst.data(), dst.size());
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kPageSize));
    state.SetLabel(content_class_name(cls));
}
BENCHMARK(BM_SzoCompress)->DenseRange(0, 4, 1);

void
BM_SzoDecompress(benchmark::State &state)
{
    auto cls = static_cast<ContentClass>(state.range(0));
    std::uint8_t page[kPageSize];
    generate_page_content(cls, 99, page);
    std::vector<std::uint8_t> compressed(
        szo_max_compressed_size(kPageSize));
    std::size_t n = szo_compress(page, kPageSize, compressed.data(),
                                 compressed.size());
    std::uint8_t out[kPageSize];
    for (auto _ : state) {
        std::size_t decoded =
            szo_decompress(compressed.data(), n, out, sizeof(out));
        benchmark::DoNotOptimize(decoded);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kPageSize));
    state.SetLabel(content_class_name(cls));
}
BENCHMARK(BM_SzoDecompress)->DenseRange(0, 4, 1);

void
BM_PageContentGeneration(benchmark::State &state)
{
    auto cls = static_cast<ContentClass>(state.range(0));
    std::uint8_t page[kPageSize];
    std::uint64_t seed = 0;
    for (auto _ : state) {
        generate_page_content(cls, ++seed, page);
        benchmark::DoNotOptimize(page[0]);
    }
    state.SetLabel(content_class_name(cls));
}
BENCHMARK(BM_PageContentGeneration)->DenseRange(0, 4, 1);

// --------------------------------------------------------- zsmalloc

void
BM_ZsmallocStoreRelease(benchmark::State &state)
{
    ZsmallocArena arena;
    Rng rng(1);
    std::vector<ZsHandle> handles;
    handles.reserve(1024);
    for (auto _ : state) {
        if (handles.size() < 1024 && (handles.empty() ||
                                      rng.next_bool(0.55))) {
            handles.push_back(arena.store(
                static_cast<std::uint32_t>(32 + rng.next_below(2958))));
        } else {
            std::size_t pick = rng.next_below(handles.size());
            arena.release(handles[pick]);
            handles[pick] = handles.back();
            handles.pop_back();
        }
    }
    for (ZsHandle h : handles)
        arena.release(h);
}
BENCHMARK(BM_ZsmallocStoreRelease);

void
BM_ZsmallocCompact(benchmark::State &state)
{
    Rng rng(2);
    for (auto _ : state) {
        state.PauseTiming();
        ZsmallocArena arena;
        std::vector<ZsHandle> handles;
        for (int i = 0; i < 4096; ++i) {
            handles.push_back(arena.store(
                static_cast<std::uint32_t>(32 + rng.next_below(2958))));
        }
        for (std::size_t i = 0; i < handles.size(); i += 2)
            arena.release(handles[i]);
        state.ResumeTiming();
        benchmark::DoNotOptimize(arena.compact());
    }
}
BENCHMARK(BM_ZsmallocCompact);

// ---------------------------------------------------------- kstaled

void
BM_KstaledScan(benchmark::State &state)
{
    auto pages = static_cast<std::uint32_t>(state.range(0));
    Memcg cg(1, pages, 42, ContentMix::typical(), 0);
    Kstaled kstaled;
    for (auto _ : state) {
        ScanResult result = kstaled.scan(cg);
        benchmark::DoNotOptimize(result.pages_scanned);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(pages));
}
BENCHMARK(BM_KstaledScan)->Arg(4096)->Arg(65536);

// ------------------------------------------------------------ model

void
BM_FarMemoryModelReplay(benchmark::State &state)
{
    // A synthetic week-ish of windows for a population of jobs.
    std::vector<JobTrace> traces;
    Rng rng(3);
    for (JobId j = 1; j <= 64; ++j) {
        JobTrace trace;
        trace.job = j;
        for (int w = 0; w < 288; ++w) {  // one day of 5-min windows
            TraceEntry entry;
            entry.job = j;
            entry.timestamp = (w + 1) * kTraceWindow;
            entry.wss_pages = 4000 + rng.next_below(4000);
            entry.cold_hist.add(0, entry.wss_pages);
            entry.cold_hist.add(
                static_cast<AgeBucket>(10 + rng.next_below(200)), 2000);
            entry.promo_delta.add(
                static_cast<AgeBucket>(1 + rng.next_below(8)),
                rng.next_below(50));
            trace.entries.push_back(entry);
        }
        traces.push_back(std::move(trace));
    }
    FarMemoryModel model;
    SloConfig slo;
    for (auto _ : state) {
        ModelResult result = model.evaluate(traces, slo);
        benchmark::DoNotOptimize(result.mean_captured_pages);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(traces.size()) * 288);
    state.SetLabel("job-windows/s");
}
BENCHMARK(BM_FarMemoryModelReplay);

// ------------------------------------------------------- checkpoint

void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(1 << 20);
    Rng rng(6);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto _ : state) {
        std::uint32_t crc = crc32(buf.data(), buf.size());
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

void
BM_SerializerPutU64(benchmark::State &state)
{
    constexpr std::uint64_t kValues = 1 << 16;
    for (auto _ : state) {
        Serializer s;
        for (std::uint64_t v = 0; v < kValues; ++v)
            s.put_u64(v * 0x9E3779B97F4A7C15ULL);
        benchmark::DoNotOptimize(s.bytes().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kValues * 8));
}
BENCHMARK(BM_SerializerPutU64);

/** A page table with every field populated, as after a long run. */
PageTable
checkpoint_page_table(std::uint32_t pages)
{
    PageTable table(pages);
    Rng rng(8);
    for (PageId p = 0; p < pages; ++p) {
        table.set_age(p, static_cast<std::uint8_t>(rng.next_below(256)));
        table.set_content(p, static_cast<ContentClass>(rng.next_below(
                                 static_cast<std::uint64_t>(
                                     ContentClass::kNumClasses))));
        for (std::uint64_t v = rng.next_below(3); v > 0; --v)
            table.bump_version(p);
        if (rng.next_bool(0.3))
            table.set(p, kPageAccessed);
        if (rng.next_bool(0.1))
            table.set(p, kPageInZswap);
    }
    return table;
}

/** Reports the iteration time per page (printed as e.g. "4.2ns"). */
void
set_time_per_page(benchmark::State &state, std::uint32_t pages)
{
    state.counters["per_page"] = benchmark::Counter(
        static_cast<double>(pages),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

void
BM_PageTableCkptSave(benchmark::State &state)
{
    auto pages = static_cast<std::uint32_t>(state.range(0));
    PageTable table = checkpoint_page_table(pages);
    for (auto _ : state) {
        Serializer s;
        table.ckpt_save(s);
        benchmark::DoNotOptimize(s.bytes().data());
    }
    set_time_per_page(state, pages);
}
BENCHMARK(BM_PageTableCkptSave)->Arg(1 << 18);

void
BM_PageTableCkptLoad(benchmark::State &state)
{
    auto pages = static_cast<std::uint32_t>(state.range(0));
    Serializer s;
    checkpoint_page_table(pages).ckpt_save(s);
    PageTable table;
    for (auto _ : state) {
        Deserializer d(s.bytes());
        std::uint64_t flagged_zswap = 0;
        std::uint64_t flagged_tier = 0;
        bool ok = table.ckpt_load(d, flagged_zswap, flagged_tier);
        benchmark::DoNotOptimize(ok);
    }
    set_time_per_page(state, pages);
}
BENCHMARK(BM_PageTableCkptLoad)->Arg(1 << 18);

// --------------------------------------------------------------- GP

void
BM_GpFit(benchmark::State &state)
{
    auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    std::vector<Vector> x;
    Vector y;
    for (std::size_t i = 0; i < n; ++i) {
        x.push_back({rng.next_double(), rng.next_double()});
        y.push_back(rng.next_gaussian());
    }
    for (auto _ : state) {
        GaussianProcess gp;
        gp.fit(x, y);
        benchmark::DoNotOptimize(gp.params().noise_variance);
    }
}
BENCHMARK(BM_GpFit)->Arg(16)->Arg(32)->Arg(64);

void
BM_GpPredict(benchmark::State &state)
{
    Rng rng(5);
    std::vector<Vector> x;
    Vector y;
    for (int i = 0; i < 32; ++i) {
        x.push_back({rng.next_double(), rng.next_double()});
        y.push_back(rng.next_gaussian());
    }
    GaussianProcess gp;
    gp.fit(x, y);
    Vector q = {0.4, 0.6};
    for (auto _ : state) {
        GpPrediction pred = gp.predict(q);
        benchmark::DoNotOptimize(pred.mean);
    }
}
BENCHMARK(BM_GpPredict);

}  // namespace
}  // namespace sdfm

BENCHMARK_MAIN();
