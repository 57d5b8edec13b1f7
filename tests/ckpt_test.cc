/**
 * @file
 * Tests for crash-consistent checkpoint/restore: the container format
 * (framing, CRCs, versioning), per-subsystem save/load round trips
 * compared by state digest or by subsequent behavior, the whole-fleet
 * checkpoint-at-k / restore / run-to-N trajectory guarantee, and every
 * rejection path (truncation, CRC flip, bad magic, bad version,
 * config mismatch, corrupt payload) -- each proving the live fleet is
 * left untouched by a failed restore.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arena_record.h"
#include "autotune/gp_bandit.h"
#include "ckpt/checkpoint.h"
#include "cluster/cluster.h"
#include "core/far_memory_system.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "mem/memcg.h"
#include "mem/zswap.h"
#include "node/machine.h"
#include "node/threshold_controller.h"
#include "telemetry/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/job.h"
#include "workload/job_profile.h"
#include "workload/trace.h"

namespace sdfm {
namespace {

// ---------------------------------------------------------------------
// RNG streams (satellite: every stream fully snapshottable)
// ---------------------------------------------------------------------

TEST(RngCkpt, RestoredStreamProducesIdenticalSequence)
{
    Rng original(12345);
    // Burn a mixed prefix so the snapshot is mid-stream, not at seed
    // state, and includes the gaussian spare-value cache if any.
    for (int i = 0; i < 100; ++i) {
        original.next_u64();
        original.next_double();
        original.next_gaussian();
        original.next_below(1000);
    }

    Serializer s;
    s.put_rng(original);
    Rng restored(999);  // different seed: every word must be overwritten
    Deserializer d(s.bytes());
    d.get_rng(restored);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.at_end());

    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(original.next_u64(), restored.next_u64());
        EXPECT_EQ(original.next_double(), restored.next_double());
        EXPECT_EQ(original.next_gaussian(), restored.next_gaussian());
        EXPECT_EQ(original.next_below(77), restored.next_below(77));
        EXPECT_EQ(original.next_bool(0.3), restored.next_bool(0.3));
    }
}

TEST(RngCkpt, AllZeroStateIsRejected)
{
    Serializer s;
    for (int i = 0; i < 4; ++i)
        s.put_u64(0);
    Rng rng(1);
    Deserializer d(s.bytes());
    d.get_rng(rng);
    EXPECT_FALSE(d.ok());
}

// ---------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------

TEST(CkptContainer, RoundTripsSections)
{
    CkptWriter writer;
    writer.add_section("zebra", {1, 2, 3});
    writer.add_section("alpha", {9});
    writer.add_section("mid", {});
    ByteBuffer bytes = writer.encode();

    CkptReader reader;
    ASSERT_EQ(reader.parse(bytes), CkptStatus::kOk);
    ASSERT_EQ(reader.sections().size(), 3u);
    // Sections come back in ascending name order.
    EXPECT_EQ(reader.sections()[0].name, "alpha");
    EXPECT_EQ(reader.sections()[1].name, "mid");
    EXPECT_EQ(reader.sections()[2].name, "zebra");
    std::optional<std::span<const std::uint8_t>> zebra =
        reader.section("zebra");
    ASSERT_TRUE(zebra.has_value());
    EXPECT_EQ(ByteBuffer(zebra->begin(), zebra->end()),
              (ByteBuffer{1, 2, 3}));
    EXPECT_FALSE(reader.section("absent").has_value());
}

TEST(CkptContainer, RejectsTamperedBytes)
{
    CkptWriter writer;
    writer.add_section("data", {10, 20, 30, 40});
    ByteBuffer good = writer.encode();

    {  // truncation anywhere in the tail
        for (std::size_t cut = 1; cut <= 6; ++cut) {
            ByteBuffer bad(good.begin(),
                                          good.end() - static_cast<long>(cut));
            CkptReader reader;
            EXPECT_EQ(reader.parse(bad), CkptStatus::kTruncated);
        }
    }
    {  // payload flip -> CRC mismatch
        ByteBuffer bad = good;
        bad[bad.size() - 6] ^= 0x01;  // inside payload, before the CRC
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kCrcMismatch);
    }
    {  // magic flip
        ByteBuffer bad = good;
        bad[0] ^= 0xFF;
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kBadMagic);
    }
    {  // unknown version (u32 at offset 8)
        ByteBuffer bad = good;
        bad[8] ^= 0x02;
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kBadVersion);
    }
}

/** The byte-at-a-time CRC32 the sliced implementation must match. */
std::uint32_t
crc32_bytewise(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(CkptCrc, KnownAnswer)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check.data()),
                    check.size()),
              0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(CkptCrc, SlicedMatchesBytewiseAtEveryLengthAndAlignment)
{
    Rng rng(7);
    ByteBuffer buf(257 + 8);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 257; ++len) {
            const std::uint8_t *data = buf.data() + offset;
            ASSERT_EQ(crc32(data, len), crc32_bytewise(data, len))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(CkptSerializer, MultiByteValuesAreLittleEndian)
{
    Serializer s;
    s.put_u16(0x0102);
    s.put_u32(0x03040506u);
    s.put_u64(0x0708090A0B0C0D0EULL);
    EXPECT_EQ(s.bytes(),
              (ByteBuffer{0x02, 0x01, 0x06, 0x05, 0x04, 0x03,
                                         0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09,
                                         0x08, 0x07}));
    Deserializer d(s.bytes());
    EXPECT_EQ(d.get_u16(), 0x0102u);
    EXPECT_EQ(d.get_u32(), 0x03040506u);
    EXPECT_EQ(d.get_u64(), 0x0708090A0B0C0D0EULL);
    EXPECT_TRUE(d.ok());
    EXPECT_TRUE(d.at_end());
}

TEST(CkptSerializer, BulkBytesRoundTrip)
{
    Serializer s;
    s.put_u8(0xAA);
    const std::uint8_t raw[] = {1, 2, 3, 4, 5};
    s.put_bytes(raw, sizeof raw);
    s.put_bytes(nullptr, 0);
    std::uint8_t *region = s.extend(3);
    region[0] = 7;
    region[1] = 8;
    region[2] = 9;
    s.put_u32(0xDEADBEEFu);
    ASSERT_EQ(s.bytes().size(), 1u + 5u + 3u + 4u);

    Deserializer d(s.bytes());
    EXPECT_EQ(d.get_u8(), 0xAA);
    std::span<const std::uint8_t> got = d.get_bytes(5);
    EXPECT_EQ(ByteBuffer(got.begin(), got.end()),
              (ByteBuffer{1, 2, 3, 4, 5}));
    EXPECT_TRUE(d.get_bytes(0).empty());
    got = d.get_bytes(3);
    EXPECT_EQ(ByteBuffer(got.begin(), got.end()),
              (ByteBuffer{7, 8, 9}));
    EXPECT_EQ(d.get_u32(), 0xDEADBEEFu);
    EXPECT_TRUE(d.ok());
    EXPECT_TRUE(d.at_end());
}

TEST(CkptSerializer, ShortReadsFailAndConsumeTheStream)
{
    const ByteBuffer bytes = {1, 2, 3};
    {  // bulk read one byte too long
        Deserializer d(bytes);
        EXPECT_TRUE(d.get_bytes(4).empty());
        EXPECT_FALSE(d.ok());
        EXPECT_TRUE(d.at_end());
    }
    {  // multi-byte read with too few bytes left
        Deserializer d(bytes);
        EXPECT_EQ(d.get_u8(), 1u);
        EXPECT_EQ(d.get_u32(), 0u);
        EXPECT_FALSE(d.ok());
        EXPECT_TRUE(d.at_end());
        EXPECT_EQ(d.get_u8(), 0u);  // the failure is sticky
        EXPECT_FALSE(d.ok());
    }
    {  // string whose length prefix overruns the payload
        Serializer s;
        s.put_u64(10);
        s.put_u8('x');
        Deserializer d(s.bytes());
        EXPECT_EQ(d.get_string(), "");
        EXPECT_FALSE(d.ok());
    }
}

TEST(CkptSerializer, SizeGuardDoesNotWrapOnHugeCounts)
{
    // 2^62 elements of 4 bytes each: the product wraps to zero, so a
    // multiply-based guard would wave the count through.
    Serializer s;
    s.put_u64(1ULL << 62);
    s.put_u32(0);
    Deserializer d(s.bytes());
    EXPECT_EQ(d.get_size(SIZE_MAX, 4), 0u);
    EXPECT_FALSE(d.ok());
}

TEST(CkptContainer, WriteFileStreamsTheEncodedBytes)
{
    CkptWriter writer;
    writer.add_section("b", {4, 5, 6, 7, 8, 9, 10, 11, 12});
    writer.add_section("a", {1, 2, 3});
    writer.add_section("c", {});
    ByteBuffer big(100000);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<std::uint8_t>(i * 31);
    std::uint32_t big_crc = crc32(big.data(), big.size());
    writer.add_section("big", big, big_crc);

    const std::string path = "ckpt_container_stream.ckpt";
    ASSERT_EQ(writer.write_file(path), CkptStatus::kOk);
    std::ifstream in(path, std::ios::binary);
    ByteBuffer file((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_EQ(file, writer.encode());

    CkptReader reader;
    ASSERT_EQ(reader.parse(file), CkptStatus::kOk);
    std::optional<std::span<const std::uint8_t>> got = reader.section("big");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(ByteBuffer(got->begin(), got->end()), big);
}

TEST(CkptContainer, FramingIsCheckedBeforeCrcsAcrossSections)
{
    CkptWriter writer;
    writer.add_section("s1", {1, 2, 3, 4, 5, 6, 7, 8});
    writer.add_section("s2", {9, 10, 11, 12, 13, 14, 15, 16});
    writer.add_section("s3", {17, 18, 19, 20});
    ByteBuffer good = writer.encode();
    // Each section frames as u32 name length, name, u64 payload
    // length, payload, u32 CRC; the header is 16 bytes.
    const std::size_t s1_payload = 16 + 4 + 2 + 8;
    const std::size_t s2_payload = s1_payload + 8 + 4 + 4 + 2 + 8;

    {  // CRC flip in the first of several sections
        ByteBuffer bad = good;
        bad[s1_payload + 3] ^= 0x10;
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kCrcMismatch);
        EXPECT_TRUE(reader.sections().empty());
    }
    {  // truncation inside the middle section's payload
        ByteBuffer bad(
            good.begin(), good.begin() + static_cast<long>(s2_payload + 4));
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kTruncated);
    }
    {  // both: the framing error wins over the earlier CRC flip
        ByteBuffer bad(
            good.begin(), good.begin() + static_cast<long>(s2_payload + 4));
        bad[s1_payload + 3] ^= 0x10;
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kTruncated);
    }
    {  // trailing bytes after the last section are framing corruption
        ByteBuffer bad = good;
        bad.push_back(0);
        bad[s1_payload + 3] ^= 0x10;
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kCorruptPayload);
    }
    {  // the intact container still parses
        CkptReader reader;
        ASSERT_EQ(reader.parse(good), CkptStatus::kOk);
        EXPECT_EQ(reader.sections().size(), 3u);
    }
}

TEST(CkptContainer, PooledCrcChecksMatchSerialOnes)
{
    CkptWriter writer;
    for (std::size_t i = 0; i < 9; ++i) {
        ByteBuffer payload(1000 + i * 4099);
        for (std::size_t b = 0; b < payload.size(); ++b)
            payload[b] = static_cast<std::uint8_t>(b * 7 + i);
        std::string name = "s";
        name.push_back(static_cast<char>('0' + i));
        writer.add_section(std::move(name), std::move(payload));
    }
    ByteBuffer good = writer.encode();
    ThreadPool pool(3);
    {
        CkptReader serial;
        CkptReader pooled;
        ASSERT_EQ(serial.parse(good), CkptStatus::kOk);
        ASSERT_EQ(pooled.parse(good, &pool), CkptStatus::kOk);
        ASSERT_EQ(pooled.sections().size(), serial.sections().size());
        for (std::size_t i = 0; i < serial.sections().size(); ++i) {
            EXPECT_TRUE(std::ranges::equal(pooled.sections()[i].payload,
                                           serial.sections()[i].payload));
        }
    }
    // One flipped byte in any section fails both, exposing nothing;
    // framing damage still wins over a CRC flip.
    for (std::size_t at : {std::size_t{40}, good.size() / 2,
                           good.size() - 6}) {
        ByteBuffer bad = good;
        bad[at] ^= 0x20;
        CkptReader serial;
        CkptReader pooled;
        EXPECT_EQ(serial.parse(bad), CkptStatus::kCrcMismatch) << at;
        EXPECT_EQ(pooled.parse(bad, &pool), CkptStatus::kCrcMismatch) << at;
        EXPECT_TRUE(pooled.sections().empty());
    }
    ByteBuffer cut(good.begin(), good.end() - 3);
    cut[40] ^= 0x20;
    CkptReader pooled;
    EXPECT_EQ(pooled.parse(cut, &pool), CkptStatus::kTruncated);
}

// ---------------------------------------------------------------------
// Subsystem round trips
// ---------------------------------------------------------------------

TEST(SubsystemCkpt, CircuitBreakerRoundTrip)
{
    CircuitBreakerParams params;
    params.failure_threshold = 2;
    params.open_periods = 3;
    CircuitBreaker a(params);
    a.record_failure();
    a.record_failure();  // trips open
    a.tick();
    a.record_success();

    Serializer s;
    a.ckpt_save(s);
    CircuitBreaker b(params);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.stats().opens, b.stats().opens);
    EXPECT_EQ(a.stats().reopens, b.stats().reopens);
    EXPECT_EQ(a.stats().closes, b.stats().closes);
    // Behavioral equality from here on.
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(a.allow(), b.allow());
        EXPECT_EQ(a.trial_budget(), b.trial_budget());
        a.tick();
        b.tick();
        EXPECT_EQ(a.state(), b.state());
    }
}

TEST(SubsystemCkpt, FaultInjectorRoundTrip)
{
    FaultConfig config;
    config.enabled = true;
    config.donor_failure_prob = 0.3;
    config.zswap_corruption_prob = 0.4;
    config.agent_crash_prob = 0.1;
    config.schedule.push_back({5 * kMinute, {FaultKind::kRemoteDegrade,
                                             1, 2 * kMinute}});

    FaultInjector a(config, 42);
    SimTime now = 0;
    for (int i = 0; i < 10; ++i, now += kMinute)
        a.step(now, now + kMinute);

    Serializer s;
    a.ckpt_save(s);
    FaultInjector b(config, 42);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    for (int i = 0; i < 30; ++i, now += kMinute) {
        std::vector<FaultEvent> ea = a.step(now, now + kMinute);
        std::vector<FaultEvent> eb = b.step(now, now + kMinute);
        ASSERT_EQ(ea.size(), eb.size());
        for (std::size_t k = 0; k < ea.size(); ++k) {
            EXPECT_EQ(ea[k].kind, eb[k].kind);
            EXPECT_EQ(ea[k].magnitude, eb[k].magnitude);
            EXPECT_EQ(ea[k].duration, eb[k].duration);
        }
        EXPECT_EQ(a.target_rng().next_u64(), b.target_rng().next_u64());
    }
    EXPECT_EQ(a.stats().injected_total, b.stats().injected_total);
}

TEST(SubsystemCkpt, ThresholdControllerRoundTrip)
{
    SloConfig slo;
    slo.enable_delay = 2 * kMinute;
    slo.history_window = 10;
    ThresholdController a(slo, 0);
    Rng rng(3);
    SimTime now = kMinute;
    auto feed = [&](ThresholdController &c) {
        AgeHistogram delta;
        delta.add(static_cast<AgeBucket>(rng.next_below(8)),
                  rng.next_below(50));
        return c.update(now, delta, 1000, 1.0);
    };
    for (int i = 0; i < 7; ++i, now += kMinute) {
        feed(a);
        rng = Rng(3 + static_cast<std::uint64_t>(i));  // deterministic refill
    }

    Serializer s;
    a.ckpt_save(s);
    ThresholdController b(slo, 123);  // wrong anchor: must be overwritten
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    EXPECT_EQ(a.current_threshold(), b.current_threshold());
    EXPECT_EQ(a.job_start(), b.job_start());
    for (int i = 0; i < 10; ++i, now += kMinute) {
        Rng ra(77 + static_cast<std::uint64_t>(i));
        AgeHistogram delta;
        delta.add(static_cast<AgeBucket>(ra.next_below(8)),
                  ra.next_below(50));
        EXPECT_EQ(a.update(now, delta, 1000, 1.0),
                  b.update(now, delta, 1000, 1.0));
    }
}

TEST(SubsystemCkpt, MemcgRoundTripDigestEqual)
{
    Memcg a(7, 500, 42, ContentMix::typical(), 31);
    a.mutable_cold_hist().add(0, 300);
    a.mutable_cold_hist().add(5, 200);
    a.stats().zswap_promotions = 17;
    a.stats().app_cycles = 1.5e9;

    Serializer s;
    a.ckpt_save(s);
    // Restore into the cheapest structurally valid cgroup, the way
    // Job::ckpt_restore does.
    Memcg b(0, 1, 0, ContentMix::typical(), 0);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(a.state_digest(), b.state_digest());
    EXPECT_EQ(b.id(), 7u);
    EXPECT_EQ(b.num_pages(), 500u);
    EXPECT_EQ(b.stats().zswap_promotions, 17u);
}

TEST(SubsystemCkpt, TraceLogRoundTripBitExact)
{
    TraceLog a;
    for (int i = 0; i < 5; ++i) {
        TraceEntry e;
        e.job = static_cast<JobId>(100 + i);
        e.timestamp = i * 5 * kMinute;
        e.wss_pages = 1000u + static_cast<std::uint64_t>(i);
        e.promo_delta.add(3, 7);
        e.cold_hist.add(1, 9);
        e.sli.app_cycles_delta = 0.1 + static_cast<double>(i) / 3.0;
        e.sli.compress_cycles_delta = 1e9 / 7.0;
        a.append(e);
    }

    Serializer s;
    a.ckpt_save(s);
    TraceLog b;
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());
    ASSERT_EQ(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < a.entries().size(); ++i)
        EXPECT_EQ(a.entries()[i], b.entries()[i]);
}

TEST(SubsystemCkpt, MetricRegistryRoundTrip)
{
    MetricRegistry a;
    a.counter("x.count").inc(41);
    a.gauge("x.level").set(2.5);
    a.histogram("x.hist", {1.0, 2.0, 4.0}).observe(1.5);
    a.histogram("x.hist", {1.0, 2.0, 4.0}).observe(9.0);

    Serializer s;
    a.ckpt_save(s);
    // The restored registry starts with only a subset registered:
    // load must set the existing slot and lazily create the rest.
    MetricRegistry b;
    b.counter("x.count").inc(5);  // stale value: must be overwritten
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    MetricsSnapshot sa = a.snapshot();
    MetricsSnapshot sb = b.snapshot();
    EXPECT_EQ(sa.counters, sb.counters);
    EXPECT_EQ(sa.gauges, sb.gauges);
    ASSERT_EQ(sb.histograms.count("x.hist"), 1u);
    EXPECT_EQ(sa.histograms.at("x.hist").counts,
              sb.histograms.at("x.hist").counts);

    // Histogram bounds disagreement is a typed rejection, not an
    // assert: registry with conflicting bounds already registered.
    MetricRegistry c;
    c.histogram("x.hist", {10.0, 20.0});
    Deserializer d2(s.bytes());
    EXPECT_FALSE(c.ckpt_load(d2));
}

TEST(SubsystemCkpt, GpBanditRoundTripSuggestsIdentically)
{
    BanditConfig config;
    config.candidates = 32;
    config.local_candidates = 8;
    GpBandit a(config, 0.5, 9);
    Rng rng(4);
    for (int i = 0; i < 6; ++i) {
        Vector x = {rng.next_double(), rng.next_double()};
        a.add_observation(x, rng.next_double(), rng.next_double());
    }
    a.suggest();  // advance the candidate RNG off its seed state

    Serializer s;
    a.ckpt_save(s);
    GpBandit b(config, 0.5, 9);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    ASSERT_EQ(a.observations().size(), b.observations().size());
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(a.suggest(), b.suggest());
}

TEST(SubsystemCkpt, JobRoundTripDigestEqual)
{
    FleetMix mix = typical_fleet_mix();
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    Machine machine(0, config, 11);
    for (std::size_t i = 0; i < 3; ++i) {
        machine.add_job(std::make_unique<Job>(
            static_cast<JobId>(i + 1),
            mix.profiles[i % mix.profiles.size()], 100 + i, 0));
    }
    SimTime now = 0;
    for (int i = 0; i < 25; ++i, now += config.control_period)
        machine.step(now);

    // Round-trip each job through the restore path used by
    // Machine::ckpt_load.
    for (const auto &job : machine.jobs()) {
        Serializer s;
        job->ckpt_save(s);
        Deserializer d(s.bytes());
        std::unique_ptr<Job> copy = Job::ckpt_restore(d);
        ASSERT_NE(copy, nullptr);
        ASSERT_TRUE(d.at_end());
        EXPECT_EQ(copy->id(), job->id());
        EXPECT_EQ(copy->memcg().state_digest(),
                  job->memcg().state_digest());
    }
}

TEST(SubsystemCkpt, MachineRoundTripTrajectoryEqual)
{
    FleetMix mix = typical_fleet_mix();
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    TierConfig nvm;  // exercise the NVM tier
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 1 << 18;
    nvm.band_lo = 1.0;
    nvm.band_hi = 4.0;
    nvm.breaker_enabled = true;
    config.tiers = {nvm};
    config.slo_breaker_enabled = true;
    Machine a(0, config, 11);
    for (std::size_t i = 0; i < 3; ++i) {
        a.add_job(std::make_unique<Job>(
            static_cast<JobId>(i + 1),
            mix.profiles[i % mix.profiles.size()], 100 + i, 0));
    }
    SimTime now = 0;
    for (int i = 0; i < 25; ++i, now += config.control_period)
        a.step(now);

    Serializer s;
    a.ckpt_save(s);
    Machine b(0, config, 11);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(a.state_digest(), b.state_digest());

    // The restored machine must continue the original's trajectory
    // bit-identically, including the metrics plane.
    for (int i = 0; i < 15; ++i, now += config.control_period) {
        a.step(now);
        b.step(now);
        ASSERT_EQ(a.state_digest(), b.state_digest())
            << "diverged " << i << " steps after restore";
    }
    EXPECT_EQ(a.metrics().snapshot().counters,
              b.metrics().snapshot().counters);
}

TEST(SubsystemCkpt, ClusterRoundTripTrajectoryEqual)
{
    ClusterConfig config;
    config.num_machines = 3;
    config.machine.dram_pages = 16 * 1024;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.remote.capacity_pages = 1 << 20;
    remote.band_lo = 1.0;
    remote.band_hi = 4.0;
    remote.breaker_enabled = true;
    config.machine.tiers = {remote};
    config.machine.fault.enabled = true;
    config.machine.fault.donor_failure_prob = 0.05;
    config.machine.fault.zswap_corruption_prob = 0.2;
    config.mix = typical_fleet_mix();
    Cluster a(0, config, 5);
    a.populate(0);
    SimTime now = 0;
    for (int i = 0; i < 20; ++i, now += config.machine.control_period)
        a.step(now);

    Serializer s;
    a.ckpt_save(s);
    Cluster b(0, config, 5);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(a.state_digest(), b.state_digest());

    for (int i = 0; i < 15; ++i, now += config.machine.control_period) {
        a.step(now);
        b.step(now);
        ASSERT_EQ(a.state_digest(), b.state_digest())
            << "diverged " << i << " steps after restore";
    }
}

// ---------------------------------------------------------------------
// Whole-fleet checkpoint/restore
// ---------------------------------------------------------------------

/**
 * A small fleet that still places jobs and demotes them: 96 MiB
 * machines fit a few typical jobs each. The remote tier's band is
 * narrowed to [T, 1.25 T), so zswap takes the first demotions (at
 * step 6, once the agent's enable delay has passed) and the remote
 * tier the next ones: a checkpoint taken after kStepsToDemote steps
 * carries zswap entries, handles and arena payloads beside remote
 * pages (asserted where each checkpoint is taken).
 */
FleetConfig
small_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 21;
    config.serial_step = true;  // keep the tests single-threaded
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 96ull * kMiB / kPageSize;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.remote.capacity_pages = 1 << 20;
    remote.band_lo = 1.0;
    remote.band_hi = 1.25;
    remote.breaker_enabled = true;
    config.cluster.machine.tiers = {remote};
    config.cluster.machine.slo_breaker_enabled = true;
    config.cluster.machine.fault.enabled = true;
    config.cluster.machine.fault.donor_failure_prob = 0.05;
    config.cluster.machine.fault.zswap_corruption_prob = 0.2;
    config.cluster.machine.fault.agent_crash_prob = 0.02;
    config.cluster.mix = typical_fleet_mix();
    return config;
}

constexpr int kStepsToDemote = 8;

FleetConfig
four_cluster_config(bool serial_step)
{
    FleetConfig config = small_fleet_config();
    config.num_clusters = 4;
    config.cluster.num_machines = 2;
    config.serial_step = serial_step;
    return config;
}

/** Pages the fleet holds in zswap, summed over every machine. */
std::uint64_t
zswap_entries(const FarMemorySystem &fleet)
{
    std::uint64_t entries = 0;
    for (const auto &cluster : fleet.clusters()) {
        for (const auto &machine : cluster->machines())
            entries += machine->zswap().stored_pages();
    }
    return entries;
}

/** RAII temp checkpoint path (removed on scope exit). */
struct TempCkpt
{
    explicit TempCkpt(const char *name) : path(name) {}
    ~TempCkpt() { std::remove(path.c_str()); }
    std::string path;
};

TEST(FleetCkpt, RestoreAtKReproducesUninterruptedTrajectory)
{
    TempCkpt ckpt("fleet_ckpt_traj.ckpt");
    FleetConfig config = small_fleet_config();

    FarMemorySystem reference(config);
    reference.populate();
    for (int i = 0; i < kStepsToDemote; ++i)
        reference.step();
    ASSERT_EQ(reference.checkpoint(ckpt.path), CkptStatus::kOk);
    ASSERT_GT(zswap_entries(reference), 0u);

    // Cold start: a fresh fleet object, as after a process kill.
    FarMemorySystem resumed(config);
    ASSERT_EQ(resumed.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(resumed.now(), reference.now());
    EXPECT_EQ(resumed.state_digest(), reference.state_digest());
    EXPECT_EQ(resumed.num_jobs(), reference.num_jobs());

    for (int i = 0; i < 12; ++i) {
        reference.step();
        resumed.step();
        ASSERT_EQ(resumed.state_digest(), reference.state_digest())
            << "diverged " << i << " steps after restore";
    }
    // The merged telemetry databases must agree entry for entry.
    EXPECT_EQ(resumed.merged_trace().entries(),
              reference.merged_trace().entries());
}

TEST(FleetCkpt, RestoreIntoPopulatedFleetReplacesState)
{
    TempCkpt ckpt("fleet_ckpt_replace.ckpt");
    FleetConfig config = small_fleet_config();

    FarMemorySystem a(config);
    a.populate();
    for (int i = 0; i < kStepsToDemote; ++i)
        a.step();
    ASSERT_EQ(a.checkpoint(ckpt.path), CkptStatus::kOk);
    ASSERT_GT(zswap_entries(a), 0u);
    std::uint64_t digest_at_ckpt = a.state_digest();

    // Let the original drift past the checkpoint, then roll it back.
    for (int i = 0; i < 5; ++i)
        a.step();
    ASSERT_NE(a.state_digest(), digest_at_ckpt);
    ASSERT_EQ(a.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(a.state_digest(), digest_at_ckpt);
}

/** Read a whole file into bytes. */
ByteBuffer
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return ByteBuffer(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

/** Write bytes to a file. */
void
spit(const std::string &path, const ByteBuffer &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(FleetCkpt, RejectionsLeaveLiveFleetUntouched)
{
    TempCkpt good("fleet_ckpt_good.ckpt");
    TempCkpt bad("fleet_ckpt_bad.ckpt");

    // Pool-stepped, so cluster sections are encoded in parallel.
    FarMemorySystem fleet(four_cluster_config(false));
    fleet.populate();
    for (int i = 0; i < kStepsToDemote; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);
    ASSERT_GT(zswap_entries(fleet), 0u);
    for (int i = 0; i < 3; ++i)
        fleet.step();
    const std::uint64_t live_digest = fleet.state_digest();
    const SimTime live_now = fleet.now();
    ByteBuffer bytes = slurp(good.path);
    ASSERT_GT(bytes.size(), 64u);

    auto expect_rejected = [&](CkptStatus want) {
        EXPECT_EQ(fleet.restore(bad.path), want);
        EXPECT_EQ(fleet.state_digest(), live_digest)
            << "a rejected restore mutated the live fleet";
        EXPECT_EQ(fleet.now(), live_now);
    };

    {  // missing file
        std::remove(bad.path.c_str());
        expect_rejected(CkptStatus::kIoError);
    }
    {  // truncation
        ByteBuffer t(bytes.begin(), bytes.end() - 9);
        spit(bad.path, t);
        expect_rejected(CkptStatus::kTruncated);
    }
    {  // CRC flip (corrupt the final section's payload tail)
        ByteBuffer t = bytes;
        t[t.size() - 6] ^= 0x40;
        spit(bad.path, t);
        expect_rejected(CkptStatus::kCrcMismatch);
    }
    {  // not a checkpoint
        ByteBuffer t = bytes;
        t[3] ^= 0xFF;
        spit(bad.path, t);
        expect_rejected(CkptStatus::kBadMagic);
    }
    {  // version from a different lineage
        ByteBuffer t = bytes;
        t[8] ^= 0x04;
        spit(bad.path, t);
        expect_rejected(CkptStatus::kBadVersion);
    }
    {  // format v4, which wrote each zswap fact several times
        ASSERT_EQ(kCkptFormatVersion, 5u);
        ByteBuffer t = bytes;
        t[8] = 4;
        spit(bad.path, t);
        expect_rejected(CkptStatus::kBadVersion);
    }
    {  // CRC-valid but semantically corrupt section payload
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        CkptWriter writer;
        for (const CkptSection &section : reader.sections()) {
            if (section.name == "cluster.0000")
                writer.add_section(section.name, {0xDE, 0xAD, 0xBE});
            else
                writer.add_section(
                    section.name,
                    {section.payload.begin(), section.payload.end()});
        }
        ASSERT_EQ(writer.write_file(bad.path), CkptStatus::kOk);
        expect_rejected(CkptStatus::kCorruptPayload);
    }
    {  // a middle cluster cut short, re-framed with a fresh CRC
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        CkptWriter writer;
        bool found = false;
        for (const CkptSection &section : reader.sections()) {
            ByteBuffer payload(section.payload.begin(),
                                              section.payload.end());
            if (section.name == "cluster.0002") {
                ASSERT_GT(payload.size(), 8u);
                payload.resize(payload.size() - 8);
                found = true;
            }
            writer.add_section(section.name, std::move(payload));
        }
        ASSERT_TRUE(found);
        ASSERT_EQ(writer.write_file(bad.path), CkptStatus::kOk);
        expect_rejected(CkptStatus::kCorruptPayload);
    }

    // The intact checkpoint still restores over the same live fleet.
    EXPECT_EQ(fleet.restore(good.path), CkptStatus::kOk);
    EXPECT_NE(fleet.state_digest(), live_digest);
}

/** Offset of the only occurrence of @p needle in @p hay, else npos. */
std::size_t
find_unique(std::span<const std::uint8_t> hay, const ByteBuffer &needle)
{
    std::size_t found = std::string::npos;
    int hits = 0;
    for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
        if (std::equal(needle.begin(), needle.end(), hay.data() + i)) {
            found = i;
            ++hits;
        }
    }
    return hits == 1 ? found : std::string::npos;
}

/** A small fleet whose arenas hold live, freed and reused handles
 *  after 30 steps. */
FleetConfig
zswap_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 7;
    config.serial_step = true;
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 96ull * kMiB / kPageSize;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.target_utilization = 0.7;
    return config;
}

/** @p section's payload with @p bytes written at @p at, every other
 *  section as read; each section gets a fresh CRC. */
void
write_patched(const CkptReader &reader, const std::string &section,
              std::size_t at, const ByteBuffer &bytes,
              const std::string &path)
{
    CkptWriter writer;
    for (const CkptSection &s : reader.sections()) {
        ByteBuffer payload(s.payload.begin(), s.payload.end());
        if (s.name == section) {
            ASSERT_LE(at + bytes.size(), payload.size());
            std::copy(bytes.begin(), bytes.end(),
                      payload.begin() + static_cast<long>(at));
        }
        writer.add_section(s.name, std::move(payload));
    }
    ASSERT_EQ(writer.write_file(path), CkptStatus::kOk);
}

TEST(FleetCkpt, RestoreRejectsZswapHandlesTheArenaDoesNotBack)
{
    TempCkpt good("fleet_ckpt_handles_good.ckpt");
    TempCkpt bad("fleet_ckpt_handles_bad.ckpt");
    FarMemorySystem fleet(zswap_fleet_config());
    fleet.populate();
    for (int i = 0; i < 30; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);

    // One cluster-0 job's zswap handles, as saved (a u32 per zswap
    // page, in page order), locate that job's handle list in the
    // section.
    std::size_t handle_at = 0;  // offset of the job's first handle
    ZsHandle second = 0;
    ZsHandle dead = 0;
    ZsHandle limit = 0;
    CkptReader reader;
    ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
    std::optional<std::span<const std::uint8_t>> cluster0 =
        reader.section("cluster.0000");
    ASSERT_TRUE(cluster0.has_value());
    for (const auto &machine : fleet.clusters()[0]->machines()) {
        const ZsmallocArena &arena = machine->zswap().arena();
        for (const auto &job : machine->jobs()) {
            std::vector<PageId> ids = job->memcg().zswap_page_ids();
            if (ids.size() < 2)
                continue;
            Serializer needle;
            for (PageId p : ids)
                needle.put_u32(job->memcg().zswap_handle(p));
            std::size_t at = find_unique(*cluster0, needle.bytes());
            if (at == std::string::npos)
                continue;
            for (ZsHandle h = 1; h < arena.handle_limit() && dead == 0;
                 ++h) {
                if (!arena.is_live(h))
                    dead = h;
            }
            if (dead == 0)
                continue;
            handle_at = at;
            second = job->memcg().zswap_handle(ids[1]);
            limit = arena.handle_limit();
            break;
        }
        if (limit != 0)
            break;
    }
    ASSERT_NE(limit, 0u)
        << "no cluster-0 job with two zswap pages and a freed handle";

    for (int i = 0; i < 3; ++i)
        fleet.step();
    const std::uint64_t live_digest = fleet.state_digest();
    const SimTime live_now = fleet.now();

    // Rewrite the job's first handle and re-seal the section CRC:
    // the counts all still reconcile, so only the handle check can
    // reject the file.
    auto expect_rejected_with_handle = [&](ZsHandle handle) {
        Serializer patch;
        patch.put_u32(handle);
        write_patched(reader, "cluster.0000", handle_at, patch.bytes(),
                      bad.path);
        EXPECT_EQ(fleet.restore(bad.path), CkptStatus::kCorruptPayload)
            << "handle " << handle;
        EXPECT_EQ(fleet.state_digest(), live_digest)
            << "a rejected restore mutated the live fleet";
        EXPECT_EQ(fleet.now(), live_now);
    };
    expect_rejected_with_handle(dead);       // a freed arena slot
    expect_rejected_with_handle(second);     // shared with the next page
    expect_rejected_with_handle(limit + 7);  // past the arena's handles

    EXPECT_EQ(fleet.restore(good.path), CkptStatus::kOk);
    EXPECT_NE(fleet.state_digest(), live_digest);
}

TEST(FleetCkpt, RestoreRejectsAFreeZspageThatHoldsObjects)
{
    TempCkpt good("fleet_ckpt_zspage_good.ckpt");
    TempCkpt bad("fleet_ckpt_zspage_bad.ckpt");
    FarMemorySystem fleet(zswap_fleet_config());
    fleet.populate();
    for (int i = 0; i < 30; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);
    CkptReader reader;
    ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
    std::optional<std::span<const std::uint8_t>> cluster0 =
        reader.section("cluster.0000");
    ASSERT_TRUE(cluster0.has_value());

    // A cluster-0 arena record, with the first free zspage of some
    // class rewritten to a zspage a live slot of that class occupies.
    std::size_t arena_at = std::string::npos;
    ByteBuffer patched;
    for (const auto &machine : fleet.clusters()[0]->machines()) {
        Serializer s;
        machine->zswap().arena().ckpt_save(s);
        std::size_t at = find_unique(*cluster0, s.bytes());
        if (at == std::string::npos)
            continue;
        ArenaRecord r = ArenaRecord::decode(s.bytes());
        for (const ArenaRecord::Live &slot : r.live) {
            std::vector<std::uint32_t> &free =
                r.free_zspages[ArenaRecord::class_of(slot.size)];
            if (free.empty())
                continue;
            free[0] = slot.zspage;
            patched = r.encode();
            arena_at = at;
            break;
        }
        if (arena_at != std::string::npos)
            break;
    }
    ASSERT_NE(arena_at, std::string::npos)
        << "no cluster-0 arena with a free zspage beside a live slot";

    for (int i = 0; i < 3; ++i)
        fleet.step();
    const std::uint64_t live_digest = fleet.state_digest();
    const SimTime live_now = fleet.now();
    write_patched(reader, "cluster.0000", arena_at, patched, bad.path);
    EXPECT_EQ(fleet.restore(bad.path), CkptStatus::kCorruptPayload);
    EXPECT_EQ(fleet.state_digest(), live_digest)
        << "a rejected restore mutated the live fleet";
    EXPECT_EQ(fleet.now(), live_now);
    EXPECT_EQ(fleet.restore(good.path), CkptStatus::kOk);
}

/** Accepted and rejected loads per mutated record. */
struct MutationCounts
{
    int accepted = 0;
    int rejected = 0;
};

/**
 * Release every live handle of a restored machine, then store pages
 * again: the restored free lists must hand out each handle and zspage
 * slot once.
 */
void
release_and_store_again(Machine &machine)
{
    Zswap &zswap = machine.zswap();
    for (const auto &job : machine.jobs())
        zswap.drop_all(job->memcg());
    const ZsmallocArena &arena = zswap.arena();
    ASSERT_EQ(arena.live_objects(), 0u);
    ASSERT_EQ(arena.stored_bytes(), 0u);
    ASSERT_EQ(arena.pool_bytes(), 0u);
    zswap.check_invariants();

    std::vector<bool> issued(std::size_t{arena.handle_limit()} + 512,
                             false);
    std::uint64_t stored = 0;
    for (const auto &job : machine.jobs()) {
        Memcg &cg = job->memcg();
        for (PageId p = 0; p < cg.num_pages() && stored < 512; ++p) {
            if (cg.pages().in_far_memory(p) ||
                cg.page_test(p, kPageUnevictable) ||
                cg.page_test(p, kPageIncompressible) ||
                cg.region_is_huge(Memcg::region_of(p)) ||
                !zswap.store(cg, p)) {
                continue;
            }
            ZsHandle h = cg.zswap_handle(p);
            ASSERT_LT(h, issued.size());
            ASSERT_FALSE(issued[h]) << "handle " << h << " issued twice";
            issued[h] = true;
            ++stored;
        }
        cg.check_invariants();
    }
    ASSERT_GT(stored, 0u);
    ASSERT_EQ(arena.live_objects(), stored);
    zswap.check_invariants();
}

/**
 * Seeded single-byte stores and bit flips in one machine checkpoint's
 * zswap records -- the zsmalloc arena record, the Zswap checksums and
 * each Memcg's handle list -- each loaded into a fresh machine. A load
 * either fails or restores a machine that passes check_invariants()
 * (which Machine::ckpt_load runs) and survives releasing every handle
 * and storing again.
 */
void
mutation_sweep(const MachineConfig &config, int mutations,
               MutationCounts (&counts)[3])
{
    FleetMix mix = typical_fleet_mix();
    Machine src(0, config, 11);
    for (std::size_t i = 0; i < 3; ++i) {
        src.add_job(std::make_unique<Job>(
            static_cast<JobId>(i + 1),
            mix.profiles[i % mix.profiles.size()], 100 + i, 0));
    }
    SimTime now = 0;
    for (int i = 0; i < 40; ++i, now += config.control_period)
        src.step(now);
    const ZsmallocArena &arena = src.zswap().arena();
    ASSERT_GT(arena.live_objects(), 0u);
    ASSERT_GT(arena.stats().total_frees, 0u);

    Serializer s;
    src.ckpt_save(s);
    const ByteBuffer good = s.take();

    // [at, at + len) of each record kind: 0 arena, 1 checksums, then
    // one handle list per job with zswap pages.
    std::vector<std::pair<std::size_t, std::size_t>> records;
    Serializer zs;
    src.zswap().ckpt_save(zs);
    std::size_t zs_at = find_unique(good, zs.bytes());
    ASSERT_NE(zs_at, std::string::npos);
    Serializer as;
    arena.ckpt_save(as);
    records.emplace_back(zs_at, as.bytes().size());
    std::size_t sums = 8 * arena.live_objects();
    records.emplace_back(zs_at + zs.bytes().size() - sums, sums);
    for (const auto &job : src.jobs()) {
        Serializer needle;
        for (PageId p : job->memcg().zswap_page_ids())
            needle.put_u32(job->memcg().zswap_handle(p));
        if (needle.bytes().empty())
            continue;
        std::size_t at = find_unique(good, needle.bytes());
        ASSERT_NE(at, std::string::npos);
        records.emplace_back(at, needle.bytes().size());
    }
    ASSERT_GT(records.size(), 2u);

    Rng rng(config.verify_zswap_roundtrip ? 23 : 29);
    for (int i = 0; i < mutations; ++i) {
        const std::size_t kind = static_cast<std::size_t>(i % 3);
        const std::size_t pick =
            kind < 2 ? kind : 2 + rng.next_below(records.size() - 2);
        const auto [at, len] = records[pick];
        ByteBuffer bad = good;
        std::uint8_t &byte = bad[at + rng.next_below(len)];
        if (rng.next_bool(0.5))
            byte ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        else
            byte = static_cast<std::uint8_t>(rng.next_below(256));

        Machine victim(0, config, 11);
        Deserializer d(bad);
        if (!victim.ckpt_load(d) || !d.at_end()) {
            ++counts[kind].rejected;
            continue;
        }
        ++counts[kind].accepted;
        release_and_store_again(victim);
        if (::testing::Test::HasFatalFailure()) {
            ADD_FAILURE() << "mutation " << i << " of record " << pick
                          << " was accepted into an incoherent machine";
            return;
        }
    }
}

TEST(CkptMutation, ZswapRecordsRestoreCoherentlyOrAreRejected)
{
    const char *names[3] = {"arena", "checksums", "handles"};
    for (bool keep : {false, true}) {
        MachineConfig config;
        config.dram_pages = 16 * 1024;
        if (keep) {
            config.compression = CompressionMode::kReal;
            config.verify_zswap_roundtrip = true;
        }
        MutationCounts counts[3];
        mutation_sweep(config, 300, counts);
        ASSERT_FALSE(HasFatalFailure());
        for (std::size_t k = 0; k < 3; ++k) {
            std::cout << (keep ? "kept payloads" : "modelled") << ' '
                      << names[k] << ": " << counts[k].accepted
                      << " accepted, " << counts[k].rejected
                      << " rejected\n";
            EXPECT_EQ(counts[k].accepted + counts[k].rejected, 100);
        }
        // A corrupt handle list is always caught, and so is most of a
        // modelled arena record (a kept-payload record is mostly
        // payload bytes, which any value fills); any checksum value is
        // a valid, if poisoned, entry.
        if (!keep) {
            EXPECT_GT(counts[0].rejected, 50);
        }
        EXPECT_EQ(counts[1].rejected, 0);
        EXPECT_EQ(counts[2].rejected, 100);
    }
}

TEST(FleetCkpt, ConfigMismatchIsRejected)
{
    TempCkpt ckpt("fleet_ckpt_config.ckpt");
    FleetConfig config = small_fleet_config();
    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < kStepsToDemote; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(ckpt.path), CkptStatus::kOk);
    ASSERT_GT(zswap_entries(fleet), 0u);

    // Any trajectory-relevant config difference must be refused --
    // seed, topology, tunables, and fault plane alike.
    auto refuses = [&](FleetConfig other) {
        FarMemorySystem victim(other);
        std::uint64_t before = victim.state_digest();
        EXPECT_EQ(victim.restore(ckpt.path),
                  CkptStatus::kConfigMismatch);
        EXPECT_EQ(victim.state_digest(), before);
    };
    {
        FleetConfig other = config;
        other.seed = config.seed + 1;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.num_machines += 1;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.machine.slo.percentile_k = 95.0;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.machine.fault.donor_failure_prob = 0.0;
        refuses(other);
    }
    // The tier stack is fingerprinted field by field: its band,
    // breaker, tier params and depth.
    {
        FleetConfig other = config;
        other.cluster.machine.tiers[0].band_hi = 1.5;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.machine.tiers[0].breaker_enabled = false;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.machine.tiers[0].remote.capacity_pages += 1;
        refuses(other);
    }
    {
        FleetConfig other = config;
        TierConfig nvm;
        nvm.kind = TierKind::kNvm;
        nvm.nvm.capacity_pages = 1 << 16;
        other.cluster.machine.tiers.push_back(nvm);
        refuses(other);
    }
    // serial_step is the one deliberate exclusion: serial and
    // parallel stepping are digest-identical, so a checkpoint from
    // one must restore into the other.
    {
        FleetConfig other = config;
        other.serial_step = false;
        FarMemorySystem victim(other);
        EXPECT_EQ(victim.restore(ckpt.path), CkptStatus::kOk);
        EXPECT_EQ(victim.state_digest(), fleet.state_digest());
    }
}

TEST(FleetCkpt, ParallelAndSerialFleetsWriteIdenticalFiles)
{
    TempCkpt serial_ckpt("fleet_ckpt_serial.ckpt");
    TempCkpt parallel_ckpt("fleet_ckpt_parallel.ckpt");
    FarMemorySystem serial(four_cluster_config(true));
    FarMemorySystem parallel(four_cluster_config(false));
    serial.populate();
    parallel.populate();
    for (int i = 0; i < kStepsToDemote; ++i) {
        serial.step();
        parallel.step();
    }
    ASSERT_EQ(serial.checkpoint(serial_ckpt.path), CkptStatus::kOk);
    ASSERT_EQ(parallel.checkpoint(parallel_ckpt.path), CkptStatus::kOk);
    ASSERT_GT(zswap_entries(serial), 0u);
    ByteBuffer serial_bytes = slurp(serial_ckpt.path);
    ASSERT_GT(serial_bytes.size(), 64u);
    EXPECT_EQ(serial_bytes, slurp(parallel_ckpt.path));

    // Either stepping mode restores the other's file.
    FarMemorySystem resumed(four_cluster_config(false));
    ASSERT_EQ(resumed.restore(serial_ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(resumed.state_digest(), serial.state_digest());
    EXPECT_EQ(resumed.now(), serial.now());
}

}  // namespace
}  // namespace sdfm
