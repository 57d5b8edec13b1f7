/**
 * @file
 * Tests for the compression substrate: szo round-trip properties,
 * content-class compressibility, the real/modeled compressor
 * backends, and the cost model.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "compression/compressor.h"
#include "compression/cost_model.h"
#include "compression/page_content.h"
#include "compression/szo.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sdfm {
namespace {

std::vector<std::uint8_t>
compress_all(const std::vector<std::uint8_t> &src)
{
    std::vector<std::uint8_t> dst(szo_max_compressed_size(src.size()));
    std::size_t n = szo_compress(src.data(), src.size(), dst.data(),
                                 dst.size());
    dst.resize(n);
    return dst;
}

std::vector<std::uint8_t>
decompress_all(const std::vector<std::uint8_t> &compressed,
               std::size_t expected)
{
    std::vector<std::uint8_t> out(expected + 64);
    std::size_t n = szo_decompress(compressed.data(), compressed.size(),
                                   out.data(), out.size());
    out.resize(n);
    return out;
}

// ----------------------------------------------------------------- szo

TEST(Szo, EmptyInput)
{
    std::uint8_t dst[16];
    EXPECT_EQ(szo_compress(nullptr, 0, dst, sizeof(dst)), 0u);
}

TEST(Szo, RoundTripTinyInputs)
{
    for (std::size_t len = 1; len <= 16; ++len) {
        std::vector<std::uint8_t> src(len);
        for (std::size_t i = 0; i < len; ++i)
            src[i] = static_cast<std::uint8_t>(i * 37 + 1);
        auto compressed = compress_all(src);
        ASSERT_FALSE(compressed.empty());
        EXPECT_EQ(decompress_all(compressed, len), src);
    }
}

TEST(Szo, RoundTripAllZeros)
{
    std::vector<std::uint8_t> src(4096, 0);
    auto compressed = compress_all(src);
    EXPECT_LT(compressed.size(), 64u);  // RLE-like via overlap copy
    EXPECT_EQ(decompress_all(compressed, src.size()), src);
}

TEST(Szo, RoundTripRepeatingPattern)
{
    std::vector<std::uint8_t> src;
    for (int i = 0; i < 512; ++i)
        for (char b : {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'})
            src.push_back(static_cast<std::uint8_t>(b));
    auto compressed = compress_all(src);
    EXPECT_LT(compressed.size(), src.size() / 10);
    EXPECT_EQ(decompress_all(compressed, src.size()), src);
}

TEST(Szo, RandomDataExpandsButRoundTrips)
{
    Rng rng(1);
    std::vector<std::uint8_t> src(4096);
    for (auto &b : src)
        b = static_cast<std::uint8_t>(rng.next_u64());
    auto compressed = compress_all(src);
    EXPECT_GT(compressed.size(), src.size());  // incompressible
    EXPECT_LE(compressed.size(), szo_max_compressed_size(src.size()));
    EXPECT_EQ(decompress_all(compressed, src.size()), src);
}

TEST(Szo, CapOverflowReturnsZero)
{
    Rng rng(2);
    std::vector<std::uint8_t> src(4096);
    for (auto &b : src)
        b = static_cast<std::uint8_t>(rng.next_u64());
    std::vector<std::uint8_t> dst(1024);
    EXPECT_EQ(szo_compress(src.data(), src.size(), dst.data(), dst.size()),
              0u);
}

TEST(Szo, DecompressRejectsTruncated)
{
    std::vector<std::uint8_t> src(1024, 'x');
    auto compressed = compress_all(src);
    ASSERT_GT(compressed.size(), 4u);
    // Drop the tail: either decode fails (0) or yields a short,
    // validly-decoded prefix -- never a crash or over-read.
    std::vector<std::uint8_t> truncated(compressed.begin(),
                                        compressed.end() - 3);
    std::vector<std::uint8_t> out(2048);
    std::size_t n = szo_decompress(truncated.data(), truncated.size(),
                                   out.data(), out.size());
    EXPECT_LE(n, src.size());
}

TEST(Szo, DecompressRejectsBadOffset)
{
    // Token demanding a match before the start of output.
    std::vector<std::uint8_t> bad = {0x10, 'a', 0xFF, 0x00, 0x00};
    std::uint8_t out[64];
    EXPECT_EQ(szo_decompress(bad.data(), bad.size(), out, sizeof(out)), 0u);
}

TEST(Szo, DecompressRespectsDstCap)
{
    std::vector<std::uint8_t> src(4096, 'y');
    auto compressed = compress_all(src);
    std::uint8_t out[128];
    EXPECT_EQ(szo_decompress(compressed.data(), compressed.size(), out,
                             sizeof(out)),
              0u);
}

/** Property test: round-trip over many random structured buffers. */
class SzoRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SzoRoundTrip, MixedContent)
{
    Rng rng(GetParam());
    // Mix runs of repeated bytes, motifs, and noise.
    std::vector<std::uint8_t> src;
    std::size_t target = 1 + rng.next_below(8192);
    while (src.size() < target) {
        switch (rng.next_below(3)) {
          case 0: {  // run
            std::uint8_t b = static_cast<std::uint8_t>(rng.next_u64());
            std::size_t n = 1 + rng.next_below(300);
            src.insert(src.end(), n, b);
            break;
          }
          case 1: {  // copy earlier chunk
            if (src.empty())
                break;
            std::size_t from = rng.next_below(src.size());
            std::size_t n = 1 + rng.next_below(200);
            for (std::size_t i = 0; i < n; ++i)
                src.push_back(src[from + (i % (src.size() - from))]);
            break;
          }
          default: {  // noise
            std::size_t n = 1 + rng.next_below(60);
            for (std::size_t i = 0; i < n; ++i)
                src.push_back(static_cast<std::uint8_t>(rng.next_u64()));
            break;
          }
        }
    }
    src.resize(target);
    auto compressed = compress_all(src);
    ASSERT_FALSE(compressed.empty());
    EXPECT_EQ(decompress_all(compressed, src.size()), src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SzoRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------- szo levels

class SzoLevelRoundTrip
    : public ::testing::TestWithParam<std::tuple<SzoLevel, int>>
{
};

TEST_P(SzoLevelRoundTrip, AllClassesAllLevels)
{
    auto [level, cls_int] = GetParam();
    auto cls = static_cast<ContentClass>(cls_int);
    std::uint8_t page[kPageSize];
    generate_page_content(cls, 777, page);
    std::vector<std::uint8_t> dst(szo_max_compressed_size(kPageSize));
    std::size_t n = szo_compress_level(page, kPageSize, dst.data(),
                                       dst.size(), level);
    ASSERT_GT(n, 0u);
    std::uint8_t out[kPageSize];
    ASSERT_EQ(szo_decompress(dst.data(), n, out, sizeof(out)), kPageSize);
    EXPECT_EQ(std::memcmp(out, page, kPageSize), 0)
        << szo_level_name(level) << "/" << content_class_name(cls);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SzoLevelRoundTrip,
    ::testing::Combine(::testing::Values(SzoLevel::kFast,
                                         SzoLevel::kDefault,
                                         SzoLevel::kHigh),
                       ::testing::Range(0, 5)));

TEST(SzoLevels, HighRatioAtLeastDefault)
{
    // The chain search can only find equal-or-longer matches.
    for (ContentClass cls :
         {ContentClass::kText, ContentClass::kStructured,
          ContentClass::kBinary}) {
        double default_total = 0.0, high_total = 0.0;
        std::vector<std::uint8_t> dst(szo_max_compressed_size(kPageSize));
        for (unsigned i = 0; i < 30; ++i) {
            std::uint8_t page[kPageSize];
            generate_page_content(cls, 900 + i, page);
            default_total += static_cast<double>(szo_compress_level(
                page, kPageSize, dst.data(), dst.size(),
                SzoLevel::kDefault));
            high_total += static_cast<double>(szo_compress_level(
                page, kPageSize, dst.data(), dst.size(),
                SzoLevel::kHigh));
        }
        EXPECT_LE(high_total, default_total * 1.01)
            << content_class_name(cls);
    }
}

TEST(SzoLevels, DefaultIsAlias)
{
    std::uint8_t page[kPageSize];
    generate_page_content(ContentClass::kText, 42, page);
    std::vector<std::uint8_t> a(szo_max_compressed_size(kPageSize));
    std::vector<std::uint8_t> b(szo_max_compressed_size(kPageSize));
    std::size_t na = szo_compress(page, kPageSize, a.data(), a.size());
    std::size_t nb = szo_compress_level(page, kPageSize, b.data(),
                                        b.size(), SzoLevel::kDefault);
    ASSERT_EQ(na, nb);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), na), 0);
}

TEST(SzoLevels, Names)
{
    EXPECT_STREQ(szo_level_name(SzoLevel::kFast), "fast");
    EXPECT_STREQ(szo_level_name(SzoLevel::kDefault), "default");
    EXPECT_STREQ(szo_level_name(SzoLevel::kHigh), "high");
}

// -------------------------------------------------------- page content

TEST(PageContent, Deterministic)
{
    std::uint8_t a[kPageSize], b[kPageSize];
    generate_page_content(ContentClass::kText, 42, a);
    generate_page_content(ContentClass::kText, 42, b);
    EXPECT_EQ(std::memcmp(a, b, kPageSize), 0);
}

TEST(PageContent, SeedChangesContent)
{
    std::uint8_t a[kPageSize], b[kPageSize];
    generate_page_content(ContentClass::kText, 42, a);
    generate_page_content(ContentClass::kText, 43, b);
    EXPECT_NE(std::memcmp(a, b, kPageSize), 0);
}

TEST(PageContent, ClassNames)
{
    EXPECT_STREQ(content_class_name(ContentClass::kZero), "zero");
    EXPECT_STREQ(content_class_name(ContentClass::kIncompressible),
                 "incompressible");
}

TEST(ContentMixTest, ProbabilitiesNormalize)
{
    ContentMix mix(1.0, 1.0, 1.0, 1.0, 1.0);
    double total = 0.0;
    for (int c = 0; c < static_cast<int>(ContentClass::kNumClasses); ++c)
        total += mix.probability(static_cast<ContentClass>(c));
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ContentMixTest, PickMatchesWeights)
{
    ContentMix mix(0.0, 0.0, 1.0, 0.0, 1.0);
    int structured = 0, incompressible = 0;
    for (std::uint64_t s = 0; s < 10000; ++s) {
        ContentClass c = mix.pick(s * 2654435761ULL);
        if (c == ContentClass::kStructured)
            ++structured;
        else if (c == ContentClass::kIncompressible)
            ++incompressible;
        else
            FAIL() << "zero-weight class drawn";
    }
    EXPECT_NEAR(structured, 5000, 300);
    EXPECT_NEAR(incompressible, 5000, 300);
}

TEST(ContentMixTest, TypicalIncompressibleShare)
{
    // Figure 9a: ~31% of cold memory is incompressible.
    ContentMix mix = ContentMix::typical();
    EXPECT_NEAR(mix.probability(ContentClass::kIncompressible), 0.31, 0.02);
}

// --------------------------------------------------- class ratio bands

struct ClassRatioBand
{
    ContentClass cls;
    double min_ratio;
    double max_ratio;
};

// Without a printer gtest names each case after the raw bytes of the
// struct, padding included, so the name would change from build to
// build.
void
PrintTo(const ClassRatioBand &band, std::ostream *os)
{
    *os << content_class_name(band.cls) << " ratio " << band.min_ratio
        << " to " << band.max_ratio;
}

class ClassCompressibility
    : public ::testing::TestWithParam<ClassRatioBand>
{
};

TEST_P(ClassCompressibility, RealRatioInBand)
{
    const ClassRatioBand &band = GetParam();
    RealCompressor rc;
    double sum = 0.0;
    const int n = 50;
    for (int i = 0; i < n; ++i) {
        CompressionResult r =
            rc.compress_page(band.cls, 5000 + static_cast<unsigned>(i));
        sum += static_cast<double>(r.compressed_size);
    }
    double ratio = kPageSize / (sum / n);
    EXPECT_GE(ratio, band.min_ratio);
    EXPECT_LE(ratio, band.max_ratio);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, ClassCompressibility,
    ::testing::Values(
        ClassRatioBand{ContentClass::kZero, 50.0, 1000.0},
        ClassRatioBand{ContentClass::kText, 2.5, 6.0},
        ClassRatioBand{ContentClass::kStructured, 2.0, 4.0},
        ClassRatioBand{ContentClass::kBinary, 1.6, 3.0},
        ClassRatioBand{ContentClass::kIncompressible, 0.9, 1.05}));

// ---------------------------------------------------------- compressor

TEST(RealCompressorTest, IncompressibleRejected)
{
    RealCompressor rc;
    CompressionResult r =
        rc.compress_page(ContentClass::kIncompressible, 1);
    EXPECT_FALSE(r.accepted());
    EXPECT_GT(r.compressed_size, kMaxZswapPayload);
    EXPECT_GT(r.compress_cycles, 0.0);  // cycles burned anyway
}

TEST(RealCompressorTest, DeterministicPerSeed)
{
    RealCompressor rc;
    CompressionResult a = rc.compress_page(ContentClass::kText, 99);
    CompressionResult b = rc.compress_page(ContentClass::kText, 99);
    EXPECT_EQ(a.compressed_size, b.compressed_size);
}

TEST(ModeledCompressorTest, DeterministicPerSeed)
{
    ModeledCompressor mc;
    CompressionResult a = mc.compress_page(ContentClass::kBinary, 7);
    CompressionResult b = mc.compress_page(ContentClass::kBinary, 7);
    EXPECT_EQ(a.compressed_size, b.compressed_size);
}

TEST(ModeledCompressorTest, MatchesRealWithinTolerance)
{
    // The modeled per-class means must track the real compressor
    // within 20% so fleet-scale runs stay faithful.
    RealCompressor rc;
    for (ContentClass cls :
         {ContentClass::kText, ContentClass::kStructured,
          ContentClass::kBinary}) {
        double real_sum = 0.0;
        const int n = 100;
        for (int i = 0; i < n; ++i) {
            real_sum += rc.compress_page(cls, 7000 + static_cast<unsigned>(i))
                            .compressed_size;
        }
        double real_mean = real_sum / n;
        double modeled = ModeledCompressor::class_mean_payload(cls);
        EXPECT_NEAR(modeled / real_mean, 1.0, 0.2)
            << content_class_name(cls);
    }
}

TEST(ModeledCompressorTest, IncompressibleAlwaysRejected)
{
    ModeledCompressor mc;
    for (std::uint64_t s = 0; s < 200; ++s) {
        EXPECT_FALSE(
            mc.compress_page(ContentClass::kIncompressible, s).accepted());
    }
}

TEST(CompressionResultTest, Ratio)
{
    CompressionResult r;
    r.compressed_size = 1024;
    EXPECT_DOUBLE_EQ(r.ratio(), 4.0);
}

TEST(MakeCompressorTest, SelectsBackend)
{
    auto real = make_compressor(CompressionMode::kReal);
    auto modeled = make_compressor(CompressionMode::kModeled);
    EXPECT_NE(dynamic_cast<RealCompressor *>(real.get()), nullptr);
    EXPECT_NE(dynamic_cast<ModeledCompressor *>(modeled.get()), nullptr);
}

// ----------------------------------------------------------- cost model

TEST(CostModelTest, AffineInBytes)
{
    CostModel model;
    double small = model.compress_cycles(1024);
    double big = model.compress_cycles(4096);
    EXPECT_GT(big, small);
    EXPECT_NEAR(big - small,
                model.params().compress_cycles_per_input_byte * 3072,
                1e-9);
}

TEST(CostModelTest, DecompressLatencyNearPaper)
{
    // Figure 9b: ~6.4 us median for a typical (3x-compressed) page.
    CostModel model;
    double us = model.cycles_to_us(model.decompress_cycles(1365, kPageSize));
    EXPECT_GT(us, 4.0);
    EXPECT_LT(us, 9.0);
}

TEST(CostModelTest, JitterIsUnbiasedish)
{
    CostModel model;
    Rng rng(3);
    double base = model.cycles_to_us(model.decompress_cycles(1365,
                                                             kPageSize));
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += model.sample_decompress_latency_us(1365, kPageSize, rng);
    // lognormal(0, sigma) has mean exp(sigma^2/2) ~ 1.0085.
    EXPECT_NEAR(sum / n / base, 1.0085, 0.02);
}

TEST(CostModelTest, TailAbovemedian)
{
    CostModel model;
    Rng rng(5);
    SampleSet samples;
    for (int i = 0; i < 20000; ++i)
        samples.add(
            model.sample_decompress_latency_us(1365, kPageSize, rng));
    EXPECT_GT(samples.percentile(98.0), samples.percentile(50.0) * 1.2);
}

}  // namespace
}  // namespace sdfm
