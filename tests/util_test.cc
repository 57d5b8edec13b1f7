/**
 * @file
 * Unit tests for the util substrate: RNG and distributions, sample
 * statistics, age histograms, linear algebra, table formatting, and
 * the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "util/age_histogram.h"
#include "util/byte_buffer.h"
#include "util/linalg.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace sdfm {
namespace {

class QuietLogs : public ::testing::Environment
{
  public:
    void SetUp() override { set_log_quiet(true); }
};

const ::testing::Environment *const kQuiet =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.next_double();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, NextBelowBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.next_below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        std::int64_t v = rng.next_range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sum2 = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double g = rng.next_gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.next_exponential(0.5);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ParetoSupportAndTail)
{
    Rng rng(23);
    const int n = 50000;
    int above_10x = 0;
    for (int i = 0; i < n; ++i) {
        double v = rng.next_pareto(60.0, 1.0);
        EXPECT_GE(v, 60.0);
        above_10x += v > 600.0;
    }
    // P(X > 10 * scale) = 0.1 for alpha = 1.
    EXPECT_NEAR(static_cast<double>(above_10x) / n, 0.1, 0.01);
}

TEST(Rng, LognormalMedian)
{
    Rng rng(29);
    const int n = 50001;
    std::vector<double> vals;
    for (int i = 0; i < n; ++i)
        vals.push_back(rng.next_lognormal(std::log(60.0), 1.0));
    std::sort(vals.begin(), vals.end());
    EXPECT_NEAR(vals[n / 2], 60.0, 2.5);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next_u64() == child.next_u64();
    EXPECT_LT(same, 2);
}

TEST(Zipf, Rank0MostPopular)
{
    Rng rng(37);
    ZipfDistribution zipf(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
}

TEST(Zipf, ZeroSkewIsUniformish)
{
    Rng rng(41);
    ZipfDistribution zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 100);
}

// -------------------------------------------------------------- stats

TEST(SampleSet, PercentileInterpolates)
{
    SampleSet s;
    for (double v : {10.0, 20.0, 30.0, 40.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 25.0);
}

TEST(SampleSet, MeanMinMax)
{
    SampleSet s;
    s.add_all({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleSet, CdfAt)
{
    SampleSet s;
    s.add_all({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
    EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(SampleSet, AddInvalidatesSortCache)
{
    SampleSet s;
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 5.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(BoxSummaryTest, QuartilesAndWhiskers)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    BoxSummary box = box_summary(s);
    EXPECT_EQ(box.count, 100u);
    EXPECT_NEAR(box.median, 50.5, 0.01);
    EXPECT_NEAR(box.q1, 25.75, 0.01);
    EXPECT_NEAR(box.q3, 75.25, 0.01);
    EXPECT_DOUBLE_EQ(box.min, 1.0);
    EXPECT_DOUBLE_EQ(box.max, 100.0);
    // whiskers clamp to data range here (no outliers).
    EXPECT_DOUBLE_EQ(box.whisker_lo, 1.0);
    EXPECT_DOUBLE_EQ(box.whisker_hi, 100.0);
}

TEST(BoxSummaryTest, WhiskerClampsOutliers)
{
    SampleSet s;
    for (int i = 0; i < 20; ++i)
        s.add(10.0);
    s.add(1000.0);  // outlier
    BoxSummary box = box_summary(s);
    EXPECT_LT(box.whisker_hi, 1000.0);
}

TEST(RunningMeanTest, WeightedMean)
{
    RunningMean m;
    m.add(1.0, 1.0);
    m.add(3.0, 3.0);
    EXPECT_DOUBLE_EQ(m.mean(), 2.5);
    EXPECT_DOUBLE_EQ(m.total_weight(), 4.0);
}

TEST(CdfPoints, MatchesPercentiles)
{
    SampleSet s;
    for (int i = 0; i <= 100; ++i)
        s.add(i);
    auto points = cdf_points(s, {50.0, 98.0});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].second, 50.0);
    EXPECT_DOUBLE_EQ(points[1].second, 98.0);
}

// ------------------------------------------------------ age histogram

TEST(AgeHistogramTest, BucketConversion)
{
    EXPECT_EQ(age_to_bucket(0), 0);
    EXPECT_EQ(age_to_bucket(119), 0);
    EXPECT_EQ(age_to_bucket(120), 1);
    EXPECT_EQ(age_to_bucket(240), 2);
    EXPECT_EQ(age_to_bucket(255 * 120), 255);
    EXPECT_EQ(age_to_bucket(1000000), 255);  // saturates
    EXPECT_EQ(bucket_to_age(2), 240);
}

TEST(AgeHistogramTest, CumulativeQueries)
{
    AgeHistogram h;
    h.add(0, 10);
    h.add(1, 5);
    h.add(200, 3);
    EXPECT_EQ(h.total(), 18u);
    EXPECT_EQ(h.count_at_least(1), 8u);
    EXPECT_EQ(h.count_at_least(201), 0u);
    EXPECT_EQ(h.count_below(1), 10u);
    EXPECT_EQ(h.count_below(200), 15u);
    EXPECT_EQ(h.count_below(255), 18u);
}

TEST(AgeHistogramTest, DeltaOfSnapshots)
{
    AgeHistogram prev, cur;
    prev.add(3, 2);
    cur.add(3, 5);
    cur.add(7, 1);
    cur.add(9, 4);
    prev.add(9, 4);  // unchanged buckets leave no bin
    SparseAgeHistogram d = SparseAgeHistogram::delta(cur, prev);
    EXPECT_EQ(d.at(3), 3u);
    EXPECT_EQ(d.at(7), 1u);
    EXPECT_EQ(d.at(9), 0u);
    EXPECT_EQ(d.total(), 4u);
    EXPECT_EQ(d.num_bins(), 2u);
}

/**
 * Property: the sparse form answers every query the dense one does,
 * for every bucket, whether it is compacted from a dense histogram or
 * built by adds in any order.
 */
TEST(SparseAgeHistogramTest, MatchesDenseOnEveryBucket)
{
    Rng rng(2024);
    for (int round = 0; round < 200; ++round) {
        AgeHistogram dense;
        SparseAgeHistogram added;
        const std::uint64_t adds = rng.next_below(40);
        for (std::uint64_t i = 0; i < adds; ++i) {
            // Bias towards the edges, where the bin walks turn.
            AgeBucket b = static_cast<AgeBucket>(
                rng.next_bool(0.2) ? (rng.next_bool(0.5) ? 0 : 255)
                                   : rng.next_below(256));
            std::uint64_t count = rng.next_below(1000);
            dense.add(b, count);
            added.add(b, count);
        }
        const SparseAgeHistogram sparse(dense);
        EXPECT_EQ(sparse, added);
        EXPECT_EQ(sparse.total(), dense.total());
        std::size_t nonzero = 0;
        for (std::size_t b = 0; b < kAgeBuckets; ++b) {
            const auto bucket = static_cast<AgeBucket>(b);
            ASSERT_EQ(sparse.at(bucket), dense.at(bucket)) << b;
            ASSERT_EQ(sparse.count_at_least(bucket),
                      dense.count_at_least(bucket))
                << b;
            if (dense.at(bucket) != 0)
                ++nonzero;
        }
        ASSERT_EQ(sparse.num_bins(), nonzero);
        for (std::size_t i = 1; i < sparse.num_bins(); ++i)
            ASSERT_LT(sparse.bin_bucket(i - 1), sparse.bin_bucket(i));
        EXPECT_EQ(sparse.heap_bytes(), nonzero * sizeof(std::uint64_t));
    }
}

TEST(SparseAgeHistogramTest, CountsUpToTheLimitStayInTheirBucket)
{
    SparseAgeHistogram h;
    h.add(7, SparseAgeHistogram::kMaxCount - 1);
    h.add(7, 1);
    h.add(8, 0);  // a zero add leaves no bin
    EXPECT_EQ(h.num_bins(), 1u);
    EXPECT_EQ(h.at(7), SparseAgeHistogram::kMaxCount);
    EXPECT_EQ(h.at(6), 0u);
    EXPECT_EQ(h.at(8), 0u);
    EXPECT_EQ(h.count_at_least(8), 0u);
    EXPECT_EQ(h.count_at_least(0), SparseAgeHistogram::kMaxCount);
}

// -------------------------------------------------------------- linalg

TEST(MatrixTest, MulVector)
{
    Matrix m(2, 3);
    m(0, 0) = 1;
    m(0, 1) = 2;
    m(0, 2) = 3;
    m(1, 0) = 4;
    m(1, 1) = 5;
    m(1, 2) = 6;
    Vector v = {1.0, 1.0, 1.0};
    Vector out = m.mul(v);
    EXPECT_DOUBLE_EQ(out[0], 6.0);
    EXPECT_DOUBLE_EQ(out[1], 15.0);
}

TEST(MatrixTest, Transpose)
{
    Matrix m(2, 3);
    m(0, 2) = 7.0;
    Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
}

TEST(CholeskyTest, SolvesKnownSystem)
{
    // A = [[4,2],[2,3]], SPD. b = [2,1] -> x = [0.5, 0].
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 3;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    Vector x = chol.solve({2.0, 1.0});
    EXPECT_NEAR(x[0], 0.5, 1e-12);
    EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(CholeskyTest, LogDet)
{
    Matrix a(2, 2);
    a(0, 0) = 2;
    a(1, 1) = 8;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    EXPECT_NEAR(chol.log_det(), std::log(16.0), 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite)
{
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 1;  // eigenvalues 3, -1
    Cholesky chol(a);
    EXPECT_FALSE(chol.ok());
}

TEST(CholeskyTest, RandomSpdRoundTrip)
{
    Rng rng(43);
    for (int trial = 0; trial < 20; ++trial) {
        std::size_t n = 1 + rng.next_below(8);
        // A = B B^T + I is SPD.
        Matrix b(n, n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                b(i, j) = rng.next_gaussian();
        Matrix a = b.mul(b.transposed());
        for (std::size_t i = 0; i < n; ++i)
            a(i, i) += 1.0;
        Vector x_true(n);
        for (auto &v : x_true)
            v = rng.next_gaussian();
        Vector rhs = a.mul(x_true);
        Cholesky chol(a);
        ASSERT_TRUE(chol.ok());
        Vector x = chol.solve(rhs);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], x_true[i], 1e-8);
    }
}

TEST(DotTest, Basic)
{
    EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
}

// -------------------------------------------------------------- table

TEST(TableTest, AlignsColumns)
{
    TablePrinter t({"a", "long_header"});
    t.add_row({"xxxxx", "1"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| a     |"), std::string::npos);
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
    EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
    EXPECT_EQ(fmt_bytes(2048.0), "2.0 KiB");
    EXPECT_EQ(fmt_bytes(3.0 * 1024 * 1024), "3.0 MiB");
    EXPECT_EQ(fmt_int(-7), "-7");
}

TEST(CsvTest, QuotesSpecials)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.write_row({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

// --------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndexSpace)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(pool, hits.size(),
                 [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty)
{
    ThreadPool pool(2);
    parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool)
{
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    SUCCEED();
}

// ----------------------------------------------------------- ByteBuffer

TEST(ByteBuffer, GrowsPastTheMappedThresholdKeepingItsBytes)
{
    // Byte-at-a-time growth crosses from malloc into a mapping, through
    // mremap, and into huge-page capacities.
    ByteBuffer buf;
    const std::size_t n = 5 * 1024 * 1024 + 3;
    for (std::size_t i = 0; i < n; ++i)
        buf.push_back(static_cast<std::uint8_t>(i * 131 + 7));
    ASSERT_EQ(buf.size(), n);
    for (std::size_t i = 0; i < n; i += 4093)
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 131 + 7)) << i;
    EXPECT_EQ(buf[n - 1], static_cast<std::uint8_t>((n - 1) * 131 + 7));

    buf.resize(n + kByteBufferMapBytes);  // growth is zero-filled
    EXPECT_EQ(buf[n], 0u);
    EXPECT_EQ(buf[buf.size() - 1], 0u);
    buf.resize(10);
    EXPECT_EQ(buf, (ByteBuffer{7, 138, 13, 144, 19, 150, 25, 156, 31, 162}));
}

TEST(ByteBuffer, CopiesAndMovesAreValueSemantics)
{
    ByteBuffer big(3 * kByteBufferMapBytes);
    big[12345] = 9;
    ByteBuffer copy = big;
    EXPECT_EQ(copy, big);
    copy[12345] = 10;
    EXPECT_FALSE(copy == big);

    ByteBuffer moved = std::move(copy);
    EXPECT_EQ(moved.size(), big.size());
    EXPECT_EQ(moved[12345], 10u);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

    ByteBuffer small{1, 2, 3};
    small = big;  // a mapped buffer into a malloc'd one
    EXPECT_EQ(small, big);
    big = ByteBuffer{4, 5};  // and back
    EXPECT_EQ(big, (ByteBuffer{4, 5}));

    const std::vector<std::uint8_t> source = {6, 7, 8};
    EXPECT_EQ(ByteBuffer(source.begin(), source.end()),
              (ByteBuffer{6, 7, 8}));
}

}  // namespace
}  // namespace sdfm
