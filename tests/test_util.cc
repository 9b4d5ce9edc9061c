/**
 * @file
 * Unit tests for the util substrate: logging, RNG, bit vectors,
 * saturation, statistics, tables, CSV and JSON.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/bitvec.hh"
#include "util/csv.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/saturate.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace nscs {
namespace {

// --- logging ---------------------------------------------------------------

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strprintf("%05.2f", 3.14159), "03.14");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Logging, AssertPassesOnTrue)
{
    NSCS_ASSERT(1 + 1 == 2, "math still works");
    SUCCEED();
}

TEST(LoggingDeath, AssertPanicsOnFalse)
{
    EXPECT_DEATH(NSCS_ASSERT(false, "value was %d", 7), "value was 7");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 3), "boom 3");
}

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

// --- Lfsr16 ----------------------------------------------------------------

TEST(Lfsr16, ZeroSeedRemapped)
{
    Lfsr16 a(0);
    Lfsr16 b(0xACE1);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Lfsr16, Deterministic)
{
    Lfsr16 a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Lfsr16, MaximalPeriod)
{
    // A maximal 16-bit LFSR revisits its seed after 2^16 - 1 steps
    // and never hits zero.
    Lfsr16 rng(1);
    uint32_t period = 0;
    uint16_t state;
    do {
        state = rng.next();
        ASSERT_NE(state, 0);
        ++period;
        ASSERT_LE(period, 70000u);
    } while (state != 1);
    EXPECT_EQ(period, 65535u);
}

TEST(Lfsr16, DrawCounting)
{
    Lfsr16 rng(7);
    EXPECT_EQ(rng.draws(), 0u);
    rng.next();
    rng.nextByte();
    rng.nextMasked(4);
    EXPECT_EQ(rng.draws(), 3u);
    rng.reset(7);
    EXPECT_EQ(rng.draws(), 0u);
}

TEST(Lfsr16, MaskedBitsBounded)
{
    Lfsr16 rng(99);
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(rng.nextMasked(5), 32u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextMasked(0), 0u);
}

TEST(Lfsr16, ByteDistributionRoughlyUniform)
{
    Lfsr16 rng(0x1234);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextByte();
    double mean = sum / n;
    EXPECT_NEAR(mean, 127.5, 3.0);
}

// --- Xoshiro256 ------------------------------------------------------------

TEST(Xoshiro, DeterministicAcrossInstances)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Xoshiro, UniformInUnitInterval)
{
    Xoshiro256 rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Xoshiro, BelowIsInRangeAndCoversAll)
{
    Xoshiro256 rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro, RangeInclusive)
{
    Xoshiro256 rng(13);
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
    }
}

TEST(Xoshiro, NormalMoments)
{
    Xoshiro256 rng(5);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Xoshiro, PoissonMeanSmallLambda)
{
    Xoshiro256 rng(3);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(2.5));
    EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Xoshiro, PoissonMeanLargeLambda)
{
    Xoshiro256 rng(4);
    double sum = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(100.0));
    EXPECT_NEAR(sum / n, 100.0, 1.5);
}

TEST(Xoshiro, PoissonZeroLambda)
{
    Xoshiro256 rng(6);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

// --- BitVec ----------------------------------------------------------------

TEST(BitVec, SetTestClear)
{
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(129));
    EXPECT_FALSE(v.test(1));
    EXPECT_EQ(v.count(), 3u);
    v.clear(64);
    EXPECT_FALSE(v.test(64));
    EXPECT_EQ(v.count(), 2u);
    v.reset();
    EXPECT_TRUE(v.none());
}

TEST(BitVec, ForEachSetVisitsAscending)
{
    BitVec v(200);
    std::vector<size_t> want = {3, 63, 64, 65, 127, 128, 199};
    for (size_t i : want)
        v.set(i);
    std::vector<size_t> got;
    v.forEachSet([&got](size_t i) { got.push_back(i); });
    EXPECT_EQ(got, want);
}

TEST(BitVec, OrAndOperators)
{
    BitVec a(70), b(70);
    a.set(1);
    a.set(68);
    b.set(2);
    b.set(68);
    BitVec o = a;
    o |= b;
    EXPECT_EQ(o.count(), 3u);
    BitVec n = a;
    n &= b;
    EXPECT_EQ(n.count(), 1u);
    EXPECT_TRUE(n.test(68));
}

TEST(BitVec, WordCombinators)
{
    BitVec a(130), b(130);
    a.set(0);
    a.set(64);
    a.set(129);
    b.set(64);
    b.set(100);

    EXPECT_EQ(a.andPopcount(b), 1u);
    EXPECT_TRUE(a.intersects(b));

    // orAccumulate reports whether any bit changed.
    BitVec acc = a;
    EXPECT_TRUE(acc.orAccumulate(b));
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_FALSE(acc.orAccumulate(b));

    BitVec empty(130);
    EXPECT_EQ(a.andPopcount(empty), 0u);
    EXPECT_FALSE(a.intersects(empty));

    // forEachSetMasked visits the intersection in ascending order.
    std::vector<size_t> masked;
    a.forEachSetMasked(b, [&masked](size_t i) { masked.push_back(i); });
    EXPECT_EQ(masked, (std::vector<size_t>{64}));
}

TEST(BitVecDeath, CombinatorSizeMismatchPanics)
{
    BitVec a(64), b(65);
    EXPECT_DEATH(a.andPopcount(b), "size mismatch");
    EXPECT_DEATH(a.orAccumulate(b), "size mismatch");
    EXPECT_DEATH(a.intersects(b), "size mismatch");
    EXPECT_DEATH(a.forEachSetMasked(b, [](size_t) {}), "size mismatch");
}

TEST(BitVec, EqualityIncludesSize)
{
    BitVec a(10), b(10), c(11);
    EXPECT_EQ(a, b);
    a.set(3);
    EXPECT_NE(a, b);
    b.set(3);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(BitVecDeath, OutOfRangePanics)
{
    BitVec v(8);
    EXPECT_DEATH(v.set(8), "out of range");
    EXPECT_DEATH((void)v.test(100), "out of range");
}

// --- saturate --------------------------------------------------------------

TEST(Saturate, Bounds)
{
    EXPECT_EQ(satMax(8), 127);
    EXPECT_EQ(satMin(8), -128);
    EXPECT_EQ(satMax(20), 524287);
    EXPECT_EQ(satMin(20), -524288);
    EXPECT_EQ(satMax(31), INT32_MAX);
    EXPECT_EQ(satMin(31), INT32_MIN);
}

TEST(Saturate, AddClamps)
{
    EXPECT_EQ(satAdd(120, 10, 8), 127);
    EXPECT_EQ(satAdd(-120, -10, 8), -128);
    EXPECT_EQ(satAdd(100, 10, 8), 110);
    EXPECT_EQ(satAdd(0, 0, 8), 0);
}

TEST(Saturate, ClampIsMonotone)
{
    for (int64_t v = -1000; v <= 1000; v += 7) {
        int32_t c1 = satClamp(v, 8);
        int32_t c2 = satClamp(v + 1, 8);
        EXPECT_LE(c1, c2);
    }
}

// --- stats -----------------------------------------------------------------

TEST(RunningStat, MeanVarMinMax)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(Histogram, BinningAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(5.5);
    h.add(9.999);
    h.add(10.0);
    h.add(42.0);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
}

TEST(Histogram, QuantileOrdering)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 1000; ++i)
        h.add(static_cast<double>(i % 100));
    double p50 = h.quantile(0.5);
    double p99 = h.quantile(0.99);
    EXPECT_LE(p50, p99);
    EXPECT_NEAR(p50, 50.0, 2.0);
    EXPECT_NEAR(p99, 99.0, 2.0);
}

TEST(StatGroup, FormatAndGet)
{
    StatGroup g;
    g.add("a.b", 1.5, "first");
    g.add("a.c", 2.0, "second");
    EXPECT_DOUBLE_EQ(g.get("a.b"), 1.5);
    EXPECT_TRUE(std::isnan(g.get("missing")));
    std::string text = g.format();
    EXPECT_NE(text.find("a.b"), std::string::npos);
    EXPECT_NE(text.find("# first"), std::string::npos);
}

// --- table -----------------------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtInt(1234567), "1,234,567");
    EXPECT_EQ(fmtInt(7), "7");
    EXPECT_EQ(fmtSi(0.0), "0");
    EXPECT_EQ(fmtSi(2.56e9), "2.56G");
    EXPECT_EQ(fmtSi(26e-12, "J"), "26.0pJ");
    EXPECT_EQ(fmtBytes(512), "512 B");
    EXPECT_EQ(fmtBytes(1536 * 1024), "1.50 MiB");
}

// --- csv -------------------------------------------------------------------

TEST(Csv, EscapesSpecials)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, WritesRows)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.row({"a", "b,c"});
    w.row({"1", "2"});
    EXPECT_EQ(os.str(), "a,\"b,c\"\n1,2\n");
}

// --- json ------------------------------------------------------------------

TEST(Json, ScalarRoundTrip)
{
    JsonValue o = JsonValue::object();
    o.set("i", JsonValue::integer(-42));
    o.set("d", JsonValue::number(2.5));
    o.set("s", JsonValue::string("hi \"there\"\n"));
    o.set("b", JsonValue::boolean(true));
    o.set("n", JsonValue());

    auto res = parseJson(o.dump());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.at("i").asInt(), -42);
    EXPECT_DOUBLE_EQ(res.value.at("d").asDouble(), 2.5);
    EXPECT_EQ(res.value.at("s").asString(), "hi \"there\"\n");
    EXPECT_TRUE(res.value.at("b").asBool());
    EXPECT_TRUE(res.value.at("n").isNull());
}

TEST(Json, ArraysNest)
{
    auto res = parseJson("[1, [2, 3], {\"k\": [4]}]");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.size(), 3u);
    EXPECT_EQ(res.value.at(1).at(1).asInt(), 3);
    EXPECT_EQ(res.value.at(2).at("k").at(0).asInt(), 4);
}

TEST(Json, PrettyPrintParses)
{
    JsonValue arr = JsonValue::array();
    for (int i = 0; i < 3; ++i)
        arr.append(JsonValue::integer(i));
    JsonValue o = JsonValue::object();
    o.set("xs", std::move(arr));
    std::string pretty = o.dump(2);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    auto res = parseJson(pretty);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.at("xs").size(), 3u);
}

TEST(Json, ParseErrorsReported)
{
    EXPECT_FALSE(parseJson("").ok);
    EXPECT_FALSE(parseJson("{").ok);
    EXPECT_FALSE(parseJson("[1,]").ok);
    EXPECT_FALSE(parseJson("{\"a\" 1}").ok);
    EXPECT_FALSE(parseJson("tru").ok);
    EXPECT_FALSE(parseJson("1 2").ok);
    EXPECT_FALSE(parseJson("\"unterminated").ok);
}

TEST(Json, NumbersIntegralVsFloat)
{
    auto res = parseJson("[7, 7.0, 7e0, -0]");
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.value.at(0).type(), JsonValue::Type::Int);
    EXPECT_EQ(res.value.at(1).type(), JsonValue::Type::Double);
    EXPECT_EQ(res.value.at(1).asInt(), 7);
    EXPECT_EQ(res.value.at(2).asInt(), 7);
}

TEST(Json, UnicodeEscapes)
{
    auto res = parseJson("\"a\\u0041\\u00e9\"");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.asString(), "aA\xc3\xa9");
}

TEST(Json, GettersWithDefaults)
{
    auto res = parseJson("{\"x\": 5}");
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.value.getInt("x", 0), 5);
    EXPECT_EQ(res.value.getInt("y", 9), 9);
    EXPECT_EQ(res.value.getString("z", "dflt"), "dflt");
    EXPECT_TRUE(res.value.getBool("w", true));
}

TEST(Json, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/nscs_json_test.json";
    ASSERT_TRUE(writeFile(path, "{\"k\": [1, 2]}"));
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    auto res = parseJson(text);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.value.at("k").size(), 2u);
    EXPECT_FALSE(readFile("/nonexistent/nope", text));
}

} // anonymous namespace
} // namespace nscs
