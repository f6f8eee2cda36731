/**
 * @file
 * Unit tests for the utility layer: RNG, statistics, tables, logging.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "util/json.h"
#include "util/log.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace isrf {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng r(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 5000; i++) {
        int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 20000; i++) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ReseedReproduces)
{
    Rng r(5);
    uint64_t first = r.next();
    r.next();
    r.reseed(5);
    EXPECT_EQ(r.next(), first);
}

TEST(Counter, IncAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0, 10, 5);
    h.sample(-1);
    h.sample(0);
    h.sample(3.9);
    h.sample(10);
    h.sample(25);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.totalSamples(), 5u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_DOUBLE_EQ(h.bucketLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(1), 4.0);
}

TEST(StatGroup, CountersByName)
{
    StatGroup g("grp");
    g.counter("a").inc(3);
    g.counter("a").inc();
    EXPECT_EQ(g.counterValue("a"), 4u);
    EXPECT_EQ(g.counterValue("missing"), 0u);
    EXPECT_TRUE(g.hasCounter("a"));
    EXPECT_FALSE(g.hasCounter("b"));
    g.resetAll();
    EXPECT_EQ(g.counterValue("a"), 0u);
}

TEST(Table, RendersAlignedCells)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2"});
    std::string s = t.render();
    EXPECT_NE(s.find("| name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, DoubleRowFormatting)
{
    Table t({"bench", "a", "b"});
    t.addRow("fft", {1.0, 0.4467}, 2);
    std::string s = t.render();
    EXPECT_NE(s.find("1.00"), std::string::npos);
    EXPECT_NE(s.find("0.45"), std::string::npos);
}

TEST(Table, CsvEscapesCommas)
{
    Table t({"a"});
    t.addRow({"x,y"});
    EXPECT_NE(t.renderCsv().find("\"x,y\""), std::string::npos);
}

TEST(Strprintf, Formats)
{
    EXPECT_EQ(strprintf("%d-%s", 3, "a"), "3-a");
    EXPECT_EQ(strprintf("%.2f", 1.239), "1.24");
}

TEST(AsciiBar, Proportional)
{
    std::string full = asciiBar(10, 10, 10);
    std::string half = asciiBar(5, 10, 10);
    EXPECT_EQ(full, std::string(10, '#'));
    EXPECT_EQ(half.substr(0, 5), std::string(5, '#'));
    EXPECT_EQ(half.size(), 10u);
}

TEST(JsonWriter, ObjectsArraysAndCommas)
{
    JsonWriter w;
    w.beginObject();
    w.field("a", static_cast<uint64_t>(1));
    w.field("b", std::string("two"));
    w.key("c").beginArray();
    w.value(static_cast<uint64_t>(3));
    w.value(true);
    w.beginObject();
    w.field("d", 2.5);
    w.endObject();
    w.endArray();
    w.endObject();
    std::string s = w.str();
    EXPECT_EQ(s, "{\"a\":1,\"b\":\"two\",\"c\":[3,true,{\"d\":2.5}]}");
    EXPECT_TRUE(jsonValid(s));
}

TEST(JsonWriter, EscapesStrings)
{
    JsonWriter w;
    w.beginObject();
    w.field("k", std::string("a\"b\\c\nd\te"));
    w.endObject();
    std::string s = w.str();
    EXPECT_TRUE(jsonValid(s)) << s;
    EXPECT_NE(s.find("\\\""), std::string::npos);
    EXPECT_NE(s.find("\\n"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginObject();
    w.field("nan", std::nan(""));
    w.field("inf", std::numeric_limits<double>::infinity());
    w.endObject();
    std::string s = w.str();
    EXPECT_EQ(s, "{\"nan\":null,\"inf\":null}");
    EXPECT_TRUE(jsonValid(s));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNullEverywhere)
{
    // The null mapping must hold in every value position — array
    // elements, nested objects, bare value() — not just field(); a raw
    // "nan" or "inf" token anywhere makes the whole document invalid
    // JSON, which a journal reader would then reject as corrupt.
    JsonWriter w;
    w.beginObject();
    w.key("arr").beginArray();
    w.value(std::nan(""));
    w.value(-std::numeric_limits<double>::infinity());
    w.value(1.5);
    w.endArray();
    w.key("nested").beginObject();
    w.field("ninf", -std::numeric_limits<double>::infinity());
    w.endObject();
    w.endObject();
    std::string s = w.str();
    EXPECT_EQ(s, "{\"arr\":[null,null,1.5],\"nested\":{\"ninf\":null}}");
    EXPECT_TRUE(jsonValid(s));
    // Denormals and extremes stay finite numbers, not null.
    JsonWriter w2;
    w2.beginObject();
    w2.field("denorm", std::numeric_limits<double>::denorm_min());
    w2.field("max", std::numeric_limits<double>::max());
    w2.endObject();
    EXPECT_TRUE(jsonValid(w2.str()));
    EXPECT_EQ(w2.str().find("null"), std::string::npos);
}

/**
 * Seeded writer->validator fuzz: every document the streaming writer
 * can emit (random nesting, keys, escapes, numeric extremes) must pass
 * the strict structural validator.
 */
class JsonFuzzer
{
  public:
    explicit JsonFuzzer(uint64_t seed) : rng_(seed) {}

    std::string
    document()
    {
        JsonWriter w;
        value(w, 0);
        return w.str();
    }

  private:
    void
    value(JsonWriter &w, int depth)
    {
        uint64_t pick = rng_.below(depth >= 4 ? 5 : 7);
        switch (pick) {
          case 0: w.value(randomString()); break;
          case 1: w.value(rng_.next()); break;
          case 2:
            w.value(static_cast<int64_t>(rng_.next()));
            break;
          case 3: w.value(rng_.uniform() * 1e9 - 5e8); break;
          case 4: w.value(rng_.chance(0.5)); break;
          case 5: {  // object
            w.beginObject();
            uint64_t n = rng_.below(4);
            for (uint64_t i = 0; i < n; i++) {
                w.key(randomString() + std::to_string(i));
                value(w, depth + 1);
            }
            w.endObject();
            break;
          }
          default: {  // array
            w.beginArray();
            uint64_t n = rng_.below(4);
            for (uint64_t i = 0; i < n; i++)
                value(w, depth + 1);
            w.endArray();
            break;
          }
        }
    }

    std::string
    randomString()
    {
        static const char pool[] =
            "abcXYZ 019 \"quote\" \\back\nnew\ttab/\b\f\r";
        std::string s;
        uint64_t n = rng_.below(12);
        for (uint64_t i = 0; i < n; i++)
            s += pool[rng_.below(sizeof(pool) - 1)];
        return s;
    }

    Rng rng_;
};

TEST(JsonFuzz, WriterOutputAlwaysValidates)
{
    for (uint64_t seed = 1; seed <= 1000; seed++) {
        JsonFuzzer fuzz(seed * 2654435761ull);
        std::string doc = fuzz.document();
        EXPECT_TRUE(jsonValid(doc))
            << "seed " << seed << " produced invalid JSON: " << doc;
    }
}

TEST(JsonValid, AcceptsAndRejects)
{
    EXPECT_TRUE(jsonValid("{}"));
    EXPECT_TRUE(jsonValid("[1,2.5,-3e4,\"x\",null,true,false]"));
    EXPECT_TRUE(jsonValid("{\"a\":{\"b\":[{}]}}"));
    EXPECT_TRUE(jsonValid("  {\"u\":\"\\u00e9\"} "));
    EXPECT_FALSE(jsonValid(""));
    EXPECT_FALSE(jsonValid("{"));
    EXPECT_FALSE(jsonValid("{\"a\":1,}"));
    EXPECT_FALSE(jsonValid("[1 2]"));
    EXPECT_FALSE(jsonValid("{\"a\":01}"));
    EXPECT_FALSE(jsonValid("{} trailing"));
    EXPECT_FALSE(jsonValid("{'a':1}"));
    EXPECT_FALSE(jsonValid("\"unterminated"));
}

TEST(Stats, HistogramRegistersInGroup)
{
    StatGroup g("grp");
    EXPECT_FALSE(g.hasHistogram("dist"));
    Histogram &h = g.histogram("dist", 0, 8, 8);
    EXPECT_TRUE(g.hasHistogram("dist"));
    h.sample(0);
    h.sample(3);
    h.sample(3);
    h.sample(100);  // overflow bin
    // Re-lookup returns the same histogram; range params are ignored
    // after creation.
    Histogram &again = g.histogram("dist", 0, 999, 2);
    EXPECT_EQ(&again, &h);
    EXPECT_EQ(again.totalSamples(), 4u);
    EXPECT_EQ(again.overflow(), 1u);
    const Histogram *found = g.findHistogram("dist");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->buckets()[3], 2u);
    EXPECT_EQ(g.findHistogram("missing"), nullptr);
}

TEST(Stats, HistogramResetsWithGroup)
{
    StatGroup g("grp");
    Histogram &h = g.histogram("d", 0, 4, 4);
    h.sample(1);
    g.resetAll();
    EXPECT_EQ(h.totalSamples(), 0u);
}

} // namespace
} // namespace isrf
