/**
 * @file
 * Tests for the event tracer: channel filtering, ring-buffer
 * wraparound, Chrome trace-event JSON structure, CSV export, name
 * interning, and the TraceScope RAII helper.
 *
 * Every test records into its own tracer (the fixture's, or locals),
 * so no state carries over between tests.
 */
#include <gtest/gtest.h>

#include "sim/trace.h"
#include "util/json.h"

namespace isrf {
namespace {

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { tracer_.setCapacity(1 << 16); }

    Tracer tracer_;
};

TEST_F(TraceTest, DisabledRecordsNothing)
{
    Tracer &t = tracer_;
    EXPECT_FALSE(t.on());
    uint16_t ch = t.channel("trace_test_off");
    t.instant(ch, "ev", 1);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.totalRecorded(), 0u);
}

TEST_F(TraceTest, ChannelFiltering)
{
    Tracer &t = tracer_;
    t.enableChannels("trace_test_a");
    EXPECT_TRUE(t.on());
    uint16_t a = t.channel("trace_test_a");
    uint16_t b = t.channel("trace_test_b");
    EXPECT_TRUE(t.channelEnabled(a));
    EXPECT_FALSE(t.channelEnabled(b));
    t.instant(a, "hit", 10);
    t.instant(b, "filtered", 11);
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].channel, a);
    EXPECT_STREQ(evs[0].name, "hit");
    EXPECT_EQ(evs[0].ts, 10u);
}

TEST_F(TraceTest, EnableSpecParsing)
{
    Tracer &t = tracer_;
    uint16_t ch = t.channel("trace_test_spec");
    t.enableChannels("all");
    EXPECT_TRUE(t.channelEnabled(ch));
    t.enableChannels("0");
    EXPECT_FALSE(t.on());
    EXPECT_FALSE(t.channelEnabled(ch));
    // Spec names registered *before* the channel exists apply at
    // registration time.
    t.enableChannels("trace_test_pending, trace_test_spec");
    uint16_t late = t.channel("trace_test_pending");
    EXPECT_TRUE(t.channelEnabled(late));
    EXPECT_TRUE(t.channelEnabled(ch));
}

TEST_F(TraceTest, RingWraparound)
{
    Tracer &t = tracer_;
    t.enableChannels("trace_test_ring");
    uint16_t ch = t.channel("trace_test_ring");
    t.setCapacity(8);
    for (uint64_t i = 0; i < 20; i++)
        t.instant(ch, "tick", i, i);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.totalRecorded(), 20u);
    EXPECT_EQ(t.dropped(), 12u);
    // The ring holds the *last* 8 events, oldest first.
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 8u);
    for (size_t i = 0; i < evs.size(); i++)
        EXPECT_EQ(evs[i].arg, 12u + i);
    // lastEvents(n < size) returns the newest n.
    auto tail = t.lastEvents(3);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail[0].arg, 17u);
    EXPECT_EQ(tail[2].arg, 19u);
}

TEST_F(TraceTest, ChromeJsonStructure)
{
    Tracer &t = tracer_;
    t.enableChannels("all");
    uint16_t a = t.channel("trace_test_ch1");
    uint16_t b = t.channel("trace_test_ch2");
    t.begin(a, "span", 5);
    t.end(a, "span", 9);
    t.instant(b, "mark", 6, 42);
    t.counter(b, "value", 7, 13);

    std::string json = t.chromeJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Channel metadata names each tid for Perfetto.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"trace_test_ch1\""), std::string::npos);
    // All four phases appear.
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // Counter events carry their value; timestamps are cycles.
    EXPECT_NE(json.find("\"value\":13"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":5"), std::string::npos);
}

TEST_F(TraceTest, CsvExport)
{
    Tracer &t = tracer_;
    t.enableChannels("all");
    uint16_t ch = t.channel("trace_test_csv");
    t.instant(ch, "ev", 3, 7);
    std::string csv = t.csv();
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "cycle,channel,type,name,arg");
    EXPECT_NE(csv.find("3,trace_test_csv,i,ev,7"), std::string::npos);
}

TEST_F(TraceTest, InternedNamesOutliveSource)
{
    Tracer &t = tracer_;
    const char *p1;
    {
        std::string dynamic = "kernel_" + std::to_string(123);
        p1 = t.intern(dynamic);
    }
    const char *p2 = t.intern("kernel_123");
    EXPECT_EQ(p1, p2) << "same string should intern to one pointer";
    EXPECT_STREQ(p1, "kernel_123");
}

TEST_F(TraceTest, TraceScopeEmitsBeginEnd)
{
    Tracer &t = tracer_;
    t.enableChannels("all");
    uint16_t ch = t.channel("trace_test_scope");
    {
        TraceScope s(t, ch, "work", 100);
        s.close(110);
    }
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].type, TraceEventType::Begin);
    EXPECT_EQ(evs[0].ts, 100u);
    EXPECT_EQ(evs[1].type, TraceEventType::End);
    EXPECT_EQ(evs[1].ts, 110u);
}

TEST_F(TraceTest, InstancesAreIndependent)
{
    // Per-machine tracers must not share channels, filters, or rings
    // with each other or with any other tracer in the process.
    Tracer a, b;
    a.enableChannels("all");
    uint16_t chA = a.channel("iso_a");
    a.instant(chA, "ev", 1);
    EXPECT_TRUE(a.on());
    EXPECT_FALSE(b.on());
    EXPECT_FALSE(tracer_.on());
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(b.size(), 0u);
    b.enableChannels("iso_b_only");
    uint16_t chB = b.channel("iso_a");  // same name, different tracer
    b.instant(chB, "ev", 2);
    EXPECT_EQ(b.size(), 0u) << "b's filter must not inherit a's";
}

TEST_F(TraceTest, MergeFromRemapsChannelsAndNames)
{
    Tracer &g = tracer_;
    g.enableChannels("all");
    uint16_t gch = g.channel("trace_test_merge_pre");
    g.instant(gch, "pre", 1);

    {
        // The source dies right after the merge, taking its intern
        // pool (where the runtime-built name lives) with it.
        Tracer m;
        m.enableChannels("all");
        uint16_t mch = m.channel("trace_test_merge_src");
        std::string dynamicName = "dyn_ev";
        m.instant(mch, m.intern(dynamicName), 5, 42);
        g.mergeFrom(m);
    }

    auto evs = g.events();
    ASSERT_EQ(evs.size(), 2u);
    // Merged event lands on the destination's channel of the same
    // name, with its name re-interned into the destination tracer.
    uint16_t expect = g.channel("trace_test_merge_src");
    EXPECT_EQ(evs[1].channel, expect);
    EXPECT_STREQ(evs[1].name, "dyn_ev");
    EXPECT_EQ(evs[1].ts, 5u);
    EXPECT_EQ(evs[1].arg, 42u);
    EXPECT_EQ(evs[1].name, g.intern("dyn_ev"))
        << "merged names must point into the destination intern pool";
}

TEST_F(TraceTest, DumpTailIsLabelled)
{
    Tracer t;
    t.enableChannels("all");
    uint16_t ch = t.channel("trace_test_tail");
    for (uint64_t i = 0; i < 5; i++)
        t.instant(ch, "tick", i);
    char *buf = nullptr;
    size_t len = 0;
    FILE *f = open_memstream(&buf, &len);
    ASSERT_NE(f, nullptr);
    t.dumpTail(f, 3, "FFT 2D/isrf4");
    fclose(f);
    std::string out(buf, len);
    free(buf);
    EXPECT_NE(out.find("[FFT 2D/isrf4]"), std::string::npos) << out;
    EXPECT_NE(out.find("last 3 trace events"), std::string::npos);
}

TEST_F(TraceTest, ClearKeepsRegistrations)
{
    Tracer &t = tracer_;
    t.enableChannels("all");
    uint16_t ch = t.channel("trace_test_clear");
    t.instant(ch, "ev", 1);
    EXPECT_GE(t.size(), 1u);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.channelEnabled(ch));
    EXPECT_EQ(t.channel("trace_test_clear"), ch);
}

} // namespace
} // namespace isrf
