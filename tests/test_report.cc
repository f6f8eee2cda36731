/**
 * @file
 * Tests for the machine report module and its energy-count harvesting.
 */
#include <gtest/gtest.h>

#include "core/report.h"
#include "core/stream_program.h"
#include "test_helpers.h"
#include "util/json.h"

namespace isrf {
namespace {

/** Run a small copy program on a machine built from cfg. */
void
runCopyProgram(Machine &m, MachineConfig cfg)
{
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    std::vector<Word> data(256, 3);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 256);
    SlotId out = prog.addStream("out", 256);
    prog.load(in, 0);
    static KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    prog.run();
}

TEST(Report, ContainsAllSections)
{
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;
    Machine m;
    m.init(cfg);
    std::vector<Word> data(256, 3);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 256);
    SlotId out = prog.addStream("out", 256);
    prog.load(in, 0);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    prog.run();

    std::string rep = machineReportJson(m);
    ASSERT_TRUE(jsonValid(rep)) << rep;
    EXPECT_NE(rep.find("\"machine\":\"ISRF4\""), std::string::npos);
    EXPECT_NE(rep.find("\"breakdown\":{\"loop_body\":"),
              std::string::npos);
    EXPECT_NE(rep.find("\"dram\":{\"words\":"), std::string::npos);
    EXPECT_NE(rep.find("\"name\":\"copy\""), std::string::npos)
        << "kernel table";
    EXPECT_NE(rep.find("\"total_nj\":"), std::string::npos);
}

TEST(Report, EnergyCountsMatchMachineCounters)
{
    Machine m;
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    EnergyCounts c = energyCounts(m);
    EXPECT_EQ(c.seqSrfWords, 0u);
    EXPECT_EQ(c.dramWords, 0u);
}

TEST(Report, CacheSectionOnlyOnCacheMachine)
{
    Machine m;
    runCopyProgram(m, MachineConfig::cacheCfg());
    const Cache &c = m.mem().cache();
    std::string rep = machineReportJson(m);
    EXPECT_NE(rep.find("\"cache\":{\"hits\":" + std::to_string(c.hits()) +
                       ",\"misses\":" + std::to_string(c.misses())),
              std::string::npos)
        << rep;

    Machine b;
    runCopyProgram(b, MachineConfig::base());
    EXPECT_EQ(machineReportJson(b).find("\"cache\""), std::string::npos);
}

TEST(ReportJson, IsValidAndMatchesTextCounters)
{
    Machine m;
    runCopyProgram(m, MachineConfig::isrf4());

    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json)) << json;

    // The report draws from the machine's own counters: spot-check
    // that the headline values agree.
    EXPECT_NE(json.find("\"machine\":\"ISRF4\""), std::string::npos);
    auto expectField = [&](const std::string &key, uint64_t v) {
        std::string needle =
            "\"" + key + "\":" + std::to_string(v);
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    };
    expectField("cycles", m.now());
    expectField("seq_words", m.srf().seqWordsAccessed());
    expectField("in_lane_idx_words", m.srf().idxInLaneWords());
    expectField("words", m.mem().dram().wordsTransferred());
    expectField("loop_body", m.breakdown().loopBody);
    EXPECT_NE(json.find("\"name\":\"copy\""), std::string::npos);
}

TEST(ReportJson, CacheSectionOnlyOnCacheMachine)
{
    Machine m;
    MachineConfig cfg = MachineConfig::cacheCfg();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_NE(json.find("\"cache\""), std::string::npos);

    Machine b;
    MachineConfig bc = MachineConfig::base();
    bc.dram.capacityWords = 1 << 16;
    b.init(bc);
    EXPECT_EQ(machineReportJson(b).find("\"cache\""), std::string::npos);
}

TEST(Sampler, RecordsIntervalsAtConfiguredRate)
{
    Machine m;
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.statSampleInterval = 64;
    runCopyProgram(m, cfg);

    ASSERT_NE(m.sampler(), nullptr);
    const auto &ivs = m.sampler()->intervals();
    ASSERT_FALSE(ivs.empty());
    for (const StatInterval &iv : ivs) {
        EXPECT_EQ(iv.end - iv.start, 64u);
        EXPECT_EQ(iv.end % 64, 0u);
    }
    // Intervals tile the run contiguously.
    for (size_t i = 1; i < ivs.size(); i++)
        EXPECT_EQ(ivs[i].start, ivs[i - 1].end);
}

TEST(Sampler, DeltasSumToMachineCounters)
{
    Machine m;
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.statSampleInterval = 32;
    runCopyProgram(m, cfg);

    ASSERT_NE(m.sampler(), nullptr);
    // Flush the partial final interval so deltas cover the whole run.
    m.sampler()->sampleNow(m.now());
    uint64_t dramDeltaSum = 0;
    for (const StatInterval &iv : m.sampler()->intervals()) {
        auto it = iv.deltas.find("dram.words");
        ASSERT_NE(it, iv.deltas.end());
        dramDeltaSum += it->second;
    }
    EXPECT_EQ(dramDeltaSum, m.mem().dram().wordsTransferred());
}

TEST(Sampler, AppearsInJsonReportAndCsv)
{
    Machine m;
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.statSampleInterval = 64;
    runCopyProgram(m, cfg);
    ASSERT_NE(m.sampler(), nullptr);

    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_NE(json.find("\"samples\":["), std::string::npos);
    EXPECT_NE(json.find("\"deltas\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);

    std::string csv = m.sampler()->csv();
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "start,end,stat,value,kind");
    EXPECT_NE(csv.find("dram.words"), std::string::npos);
    EXPECT_NE(csv.find(",gauge"), std::string::npos);
}

TEST(Sampler, DisabledByDefault)
{
    Machine m;
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    EXPECT_EQ(m.sampler(), nullptr);
    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_EQ(json.find("\"samples\":["), std::string::npos);
}

TEST(ReportJson, ConflictHistogramPresentOnIndexedRun)
{
    Machine m;
    runCopyProgram(m, MachineConfig::isrf4());
    // The conflict-degree histogram registers at machine init even if
    // this program never issues indexed reads.
    EXPECT_TRUE(m.srf().stats().hasHistogram("idx_conflict_degree"));
    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_NE(json.find("\"idx_conflict_degree\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

} // namespace
} // namespace isrf
