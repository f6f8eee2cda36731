/**
 * @file
 * Tests for the per-job result report: resultJson() of a harvested
 * machine carries the machine's own counters.
 */
#include <gtest/gtest.h>

#include "core/stream_program.h"
#include "test_helpers.h"
#include "util/json.h"
#include "workloads/workload.h"

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

/** resultJson() of `m` harvested at its current cycle. */
std::string
harvestedJson(Machine &m)
{
    WorkloadResult res;
    res.workload = "copy";
    harvestResult(res, m, m.now());
    return resultJson(res);
}

TEST(Report, CacheSectionOnlyOnCacheMachine)
{
    // cache_words counts vector-cache hits: the Cache machine's, and
    // zero on every machine without a cache.
    Machine m;
    runCopyProgram(m, MachineConfig::cacheCfg());
    const Cache &c = m.mem().cache();
    EXPECT_NE(harvestedJson(m).find("\"cache_words\":" +
                                    std::to_string(c.hits()) + ","),
              std::string::npos);

    Machine b;
    runCopyProgram(b, MachineConfig::base());
    EXPECT_NE(harvestedJson(b).find("\"cache_words\":0,"),
              std::string::npos);
}

TEST(ReportJson, IsValidAndMatchesTextCounters)
{
    Machine m;
    runCopyProgram(m, MachineConfig::isrf4());

    std::string json = harvestedJson(m);
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
    expectField("srf_seq_words", m.srf().seqWordsAccessed());
    expectField("srf_idx_words",
                m.srf().idxInLaneWords() + m.srf().idxCrossWords());
    expectField("dram_words", m.mem().dram().wordsTransferred());
    expectField("loop_body", m.breakdown().loopBody);
    EXPECT_NE(json.find("\"name\":\"copy\""), std::string::npos);
}

} // namespace
} // namespace isrf
