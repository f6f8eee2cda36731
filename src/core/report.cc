#include "core/report.h"

#include "util/json.h"

namespace isrf {

EnergyCounts
energyCounts(Machine &m)
{
    EnergyCounts c;
    c.seqSrfWords = m.srf().seqWordsAccessed();
    c.idxSrfWords = m.srf().idxInLaneWords() + m.srf().idxCrossWords();
    c.cacheWords = m.mem().cache().hits();
    c.dramWords = m.mem().dram().wordsTransferred();
    return c;
}

std::string
machineReportJson(Machine &m)
{
    const MachineConfig &cfg = m.config();
    JsonWriter w;
    w.beginObject();

    w.key("machine").value(cfg.name());
    w.key("config").beginObject();
    w.field("lanes", cfg.srf.lanes);
    w.field("srf_kb", cfg.srf.totalBytes() / 1024);
    w.field("seq_width", cfg.srf.seqWidth);
    w.field("sub_arrays", cfg.srf.subArrays);
    w.key("mode").value(
        cfg.srfMode == SrfMode::SequentialOnly ? "sequential"
            : cfg.srfMode == SrfMode::Indexed1 ? "ISRF1" : "ISRF4");
    w.key("topology").value(
        cfg.srf.netTopology == NetTopology::Crossbar ? "crossbar"
                                                     : "ring");
    w.endObject();

    const TimeBreakdown &b = m.breakdown();
    w.field("cycles", static_cast<uint64_t>(m.now()));
    w.key("breakdown").beginObject();
    w.field("loop_body", b.loopBody);
    w.field("mem_stall", b.memStall);
    w.field("srf_stall", b.srfStall);
    w.field("overhead", b.overhead);
    w.field("total", b.total());
    w.endObject();

    // Emitted only for abnormal endings, so reports of healthy runs
    // stay byte-identical across run-loop details.
    if (m.lastRunStatus() != RunStatus::Done)
        w.field("run_status",
                std::string(runStatusName(m.lastRunStatus())));

    w.key("srf").beginObject();
    w.field("seq_words", m.srf().seqWordsAccessed());
    w.field("in_lane_idx_words", m.srf().idxInLaneWords());
    w.field("cross_idx_words", m.srf().idxCrossWords());
    w.field("sub_array_conflicts", m.srf().subArrayConflicts());
    w.key("counters").beginObject();
    for (const auto &kv : m.srf().stats().counters())
        w.field(kv.first, kv.second.value());
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &kv : m.srf().stats().histograms()) {
        const Histogram &h = kv.second;
        w.key(kv.first).beginObject();
        w.field("samples", h.totalSamples());
        w.field("mean", h.mean());
        w.field("underflow", h.underflow());
        w.field("overflow", h.overflow());
        w.key("buckets").beginArray();
        for (uint64_t b : h.buckets())
            w.value(b);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();

    const Dram &d = m.mem().dram();
    w.key("dram").beginObject();
    w.field("words", d.wordsTransferred());
    w.field("seq_words", d.seqWords());
    w.field("random_words", d.randomWords());
    w.field("row_hits", d.rowHits());
    w.field("row_misses", d.rowMisses());
    w.endObject();
    if (m.mem().cacheEnabled()) {
        const Cache &c = m.mem().cache();
        uint64_t acc = c.hits() + c.misses();
        w.key("cache").beginObject();
        w.field("hits", c.hits());
        w.field("misses", c.misses());
        w.field("hit_rate", acc
            ? static_cast<double>(c.hits()) / static_cast<double>(acc)
            : 0.0);
        w.field("writebacks", c.writebacks());
        w.endObject();
    }

    w.key("kernels").beginArray();
    for (const auto &kv : m.kernelBw()) {
        const KernelBwRecord &r = kv.second;
        w.beginObject();
        w.field("name", kv.first);
        w.field("invocations", r.invocations);
        w.field("lane_cycles", r.laneCycles);
        w.field("seq_words_per_lane_cycle", r.seqPerLaneCycle());
        w.field("in_lane_words_per_lane_cycle",
                r.inLanePerLaneCycle());
        w.field("cross_words_per_lane_cycle", r.crossPerLaneCycle());
        w.endObject();
    }
    w.endArray();

    EnergyModel energy;
    EnergyEstimate e = energy.estimate(energyCounts(m));
    w.key("energy").beginObject();
    w.field("seq_srf_nj", e.seqSrfNj);
    w.field("idx_srf_nj", e.idxSrfNj);
    w.field("cache_nj", e.cacheNj);
    w.field("dram_nj", e.dramNj);
    w.field("total_nj", e.totalNj());
    w.endObject();

    if (cfg.faults.enabled) {
        m.syncFaultStats();
        w.key("fault").beginObject();
        w.field("faults_injected", m.srf().faultsInjected() +
            m.mem().dram().ecc().faultsInjected());
        w.field("ecc_corrected", m.srf().eccCorrected() +
            m.mem().dram().ecc().corrected());
        w.field("ecc_detected_uncorrectable", m.srf().eccUncorrectable() +
            m.mem().dram().ecc().uncorrectable());
        w.field("retries", m.mem().retries());
        w.field("poisoned_words", m.mem().poisonedWords());
        w.field("dropped_words", m.mem().droppedWords());
        w.field("degraded_subarrays",
                static_cast<uint64_t>(m.srf().offlineSubArrays()));
        if (m.faultInjector()) {
            w.key("injected").beginObject();
            for (const auto &kv : m.faultInjector()->stats().counters())
                w.field(kv.first, kv.second.value());
            w.endObject();
        }
        if (m.watchdog())
            w.key("watchdog").raw(m.watchdog()->reportJson());
        w.endObject();
    }

    if (m.sampler() && !m.sampler()->intervals().empty()) {
        w.key("samples").beginArray();
        for (const StatInterval &iv : m.sampler()->intervals()) {
            w.beginObject();
            w.field("start", static_cast<uint64_t>(iv.start));
            w.field("end", static_cast<uint64_t>(iv.end));
            w.key("deltas").beginObject();
            for (const auto &kv : iv.deltas)
                w.field(kv.first, kv.second);
            w.endObject();
            w.key("gauges").beginObject();
            for (const auto &kv : iv.gauges)
                w.field(kv.first, kv.second);
            w.endObject();
            w.endObject();
        }
        w.endArray();
    }

    // Present only on profiled machines, so unprofiled reports are
    // byte-identical with profiling compiled in.
    if (m.profiler().enabled()) {
        w.key("profile");
        m.profiler().reportJson(w);
    }

    w.endObject();
    return w.str();
}

} // namespace isrf
