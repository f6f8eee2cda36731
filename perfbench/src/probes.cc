/**
 * @file
 * Layer probes (see probes.h). Each probe builds its input outside the
 * timed span, then times only the public call that exercises the
 * layer. Sizes are fixed, so a probe's work count depends on the seed
 * at most through random indices.
 */
#include "probes.h"

#include <array>
#include <complex>
#include <memory>
#include <vector>

#include "core/machine.h"
#include "core/stream_program.h"
#include "kernel/builder.h"
#include "mem/cache.h"
#include "net/crossbar.h"
#include "srf/srf.h"
#include "util/jsonl.h"
#include "util/log.h"
#include "util/random.h"
#include "util/snapshot.h"
#include "workloads/fft.h"
#include "workloads/filter.h"
#include "workloads/igraph.h"
#include "workloads/micro.h"
#include "workloads/rijndael.h"
#include "workloads/sort.h"
#include "workloads/sparse.h"
#include "workloads/trace_util.h"

using namespace isrf;

namespace perfbench {
namespace {

constexpr double kMs = 1e3;
constexpr double kUs = 1e6;
constexpr double kNs = 1e9;

std::unique_ptr<Machine>
freshMachine(MachineKind kind)
{
    auto m = std::make_unique<Machine>();
    m->init(MachineConfig::make(kind));
    return m;
}

/** Machine construction + init, the per-job set-up cost. */
void
probeMachineInit(SpanRecorder &rec)
{
    const MachineKind kinds[] = {MachineKind::Base, MachineKind::ISRF1,
                                 MachineKind::ISRF4, MachineKind::Cache};
    for (int rep = 0; rep < 5; rep++) {
        for (MachineKind k : kinds) {
            std::unique_ptr<Machine> m;
            rec.measure("core.machine_init",
                        std::string("core.machine_init_ms.") +
                            machineKindName(k),
                        kMs, [&] {
                            m = freshMachine(k);
                            return 1.0;
                        });
        }
    }
}

/**
 * Scoreboard cost: `ops` alternating loads and stores over 8 small
 * slots, no kernels. Host ns per simulated cycle grows with op count
 * while StreamProgram scans every outstanding op each cycle.
 */
void
probeStreamProgram(SpanRecorder &rec)
{
    const uint32_t opCounts[] = {500, 2000, 8000};
    constexpr uint32_t kSlots = 8, kWords = 32;
    for (uint32_t ops : opCounts) {
        std::string metric = "core.stream_program.ns_per_cycle.ops_";
        metric += std::to_string(ops);
        int samples = ops >= 8000 ? 1 : 3;
        for (int rep = 0; rep < samples; rep++) {
            auto m = freshMachine(MachineKind::Base);
            StreamProgram prog(*m);
            std::vector<SlotId> slots;
            for (uint32_t s = 0; s < kSlots; s++)
                slots.push_back(prog.addStream(std::to_string(s), kWords));
            const uint64_t outBase = 1ull << 20;
            for (uint32_t i = 0; i < ops / 2; i++) {
                SlotId slot = slots[i % kSlots];
                prog.load(slot, (i % 1024) * kWords);
                prog.store(slot, outBase + (i % 1024) * kWords);
            }
            rec.measure("core.stream_program.run", metric, kNs, [&] {
                return static_cast<double>(prog.run());
            });
            if (prog.lastStatus() != RunStatus::Done)
                fatal("stream_program probe did not finish");
        }
    }
}

/**
 * Cluster cost: the quickstart lookup kernel (Figure 10) over data
 * placed with fillStream, no memory operations, on ISRF4.
 */
void
probeCluster(SpanRecorder &rec, uint64_t seed)
{
    KernelBuilder b("lookup");
    auto in = b.seqIn("in");
    auto lut = b.idxlIn("LUT");
    auto out = b.seqOut("out");
    auto a = b.read(in);
    auto v = b.readIdx(lut, a);
    b.write(out, b.iadd(a, v));
    KernelGraph graph = b.build();

    constexpr uint32_t kTable = 256, kN = 4096, kKernels = 4;
    Rng rng(seed ^ 0xc1);
    std::vector<Word> table(kTable), input(kN);
    for (uint32_t i = 0; i < kTable; i++)
        table[i] = i * i;
    for (auto &w : input)
        w = static_cast<Word>(rng.below(kTable));

    for (int rep = 0; rep < 3; rep++) {
        auto m = freshMachine(MachineKind::ISRF4);
        const SrfGeometry &g = m->config().srf;
        StreamProgram prog(*m);
        SlotId lutSlot = prog.addStream("LUT", kTable,
                                        StreamLayout::PerLane,
                                        StreamDir::In, true);
        SlotId inSlot = prog.addStream("in", kN);
        SlotId outSlot = prog.addStream("out", kN);
        std::vector<Word> replicated;
        for (uint32_t l = 0; l < m->lanes(); l++)
            replicated.insert(replicated.end(), table.begin(),
                              table.end());
        prog.fillStream(lutSlot, replicated);
        prog.fillStream(inSlot, input);
        for (uint32_t k = 0; k < kKernels; k++) {
            auto inv = newInvocation(*m, &graph,
                                     {inSlot, lutSlot, outSlot});
            for (size_t e = 0; e < input.size(); e++) {
                auto &t = inv->laneTraces[stripeLane(g, e)];
                t.iterations++;
                t.idxReads[1].push_back(input[e]);
                t.seqWrites[2].push_back(input[e] + table[input[e]]);
            }
            inv->finalize();
            prog.kernel(inv);
        }
        const double lanes = m->lanes();
        rec.measure("cluster.kernel_run", "cluster.ns_per_lane_cycle",
                    kNs, [&] {
                        return static_cast<double>(prog.run()) * lanes;
                    });
    }
}

/** SRF: indexed micro drivers and a sequential read loop. */
void
probeSrf(SpanRecorder &rec, uint64_t seed)
{
    for (int rep = 0; rep < 3; rep++) {
        InLaneMicroParams in;
        in.cycles = 20000;
        in.seed = seed + rep;
        rec.measure("srf.inlane_idx", "srf.inlane_idx.ns_per_cycle", kNs,
                    [&] {
                        inLaneRandomThroughput(in);
                        return static_cast<double>(in.cycles);
                    });
        CrossLaneMicroParams cross;
        cross.cycles = 20000;
        cross.seed = seed + rep;
        rec.measure("srf.crosslane_idx", "srf.crosslane_idx.ns_per_cycle",
                    kNs, [&] {
                        crossLaneRandomThroughput(cross);
                        return static_cast<double>(cross.cycles);
                    });
    }

    // Sequential: stream a full-SRF input slot through every lane.
    for (int rep = 0; rep < 3; rep++) {
        SrfGeometry geom;
        Srf srf;
        srf.init(geom, SrfMode::SequentialOnly, nullptr);
        SlotConfig cfg;
        cfg.dir = StreamDir::In;
        cfg.lengthWords = 16384;
        SlotId id = srf.openSlot(cfg);
        srf.fillSlot(id, std::vector<Word>(cfg.lengthWords, 7));
        uint64_t read = 0;
        Cycle now = 0;
        rec.measure("srf.seq", "srf.seq.ns_per_cycle", kNs, [&] {
            while (read < cfg.lengthWords) {
                srf.beginCycle(now);
                for (uint32_t l = 0; l < geom.lanes; l++)
                    while (srf.seqCanRead(l, id)) {
                        srf.seqRead(l, id);
                        read++;
                    }
                srf.endCycle(now);
                now++;
            }
            return static_cast<double>(now);
        });
    }
}

/** Memory: a gather/load-only program, and raw cache accesses. */
void
probeMemory(SpanRecorder &rec, uint64_t seed)
{
    constexpr uint32_t kWords = 4096;
    Rng rng(seed ^ 0x3e);
    for (int rep = 0; rep < 3; rep++) {
        auto m = freshMachine(MachineKind::Base);
        StreamProgram prog(*m);
        SlotId gathered = prog.addStream("gathered", kWords);
        SlotId loaded = prog.addStream("loaded", kWords);
        for (uint32_t r = 0; r < 4; r++) {
            std::vector<uint32_t> idx(kWords);
            for (auto &i : idx)
                i = static_cast<uint32_t>(rng.below(1u << 18));
            prog.gather(gathered, 0, std::move(idx));
            prog.load(loaded, (1ull << 19) + r * kWords);
        }
        Dram &dram = m->mem().dram();
        rec.measure("mem.program_run", "mem.ns_per_dram_word", kNs, [&] {
            uint64_t before = dram.wordsTransferred();
            prog.run();
            return static_cast<double>(dram.wordsTransferred() - before);
        });
    }

    constexpr uint32_t kAccesses = 1u << 20;
    std::vector<uint64_t> lines(kAccesses);
    for (auto &l : lines)
        l = rng.below(1u << 16);
    for (int rep = 0; rep < 3; rep++) {
        Cache cache;
        rec.measure("mem.cache", "mem.cache.ns_per_access", kNs, [&] {
            for (uint64_t l : lines)
                cache.access(l, false);
            return static_cast<double>(kAccesses);
        });
    }
}

/** Crossbar arbitration: 8 random requests per cycle. */
void
probeCrossbar(SpanRecorder &rec, uint64_t seed)
{
    constexpr uint32_t kCycles = 200000, kPorts = 8;
    Rng rng(seed ^ 0x8b);
    std::vector<uint8_t> dst(kCycles * kPorts);
    for (auto &d : dst)
        d = static_cast<uint8_t>(rng.below(kPorts));
    for (int rep = 0; rep < 3; rep++) {
        Crossbar xbar;
        xbar.init(kPorts, 1, 1);
        rec.measure("net.crossbar", "net.crossbar.ns_per_transfer", kNs,
                    [&] {
                        for (uint32_t c = 0; c < kCycles; c++) {
                            xbar.newCycle();
                            for (uint32_t p = 0; p < kPorts; p++)
                                xbar.tryTransfer(p, dst[c * kPorts + p]);
                        }
                        return static_cast<double>(kCycles) * kPorts;
                    });
    }
}

/** Modulo scheduling of every kernel graph the workloads use. */
void
probeScheduler(SpanRecorder &rec)
{
    struct Named
    {
        const char *name;
        KernelGraph graph;
    };
    std::vector<Named> graphs;
    graphs.push_back({"ig_idx", igIdxKernelGraph(51)});
    graphs.push_back({"ig_base", igBaseKernelGraph(51)});
    graphs.push_back({"rijndael_round_idx", rijndaelRoundIdxGraph()});
    graphs.push_back({"rijndael_round_base",
                      rijndaelRoundBaseGraph(false, false)});
    graphs.push_back({"fft_stage_seq", fftStageSeqGraph()});
    graphs.push_back({"fft_stage_idx", fftStageIdxGraph()});
    graphs.push_back({"filter_idx", filterIdxGraph()});
    graphs.push_back({"filter_sp", filterSpGraph()});
    graphs.push_back({"sort_local_idx", sortLocalIdxGraph()});
    graphs.push_back({"sort_global_idx", sortGlobalIdxGraph()});
    graphs.push_back({"sort_cond_stream", sortCondStreamGraph("sort1")});
    auto m = freshMachine(MachineKind::ISRF4);
    for (int rep = 0; rep < 5; rep++) {
        for (const Named &n : graphs) {
            rec.measure("kernel.schedule",
                        std::string("kernel.schedule_us.") + n.name, kUs,
                        [&] {
                            m->scheduleKernel(n.graph);
                            return 1.0;
                        });
        }
    }
}

/** Input generation and functional references of each family. */
void
probeWorkloadFunctions(SpanRecorder &rec, uint64_t seed)
{
    Rng rng(seed ^ 0x9f);
    for (int rep = 0; rep < 5; rep++) {
        IgGraph graph;
        rec.measure("workloads.generate", "workloads.generate_ms.ig", kMs,
                    [&] {
                        graph = igGenerate(igDataset("IG_DMS"), seed);
                        return 1.0;
                    });
        std::vector<float> vals(graph.nodes);
        for (auto &v : vals)
            v = rng.uniformf(0.1f, 1.0f);
        rec.measure("workloads.reference", "workloads.reference_ms.ig",
                    kMs, [&] {
                        igReferenceUpdate(graph, vals);
                        return 1.0;
                    });

        CsrMatrix csr;
        rec.measure("workloads.generate", "workloads.generate_ms.spmv",
                    kMs, [&] {
                        csr = spmvDatasetMatrix("SpMV Power", seed);
                        return 1.0;
                    });
        std::vector<float> x(csr.cols);
        for (auto &v : x)
            v = rng.uniformf(0.1f, 1.0f);
        rec.measure("workloads.reference", "workloads.reference_ms.spmv",
                    kMs, [&] {
                        spmvReference(csr, x);
                        return 1.0;
                    });

        const uint32_t n = FilterParams{}.size;
        std::vector<float> img(static_cast<size_t>(n) * n);
        for (auto &p : img)
            p = rng.uniformf(0.0f, 1.0f);
        rec.measure("workloads.reference", "workloads.reference_ms.filter",
                    kMs, [&] {
                        conv5x5Reference(img, n);
                        return 1.0;
                    });

        const uint32_t fn = FftParams{}.n;
        std::vector<Cplx> a(static_cast<size_t>(fn) * fn);
        for (auto &c : a)
            c = Cplx(rng.uniformf(-1, 1), rng.uniformf(-1, 1));
        rec.measure("workloads.reference", "workloads.reference_ms.fft",
                    kMs, [&] {
                        fft2dReference(a, fn);
                        return 1.0;
                    });

        std::array<uint8_t, 16> key{}, iv{};
        for (auto &k : key)
            k = static_cast<uint8_t>(rng.below(256));
        const uint32_t lanes = MachineConfig::make(MachineKind::Base)
                                   .srf.lanes;
        std::vector<std::array<uint8_t, 16>> blocks(
            RijndaelParams{}.blocksPerLane);
        for (auto &blk : blocks)
            for (auto &byte : blk)
                byte = static_cast<uint8_t>(rng.below(256));
        rec.measure("workloads.reference",
                    "workloads.reference_ms.rijndael", kMs, [&] {
                        for (uint32_t l = 0; l < lanes; l++)
                            aesCbcEncrypt128(key, iv, blocks);
                        return 1.0;
                    });
    }
}

/** Snapshot save + atomic write, and fsync'd journal appends. */
void
probeDurability(SpanRecorder &rec, uint64_t seed,
                const std::string &dir,
                std::map<std::string, double> &counts)
{
    auto m = freshMachine(MachineKind::ISRF4);
    Rng rng(seed ^ 0x5a);
    std::vector<Word> data(1u << 16);
    for (auto &w : data)
        w = static_cast<Word>(rng.next());
    m->mem().dram().fill(0, data);
    const std::string snapPath = dir + "/probe.ckpt";
    for (int rep = 0; rep < 3; rep++) {
        size_t bytes = 0;
        rec.measure("util.snapshot", "util.snapshot.save_ms", kMs, [&] {
            Snapshot snap;
            snap.fingerprint = 1;
            m->saveSnapshot(snap);
            std::string err;
            if (!snap.writeAtomic(snapPath, err))
                fatal("snapshot probe: %s", err.c_str());
            bytes = snap.serialize().size();
            return 1.0;
        });
        counts["util.snapshot.bytes"] = static_cast<double>(bytes);
    }

    JsonlWriter journal;
    if (!journal.open(dir + "/probe.jsonl", false))
        fatal("jsonl probe: cannot open journal in %s", dir.c_str());
    const std::string record =
        "{\"job\":1,\"status\":\"done\",\"pad\":\"" +
        std::string(200, 'x') + "\"}";
    for (int i = 0; i < 32; i++)
        rec.measure("util.jsonl", "util.jsonl.append_us", kUs, [&] {
            if (!journal.append(record))
                fatal("jsonl probe: append failed");
            return 1.0;
        });
    journal.close();
}

} // namespace

void
runLayerProbes(SpanRecorder &rec, uint64_t seed,
               const std::string &scratchDir,
               std::map<std::string, double> &counts)
{
    probeMachineInit(rec);
    probeStreamProgram(rec);
    probeCluster(rec, seed);
    probeSrf(rec, seed);
    probeMemory(rec, seed);
    probeCrossbar(rec, seed);
    probeScheduler(rec);
    probeWorkloadFunctions(rec, seed);
    probeDurability(rec, seed, scratchDir, counts);
}

} // namespace perfbench
