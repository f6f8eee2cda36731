#include "workloads/filter.h"

#include <algorithm>

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

float
filterTap(int dr, int dc)
{
    // A separable-ish smoothing kernel; exact taps only matter for the
    // functional validation.
    static const float row[5] = {0.05f, 0.25f, 0.4f, 0.25f, 0.05f};
    return row[dr + 2] * row[dc + 2];
}

std::vector<float>
conv5x5Reference(const std::vector<float> &img, uint32_t n)
{
    std::vector<float> out(img.size());
    for (uint32_t r = 0; r < n; r++) {
        for (uint32_t c = 0; c < n; c++) {
            float acc = 0;
            for (int dr = -2; dr <= 2; dr++) {
                for (int dc = -2; dc <= 2; dc++) {
                    int rr = std::clamp<int>(static_cast<int>(r) + dr, 0,
                                             static_cast<int>(n) - 1);
                    int cc = std::clamp<int>(static_cast<int>(c) + dc, 0,
                                             static_cast<int>(n) - 1);
                    acc += filterTap(dr, dc) *
                        img[static_cast<size_t>(rr) * n +
                            static_cast<size_t>(cc)];
                }
            }
            out[static_cast<size_t>(r) * n + c] = acc;
        }
    }
    return out;
}

KernelGraph
filterIdxGraph()
{
    KernelBuilder b("filter");
    // One indexed stream per window row, so the five reads of the
    // incoming column issue in a single cycle on ISRF4 (this is one of
    // the two benchmarks where ISRF1 and ISRF4 differ, §5.3).
    StreamRef rows[5];
    for (int i = 0; i < 5; i++)
        rows[i] = b.idxlIn("row" + std::to_string(i));
    auto out = b.seqOut("filtered");

    // Address of the new window column from the iteration counter.
    auto it = b.iterIdx();
    auto rowBase = b.imul(it, b.constInt(32));
    auto colOff = b.iadd(rowBase, b.constInt(2));

    // Read the 5 pixels of the incoming column.
    Value px[5];
    for (int i = 0; i < 5; i++)
        px[i] = b.readIdx(rows[i], b.iadd(colOff, b.constInt(i * 32)));

    // New column partial sum: 5 multiplies + 4 adds.
    Value p = b.fmul(px[0], b.constFloat(filterTap(-2, 2)));
    for (int i = 1; i < 5; i++)
        p = b.fadd(p, b.fmul(px[i], b.constFloat(filterTap(i - 2, 2))));

    // Combine with the four carried column partials.
    Value c1 = b.carryIn();
    Value c2 = b.carryIn();
    Value c3 = b.carryIn();
    Value c4 = b.carryIn();
    Value sum = b.fadd(b.fadd(p, c1), b.fadd(c2, b.fadd(c3, c4)));
    b.write(out, sum);
    b.carryOut(c1, p, 1);
    b.carryOut(c2, c1, 1);
    b.carryOut(c3, c2, 1);
    b.carryOut(c4, c3, 1);
    return b.build();
}

KernelGraph
filterSpGraph()
{
    KernelBuilder b("filter");
    auto in = b.seqIn("strip");
    auto out = b.seqOut("filtered");

    // One new pixel enters the scratchpad row buffers each iteration.
    auto x = b.read(in);
    auto it = b.iterIdx();
    auto wa = b.iand(it, b.constInt(0xff));
    b.spWrite(wa, x);
    b.spWrite(b.iadd(wa, b.constInt(256)), x);

    // Read the window column back from the scratchpad.
    Value px[5];
    for (int i = 0; i < 5; i++)
        px[i] = b.spRead(b.iadd(wa, b.constInt(i * 256)));

    Value p = b.fmul(px[0], b.constFloat(filterTap(-2, 2)));
    for (int i = 1; i < 5; i++)
        p = b.fadd(p, b.fmul(px[i], b.constFloat(filterTap(i - 2, 2))));
    Value c1 = b.carryIn();
    Value c2 = b.carryIn();
    Value c3 = b.carryIn();
    Value c4 = b.carryIn();
    Value sum = b.fadd(b.fadd(p, c1), b.fadd(c2, b.fadd(c3, c4)));
    b.write(out, sum);
    b.carryOut(c1, p, 1);
    b.carryOut(c2, c1, 1);
    b.carryOut(c3, c2, 1);
    b.carryOut(c4, c3, 1);
    return b.build();
}

WorkloadResult
runFilter(const MachineConfig &machineCfg, const WorkloadOptions &opts)
{
    MachineConfig cfg = machineCfg;
    if (opts.separationOverride)
        cfg.inLaneSeparation = opts.separationOverride;
    Machine m;
    m.init(cfg);
    m.setCancel(opts.cancel);
    m.setCheckpoint(opts.checkpoint);

    WorkloadResult res;
    res.workload = "Filter";

    const FilterParams params;
    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const uint32_t n = params.size;
    const uint32_t stripRows = params.stripRows;
    const uint32_t haloRows = 2;
    const uint32_t loadRows = stripRows + 2 * haloRows;
    const uint32_t strips = n / stripRows;

    Rng rng(opts.seed);
    std::vector<float> img(static_cast<size_t>(n) * n);
    for (auto &p : img)
        p = rng.uniformf(0, 1);
    std::vector<float> ref = conv5x5Reference(img, n);

    const uint64_t inAddr = 0;
    const uint64_t outAddr = static_cast<uint64_t>(n) * n;
    m.mem().dram().fill(inAddr, floatsToWords(img));

    std::vector<std::unique_ptr<KernelGraph>> graphs;
    graphs.push_back(std::make_unique<KernelGraph>(
        indexed ? filterIdxGraph() : filterSpGraph()));
    const KernelGraph *kg = graphs[0].get();

    StreamProgram prog(m);
    // Double-buffered strip input (loadRows) and output (stripRows).
    SlotId inA = prog.addStream("stripInA",
                                static_cast<uint64_t>(loadRows) * n,
                                StreamLayout::Striped, StreamDir::In,
                                indexed);
    SlotId inB = prog.addStream("stripInB",
                                static_cast<uint64_t>(loadRows) * n,
                                StreamLayout::Striped, StreamDir::In,
                                indexed);
    SlotId outA = prog.addStream("stripOutA",
                                 static_cast<uint64_t>(stripRows) * n);
    SlotId outB = prog.addStream("stripOutB",
                                 static_cast<uint64_t>(stripRows) * n);
    // Five indexed views (one per window row) over each input buffer.
    std::vector<SlotId> viewsA, viewsB;
    if (indexed) {
        for (int i = 0; i < 5; i++) {
            viewsA.push_back(prog.addStreamAlias("viewA", inA));
            viewsB.push_back(prog.addStreamAlias("viewB", inB));
        }
    }

    // Which image column does lane l own? (c/4) % 8 == l under m-word
    // striping of 256-word rows; neighborhood columns that fall outside
    // the lane are clamped into it (documented approximation).
    auto laneLocalIdx = [&](uint32_t rr, uint32_t cc, uint32_t lane) {
        uint32_t grp = cc / g.seqWidth;
        if (grp % g.lanes != lane) {
            // Clamp to the nearest column group owned by this lane.
            grp = (cc / (g.seqWidth * g.lanes)) * g.lanes + lane;
        }
        uint32_t laneRow = rr * (n / (g.seqWidth * g.lanes)) +
            grp / g.lanes;
        return laneRow * g.seqWidth + cc % g.seqWidth;
    };

    // Last kernel that read each input buffer (WAR for the next load).
    ProgOpId lastKernelOnBuf[2] = {-1, -1};
    for (uint32_t rep = 0; rep < opts.repeats; rep++) {
        SlotId inCur = inA, inNxt = inB;
        SlotId outCur = outA, outNxt = outB;
        std::vector<SlotId> *viewsCur = &viewsA, *viewsNxt = &viewsB;
        int bufIdx = 0;
        for (uint32_t s = 0; s < strips; s++) {
            // Strip rows [s*stripRows - 2, s*stripRows + stripRows + 2)
            // clamped into the image.
            int firstRow = static_cast<int>(s * stripRows) -
                static_cast<int>(haloRows);
            firstRow = std::clamp<int>(firstRow, 0,
                static_cast<int>(n - loadRows));
            ProgOpId loadId = prog.load(inCur, inAddr +
                static_cast<uint64_t>(firstRow) * n);
            if (indexed && lastKernelOnBuf[bufIdx] >= 0)
                prog.dependsOn(loadId, lastKernelOnBuf[bufIdx]);

            std::vector<SlotId> binding;
            if (indexed) {
                binding = *viewsCur;
                binding.push_back(outCur);
            } else {
                binding = {inCur, outCur};
            }
            auto inv = newInvocation(m, kg, binding);
            for (uint32_t l = 0; l < g.lanes; l++) {
                auto &tr = inv->laneTraces[l];
                std::vector<Word> outWords;
                for (uint32_t r = 0; r < stripRows; r++) {
                    uint32_t absRow = s * stripRows + r;
                    for (uint32_t cc = 0; cc < n; cc++) {
                        if ((cc / g.seqWidth) % g.lanes != l)
                            continue;
                        tr.iterations++;
                        // Functional output via column partial sums
                        // (different summation order than the
                        // reference).
                        float acc = 0;
                        for (int dc = -2; dc <= 2; dc++) {
                            float colSum = 0;
                            for (int dr = -2; dr <= 2; dr++) {
                                int rr2 = std::clamp<int>(
                                    static_cast<int>(absRow) + dr, 0,
                                    static_cast<int>(n) - 1);
                                int cc2 = std::clamp<int>(
                                    static_cast<int>(cc) + dc, 0,
                                    static_cast<int>(n) - 1);
                                colSum += filterTap(dr, dc) *
                                    img[static_cast<size_t>(rr2) * n +
                                        static_cast<size_t>(cc2)];
                            }
                            acc += colSum;
                        }
                        outWords.push_back(floatToWord(acc));
                        if (indexed) {
                            // 5 new-column reads, one per row stream.
                            int cNew = std::clamp<int>(
                                static_cast<int>(cc) + 2, 0,
                                static_cast<int>(n) - 1);
                            for (int dr = -2; dr <= 2; dr++) {
                                int rr2 = std::clamp<int>(
                                    static_cast<int>(absRow) + dr -
                                        firstRow, 0,
                                    static_cast<int>(loadRows) - 1);
                                tr.idxReads[dr + 2].push_back(
                                    laneLocalIdx(
                                        static_cast<uint32_t>(rr2),
                                        static_cast<uint32_t>(cNew),
                                        l));
                            }
                        }
                    }
                }
                tr.seqWrites[indexed ? 5 : 1] = std::move(outWords);
            }
            inv->finalize();
            ProgOpId kid = prog.kernel(inv);
            if (indexed) {
                prog.dependsOn(kid, loadId);
                lastKernelOnBuf[bufIdx] = kid;
            }
            prog.store(outCur, outAddr +
                static_cast<uint64_t>(s) * stripRows * n);
            std::swap(inCur, inNxt);
            std::swap(outCur, outNxt);
            std::swap(viewsCur, viewsNxt);
            bufIdx ^= 1;
        }
    }

    uint64_t cycles = prog.run();
    res.status = prog.lastStatus();
    harvestResult(res, m, cycles);
    if (res.status != RunStatus::Done) {
        // Interrupted run (watchdog/deadline/cancel): the functional
        // output is incomplete, so skip the reference validation.
        return res;
    }

    std::vector<float> got = wordsToFloats(
        m.mem().dram().dump(outAddr, static_cast<uint64_t>(n) * n));
    bool ok = true;
    for (size_t i = 0; i < ref.size() && ok; i++) {
        if (std::abs(got[i] - ref[i]) > 1e-4f)
            ok = false;
    }
    res.correct = ok;
    res.extra["kernel_ii"] = m.scheduleKernel(*kg).ii;
    return res;
}

} // namespace isrf
