#include "workloads/stencil.h"

#include <algorithm>
#include <cmath>

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

namespace {

struct StencilShape
{
    const char *name;
    bool is3d;
    uint32_t n;         ///< edge length (n x n or n x n x n)
    uint32_t stripSize; ///< rows (2D) / planes (3D) updated per strip
    uint32_t points;    ///< 5, 9 or 27
};

const std::vector<StencilShape> &
shapes()
{
    static const std::vector<StencilShape> s = {
        {"Stencil 2D5", false, 128, 16, 5},
        {"Stencil 2D9", false, 128, 16, 9},
        {"Stencil 3D27", true, 32, 4, 27},
    };
    return s;
}

/** Tap weight: 0.5 at the center, the rest shared evenly. */
float
tap(const StencilShape &sh, int dp, int dr, int dc)
{
    if (dp == 0 && dr == 0 && dc == 0)
        return 0.5f;
    if (sh.points == 5 && std::abs(dr) + std::abs(dc) != 1)
        return 0.0f;
    return 0.5f / static_cast<float>(sh.points - 1);
}

/** Reference convolution with clamped boundaries. */
std::vector<float>
stencilReference(const StencilShape &sh, const std::vector<float> &img)
{
    const int n = static_cast<int>(sh.n);
    const int planes = sh.is3d ? n : 1;
    std::vector<float> out(img.size());
    for (int p = 0; p < planes; p++) {
        for (int r = 0; r < n; r++) {
            for (int c = 0; c < n; c++) {
                float acc = 0;
                for (int dp = sh.is3d ? -1 : 0; dp <= (sh.is3d ? 1 : 0);
                        dp++) {
                    for (int dr = -1; dr <= 1; dr++) {
                        for (int dc = -1; dc <= 1; dc++) {
                            int pp = std::clamp(p + dp, 0, planes - 1);
                            int rr = std::clamp(r + dr, 0, n - 1);
                            int cc = std::clamp(c + dc, 0, n - 1);
                            acc += tap(sh, dp, dr, dc) *
                                img[(static_cast<size_t>(pp) * n + rr) *
                                        n + cc];
                        }
                    }
                }
                out[(static_cast<size_t>(p) * n + r) * n + c] = acc;
            }
        }
    }
    return out;
}

/**
 * Indexed kernel: R in-lane indexed reads of the incoming column (one
 * per window-row view) combined with two carried column partial sums.
 * The arithmetic is timing-decorative — functional results travel in
 * the traces — but mirrors the real dataflow: R reads, R multiplies,
 * a reduction tree, one output.
 */
KernelGraph
stencilIdxGraph(const StencilShape &sh, uint32_t views,
                uint32_t rowStride)
{
    KernelBuilder b(sh.name);
    std::vector<StreamRef> rows(views);
    for (uint32_t i = 0; i < views; i++)
        rows[i] = b.idxlIn("row" + std::to_string(i));
    auto out = b.seqOut("updated");

    auto it = b.iterIdx();
    auto rowBase = b.imul(it, b.constInt(static_cast<int32_t>(
        rowStride)));
    Value p;
    for (uint32_t i = 0; i < views; i++) {
        auto px = b.readIdx(rows[i], b.iadd(rowBase,
            b.constInt(static_cast<int32_t>(i * rowStride))));
        auto term = b.fmul(px, b.constFloat(
            0.5f / static_cast<float>(sh.points)));
        p = i == 0 ? term : b.fadd(p, term);
    }
    Value c1 = b.carryIn();
    Value c2 = b.carryIn();
    b.write(out, b.fadd(b.fadd(p, c1), c2));
    b.carryOut(c1, p, 1);
    b.carryOut(c2, c1, 1);
    return b.build();
}

/** Base/Cache kernel: scratchpad row-buffer ring, R reads per pixel. */
KernelGraph
stencilSpGraph(const StencilShape &sh, uint32_t views)
{
    KernelBuilder b(sh.name);
    auto in = b.seqIn("strip");
    auto out = b.seqOut("updated");

    auto x = b.read(in);
    auto it = b.iterIdx();
    auto wa = b.iand(it, b.constInt(0xff));
    b.spWrite(wa, x);
    b.spWrite(b.iadd(wa, b.constInt(256)), x);
    Value p;
    for (uint32_t i = 0; i < views; i++) {
        auto px = b.spRead(b.iadd(wa,
            b.constInt(static_cast<int32_t>(i * 256))));
        auto term = b.fmul(px, b.constFloat(
            0.5f / static_cast<float>(sh.points)));
        p = i == 0 ? term : b.fadd(p, term);
    }
    Value c1 = b.carryIn();
    Value c2 = b.carryIn();
    b.write(out, b.fadd(b.fadd(p, c1), c2));
    b.carryOut(c1, p, 1);
    b.carryOut(c2, c1, 1);
    return b.build();
}

} // namespace

const std::vector<std::string> &
stencilShapeNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto &s : shapes())
            n.push_back(s.name);
        return n;
    }();
    return names;
}

WorkloadResult
runStencil(const std::string &name, const MachineConfig &machineCfg,
           const WorkloadOptions &opts)
{
    const StencilShape *shape = nullptr;
    for (const auto &s : shapes())
        if (name == s.name)
            shape = &s;
    if (!shape)
        fatal("runStencil: unknown shape '%s'", name.c_str());
    const StencilShape &sh = *shape;

    MachineConfig cfg = machineCfg;
    if (opts.separationOverride)
        cfg.inLaneSeparation = opts.separationOverride;
    Machine m;
    m.init(cfg);
    m.setCancel(opts.cancel);
    m.setCheckpoint(opts.checkpoint);

    WorkloadResult res;
    res.workload = sh.name;

    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const bool cached = cfg.mem.cacheEnabled;
    const uint32_t n = sh.n;
    const uint32_t planes = sh.is3d ? n : 1;
    // "Units" are rows (2D) or planes (3D); a strip updates stripSize
    // units and loads them plus a one-deep halo on each side.
    const uint32_t loadUnits = sh.stripSize + 2;
    const uint32_t strips = n / sh.stripSize;
    const uint32_t unitWords = sh.is3d ? n * n : n;
    // Window-row views: 3 for 2D, 3 planes x 3 rows for 3D.
    const uint32_t views = sh.is3d ? 9 : 3;

    Rng rng(opts.seed);
    std::vector<float> img(static_cast<size_t>(planes) * n * n);
    for (auto &p : img)
        p = rng.uniformf(0, 1);
    std::vector<float> ref = stencilReference(sh, img);

    const uint64_t inAddr = 0;
    const uint64_t outAddr = img.size();
    m.mem().dram().fill(inAddr, floatsToWords(img));

    std::vector<std::unique_ptr<KernelGraph>> graphs;
    graphs.push_back(std::make_unique<KernelGraph>(
        indexed ? stencilIdxGraph(sh, views, n / g.lanes)
                : stencilSpGraph(sh, views)));
    const KernelGraph *kg = graphs[0].get();

    StreamProgram prog(m);
    SlotId inA = prog.addStream("stripInA",
        static_cast<uint64_t>(loadUnits) * unitWords,
        StreamLayout::Striped, StreamDir::In, indexed);
    SlotId inB = prog.addStream("stripInB",
        static_cast<uint64_t>(loadUnits) * unitWords,
        StreamLayout::Striped, StreamDir::In, indexed);
    SlotId outA = prog.addStream("stripOutA",
        static_cast<uint64_t>(sh.stripSize) * unitWords);
    SlotId outB = prog.addStream("stripOutB",
        static_cast<uint64_t>(sh.stripSize) * unitWords);
    std::vector<SlotId> viewsA, viewsB;
    if (indexed) {
        for (uint32_t i = 0; i < views; i++) {
            viewsA.push_back(prog.addStreamAlias("viewA", inA));
            viewsB.push_back(prog.addStreamAlias("viewB", inB));
        }
    }

    // Lane-local index of buffer word (bufRow, cc): every row of the
    // buffer is striped identically (rows are multiples of the
    // seqWidth*lanes stripe), columns outside the lane are clamped to
    // its nearest group (documented approximation, as in Filter).
    auto laneLocalIdx = [&](uint32_t bufRow, uint32_t cc, uint32_t lane) {
        uint32_t grp = cc / g.seqWidth;
        if (grp % g.lanes != lane)
            grp = (cc / (g.seqWidth * g.lanes)) * g.lanes + lane;
        uint32_t laneRow = bufRow * (n / (g.seqWidth * g.lanes)) +
            grp / g.lanes;
        return laneRow * g.seqWidth + cc % g.seqWidth;
    };

    ProgOpId lastKernelOnBuf[2] = {-1, -1};
    for (uint32_t rep = 0; rep < opts.repeats; rep++) {
        SlotId inCur = inA, inNxt = inB;
        SlotId outCur = outA, outNxt = outB;
        std::vector<SlotId> *viewsCur = &viewsA, *viewsNxt = &viewsB;
        int bufIdx = 0;
        for (uint32_t s = 0; s < strips; s++) {
            int firstUnit = std::clamp<int>(
                static_cast<int>(s * sh.stripSize) - 1, 0,
                static_cast<int>(n - loadUnits));
            ProgOpId loadId = prog.load(inCur,
                inAddr + static_cast<uint64_t>(firstUnit) * unitWords,
                cached);
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
            const size_t outSlot = indexed ? views : 1;
            for (uint32_t l = 0; l < g.lanes; l++) {
                auto &tr = inv->laneTraces[l];
                std::vector<Word> outWords;
                const uint32_t pLo = sh.is3d ? s * sh.stripSize : 0;
                const uint32_t pHi = sh.is3d
                    ? pLo + sh.stripSize : 1;
                const uint32_t rLo = sh.is3d ? 0 : s * sh.stripSize;
                const uint32_t rHi = sh.is3d ? n
                    : rLo + sh.stripSize;
                for (uint32_t p = pLo; p < pHi; p++) {
                    for (uint32_t r = rLo; r < rHi; r++) {
                        for (uint32_t c = 0; c < n; c++) {
                            if ((c / g.seqWidth) % g.lanes != l)
                                continue;
                            tr.iterations++;
                            // Functional value via column partial
                            // sums (different summation order than
                            // the reference).
                            float acc = 0;
                            for (int dc = -1; dc <= 1; dc++) {
                                float colSum = 0;
                                for (int dp = sh.is3d ? -1 : 0;
                                        dp <= (sh.is3d ? 1 : 0); dp++) {
                                    for (int dr = -1; dr <= 1; dr++) {
                                        int pp = std::clamp<int>(
                                            static_cast<int>(p) + dp,
                                            0, planes - 1);
                                        int rr = std::clamp<int>(
                                            static_cast<int>(r) + dr,
                                            0, n - 1);
                                        int cc = std::clamp<int>(
                                            static_cast<int>(c) + dc,
                                            0, n - 1);
                                        colSum += tap(sh, dp, dr, dc) *
                                            img[(static_cast<size_t>(
                                                     pp) * n + rr) * n +
                                                cc];
                                    }
                                }
                                acc += colSum;
                            }
                            outWords.push_back(floatToWord(acc));
                            if (!indexed)
                                continue;
                            // One incoming-column read per view.
                            int cNew = std::min<int>(
                                static_cast<int>(c) + 1, n - 1);
                            uint32_t vi = 0;
                            for (int dp = sh.is3d ? -1 : 0;
                                    dp <= (sh.is3d ? 1 : 0); dp++) {
                                for (int dr = -1; dr <= 1; dr++) {
                                    uint32_t bufRow;
                                    if (sh.is3d) {
                                        int pp = std::clamp<int>(
                                            std::clamp<int>(
                                                static_cast<int>(p) +
                                                    dp, 0, planes - 1) -
                                                firstUnit,
                                            0, loadUnits - 1);
                                        int rr = std::clamp<int>(
                                            static_cast<int>(r) + dr,
                                            0, n - 1);
                                        bufRow = static_cast<uint32_t>(
                                            pp) * n + rr;
                                    } else {
                                        int rr = std::clamp<int>(
                                            std::clamp<int>(
                                                static_cast<int>(r) +
                                                    dr, 0, n - 1) -
                                                firstUnit,
                                            0, loadUnits - 1);
                                        bufRow = static_cast<uint32_t>(
                                            rr);
                                    }
                                    tr.idxReads[vi].push_back(
                                        laneLocalIdx(bufRow,
                                            static_cast<uint32_t>(cNew),
                                            l));
                                    vi++;
                                }
                            }
                        }
                    }
                }
                tr.seqWrites[outSlot] = std::move(outWords);
            }
            inv->finalize();
            ProgOpId kid = prog.kernel(inv);
            if (indexed) {
                prog.dependsOn(kid, loadId);
                lastKernelOnBuf[bufIdx] = kid;
            }
            prog.store(outCur, outAddr +
                static_cast<uint64_t>(s) * sh.stripSize * unitWords);
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
        m.mem().dram().dump(outAddr, img.size()));
    bool ok = true;
    for (size_t i = 0; i < ref.size() && ok; i++) {
        if (std::abs(got[i] - ref[i]) > 1e-4f)
            ok = false;
    }
    res.correct = ok;
    res.extra["kernel_ii"] = m.scheduleKernel(*kg).ii;
    res.extra["strips"] = strips;
    res.extra["points"] = sh.points;
    return res;
}

} // namespace isrf
