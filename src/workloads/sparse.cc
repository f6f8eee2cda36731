#include "workloads/sparse.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

const std::vector<std::string> &
spmvDatasetNames()
{
    static const std::vector<std::string> names = {
        "SpMV Banded", "SpMV Random", "SpMV Power",
    };
    return names;
}

CsrMatrix
spmvDatasetMatrix(const std::string &name, uint64_t seed)
{
    if (name == "SpMV Banded")
        return mtxGenBanded(2048, 4, seed);
    if (name == "SpMV Random")
        return mtxGenUniform(2048, 8, seed);
    if (name == "SpMV Power")
        return mtxGenPowerLaw(2048, 8, 2.2, seed);
    fatal("spmvDatasetMatrix: unknown dataset '%s'", name.c_str());
}

std::vector<float>
spmvReference(const CsrMatrix &a, const std::vector<float> &x)
{
    std::vector<float> y(a.rows, 0.0f);
    for (uint32_t r = 0; r < a.rows; r++) {
        float acc = 0;
        for (uint64_t k = a.rowPtr[r]; k < a.rowPtr[r + 1]; k++)
            acc += a.val[k] * x[a.col[k]];
        y[r] = acc;
    }
    return y;
}

namespace {

/**
 * Indexed-machine kernel: per non-zero, read the column index and
 * matrix value sequentially, gather x through whichever indexed port
 * the element lives behind, multiply-accumulate into a carried row sum.
 */
KernelGraph
spmvIdxGraph()
{
    KernelBuilder b("spmv");
    auto cols = b.seqIn("cols");   // x-window index per non-zero
    auto vals = b.seqIn("vals");   // matrix value per non-zero
    auto xloc = b.idxlIn("xloc");  // in-lane view of the x window
    auto xrem = b.idxIn("xrem");   // cross-lane view of the x window
    auto y = b.seqOut("y");

    auto c = b.read(cols);
    auto a = b.read(vals);
    auto xl = b.readIdx(xloc, c);
    auto xr = b.readIdx(xrem, c);
    auto x = b.fadd(xl, xr);
    auto prod = b.fmul(a, x);
    Value cin = b.carryIn();
    Value acc = b.fadd(prod, cin);
    b.write(y, acc);
    b.carryOut(cin, acc, 1);
    return b.build();
}

/** Base/Cache kernel: x arrives pre-expanded as a sequential stream. */
KernelGraph
spmvBaseGraph()
{
    KernelBuilder b("spmv");
    auto xs = b.seqIn("xexp");     // expanded x element per non-zero
    auto vals = b.seqIn("vals");
    auto y = b.seqOut("y");

    auto x = b.read(xs);
    auto a = b.read(vals);
    auto prod = b.fmul(a, x);
    Value cin = b.carryIn();
    Value acc = b.fadd(prod, cin);
    b.write(y, acc);
    b.carryOut(cin, acc, 1);
    return b.build();
}

struct SpmvStrip
{
    uint32_t r0, r1;
    /** Out-of-block columns touched by the strip, condensed. */
    std::vector<uint32_t> extIds;
    std::unordered_map<uint32_t, uint32_t> extIndex;
    /** Per-lane non-zero counts (row -> lane via striped y). */
    std::vector<uint64_t> laneNnz;
};

uint64_t
roundUpTo(uint64_t v, uint64_t q)
{
    return (v + q - 1) / q * q;
}

/** Partition rows into strips of `stripRows`, condensing ext columns. */
std::vector<SpmvStrip>
partitionStrips(const CsrMatrix &csr, const SrfGeometry &g,
                uint32_t stripRows)
{
    std::vector<SpmvStrip> strips;
    for (uint32_t r0 = 0; r0 < csr.rows; r0 += stripRows) {
        SpmvStrip s;
        s.r0 = r0;
        s.r1 = std::min(csr.rows, r0 + stripRows);
        s.laneNnz.assign(g.lanes, 0);
        uint32_t c0 = std::min(s.r0, csr.cols);
        uint32_t c1 = std::min(s.r1, csr.cols);
        for (uint32_t r = s.r0; r < s.r1; r++) {
            uint32_t lane = ((r - s.r0) / g.seqWidth) % g.lanes;
            for (uint64_t k = csr.rowPtr[r]; k < csr.rowPtr[r + 1];
                    k++) {
                s.laneNnz[lane]++;
                uint32_t c = csr.col[k];
                if ((c < c0 || c >= c1) && !s.extIndex.count(c)) {
                    s.extIndex[c] =
                        static_cast<uint32_t>(s.extIds.size());
                    s.extIds.push_back(c);
                }
            }
        }
        strips.push_back(std::move(s));
    }
    return strips;
}

} // namespace

WorkloadResult
runSpmv(const std::string &name, const MachineConfig &cfg,
        const WorkloadOptions &opts)
{
    return runSpmvCsr(name, spmvDatasetMatrix(name, opts.seed), cfg,
                      opts);
}

WorkloadResult
runSpmvCsr(const std::string &name, const CsrMatrix &csr,
           const MachineConfig &machineCfg, const WorkloadOptions &opts)
{
    MachineConfig cfg = machineCfg;
    if (opts.separationOverride) {
        cfg.inLaneSeparation = opts.separationOverride;
        cfg.crossLaneSeparation = opts.separationOverride;
    }
    Machine m;
    m.init(cfg);
    m.setCancel(opts.cancel);
    m.setCheckpoint(opts.checkpoint);

    WorkloadResult res;
    res.workload = name;

    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const bool cached = cfg.mem.cacheEnabled;

    if (csr.rows == 0 || csr.cols == 0)
        throw std::runtime_error("SpMV: empty matrix");

    Rng rng(opts.seed ^ 0x5bull);
    std::vector<float> x(csr.cols);
    for (auto &v : x)
        v = rng.uniformf(0.1f, 1.0f);
    std::vector<float> ref = spmvReference(csr, x);

    // --- strip sizing: shrink until the double-buffered working set
    // fits the per-lane SRF budget ---------------------------------
    const uint32_t quantum = g.lanes * g.seqWidth;
    const uint64_t laneBudget = g.laneWords - 128;
    uint32_t stripRows = static_cast<uint32_t>(std::min<uint64_t>(
        roundUpTo(csr.rows, quantum), 2048));
    std::vector<SpmvStrip> strips;
    uint64_t maxWindow = 0, maxLaneNnz = 0;
    while (true) {
        strips = partitionStrips(csr, g, stripRows);
        maxWindow = maxLaneNnz = 0;
        for (const auto &s : strips) {
            uint32_t c0 = std::min(s.r0, csr.cols);
            uint32_t c1 = std::min(s.r1, csr.cols);
            maxWindow = std::max<uint64_t>(
                maxWindow, (c1 - c0) + s.extIds.size());
            for (uint64_t n : s.laneNnz)
                maxLaneNnz = std::max(maxLaneNnz, n);
        }
        // Per-lane words, double buffered: two per-nonzero PerLane
        // streams (cols+vals or xexp+vals), the x window (indexed
        // only), and the y output strip.
        uint64_t perNnz = roundUpTo(maxLaneNnz + 8, g.seqWidth);
        uint64_t window = indexed
            ? roundUpTo(roundUpTo(maxWindow, g.lanes) / g.lanes,
                        g.seqWidth)
            : 0;
        uint64_t yWords = roundUpTo(
            roundUpTo(stripRows, g.lanes) / g.lanes, g.seqWidth);
        uint64_t need = 2 * (2 * perNnz + window + yWords);
        if (need <= laneBudget)
            break;
        if (stripRows <= quantum)
            throw std::runtime_error(strprintf(
                "SpMV '%s': matrix does not strip-mine into the SRF "
                "(%llu words/lane needed at the minimum strip, %llu "
                "available)", name.c_str(),
                static_cast<unsigned long long>(need),
                static_cast<unsigned long long>(laneBudget)));
        stripRows = std::max(quantum, stripRows / 2 / quantum * quantum);
    }
    res.extra["strip_rows"] = stripRows;
    res.extra["strips"] = static_cast<double>(strips.size());
    res.extra["nnz"] = static_cast<double>(csr.nnz());

    // --- DRAM layout: x, y, then per-strip per-nonzero streams ------
    const uint64_t xAddr = 0;
    const uint64_t yAddr = xAddr + csr.cols;
    uint64_t cursor = yAddr + csr.rows;
    m.mem().dram().fill(xAddr, floatsToWords(x));

    // Per strip: lane-major window-index words (indexed) or expanded x
    // values (Base), then lane-major matrix values. Lane-major order
    // matches the PerLane slot fill.
    std::vector<uint64_t> streamAddrA(strips.size());
    std::vector<uint64_t> streamAddrB(strips.size());
    std::vector<std::vector<uint32_t>> stripGatherCols(strips.size());
    for (size_t si = 0; si < strips.size(); si++) {
        const SpmvStrip &s = strips[si];
        uint32_t c0 = std::min(s.r0, csr.cols);
        uint32_t c1 = std::min(s.r1, csr.cols);
        std::vector<Word> first, second;
        for (uint32_t lane = 0; lane < g.lanes; lane++) {
            for (uint32_t r = s.r0; r < s.r1; r++) {
                if (((r - s.r0) / g.seqWidth) % g.lanes != lane)
                    continue;
                for (uint64_t k = csr.rowPtr[r]; k < csr.rowPtr[r + 1];
                        k++) {
                    uint32_t c = csr.col[k];
                    if (indexed) {
                        uint32_t w = (c >= c0 && c < c1)
                            ? c - c0
                            : (c1 - c0) + s.extIndex.at(c);
                        first.push_back(w);
                    } else {
                        first.push_back(floatToWord(x[c]));
                        stripGatherCols[si].push_back(c);
                    }
                    second.push_back(floatToWord(csr.val[k]));
                }
            }
        }
        streamAddrA[si] = cursor;
        m.mem().dram().fill(cursor, first);
        cursor += first.size();
        streamAddrB[si] = cursor;
        m.mem().dram().fill(cursor, second);
        cursor += second.size();
    }

    std::vector<std::unique_ptr<KernelGraph>> graphs;
    graphs.push_back(std::make_unique<KernelGraph>(
        indexed ? spmvIdxGraph() : spmvBaseGraph()));
    const KernelGraph *kg = graphs[0].get();

    StreamProgram prog(m);
    const uint64_t windowWords = std::max<uint64_t>(maxWindow, quantum);
    const uint64_t perNnzWords = maxLaneNnz + 8;
    SlotId xwA = -1, xwB = -1, xlocA = -1, xlocB = -1;
    if (indexed) {
        // The x window: one SRF region, two indexed views. The base
        // slot is the cross-lane view (global record indices); the
        // alias restricts to the in-lane ports (lane-local indices).
        xwA = prog.addStream("xwinA", windowWords, StreamLayout::Striped,
                             StreamDir::In, true, true);
        xwB = prog.addStream("xwinB", windowWords, StreamLayout::Striped,
                             StreamDir::In, true, true);
        xlocA = prog.addStreamAlias("xwinAloc", xwA, false);
        xlocB = prog.addStreamAlias("xwinBloc", xwB, false);
    }
    SlotId firstA = prog.addStream("nzA", perNnzWords,
                                   StreamLayout::PerLane);
    SlotId firstB = prog.addStream("nzB", perNnzWords,
                                   StreamLayout::PerLane);
    SlotId valsA = prog.addStream("valsA", perNnzWords,
                                  StreamLayout::PerLane);
    SlotId valsB = prog.addStream("valsB", perNnzWords,
                                  StreamLayout::PerLane);
    SlotId yA = prog.addStream("yA", stripRows);
    SlotId yB = prog.addStream("yB", stripRows);

    uint64_t inLaneReads = 0, crossReads = 0;
    for (uint32_t rep = 0; rep < opts.repeats; rep++) {
        SlotId xwCur = xwA, xwNxt = xwB;
        SlotId xlCur = xlocA, xlNxt = xlocB;
        SlotId fCur = firstA, fNxt = firstB;
        SlotId vCur = valsA, vNxt = valsB;
        SlotId yCur = yA, yNxt = yB;
        for (size_t si = 0; si < strips.size(); si++) {
            const SpmvStrip &s = strips[si];
            uint32_t c0 = std::min(s.r0, csr.cols);
            uint32_t c1 = std::min(s.r1, csr.cols);
            uint64_t stripNnz = 0;
            for (uint64_t n : s.laneNnz)
                stripNnz += n;

            if (indexed) {
                if (c1 > c0)
                    prog.load(xwCur, xAddr + c0, cached, c1 - c0);
                if (!s.extIds.empty())
                    prog.gather(xwCur, xAddr, s.extIds, 1, cached,
                                c1 - c0);
                prog.load(fCur, streamAddrA[si], false, stripNnz);
            } else if (cached) {
                // Vector-cache machine: expand x through the cache,
                // capturing intra- and inter-strip column reuse.
                prog.gather(fCur, xAddr, stripGatherCols[si], 1, true);
            } else {
                prog.load(fCur, streamAddrA[si], false, stripNnz);
            }
            prog.load(vCur, streamAddrB[si], false, stripNnz);

            auto inv = newInvocation(m, kg,
                indexed ? std::vector<SlotId>{fCur, vCur, xlCur, xwCur,
                                              yCur}
                        : std::vector<SlotId>{fCur, vCur, yCur});
            const size_t ySlot = indexed ? 4 : 2;
            for (uint32_t lane = 0; lane < g.lanes; lane++) {
                auto &tr = inv->laneTraces[lane];
                std::vector<Word> yWords;
                for (uint32_t r = s.r0; r < s.r1; r++) {
                    if (((r - s.r0) / g.seqWidth) % g.lanes != lane)
                        continue;
                    float acc = 0;
                    for (uint64_t k = csr.rowPtr[r];
                            k < csr.rowPtr[r + 1]; k++) {
                        uint32_t c = csr.col[k];
                        acc += csr.val[k] * x[c];
                        if (!indexed)
                            continue;
                        uint32_t w = (c >= c0 && c < c1)
                            ? c - c0
                            : (c1 - c0) + s.extIndex.at(c);
                        if ((w / g.seqWidth) % g.lanes == lane) {
                            // The element lives in this lane: lane-
                            // local word index via the in-lane port.
                            uint32_t local =
                                (w / (g.seqWidth * g.lanes)) *
                                    g.seqWidth + w % g.seqWidth;
                            tr.idxReads[2].push_back(local);
                            inLaneReads++;
                        } else {
                            tr.idxReads[3].push_back(w);
                            crossReads++;
                        }
                    }
                    yWords.push_back(floatToWord(acc));
                }
                tr.iterations = std::max<uint64_t>(s.laneNnz[lane],
                                                   yWords.size());
                tr.seqWrites[ySlot] = std::move(yWords);
            }
            inv->finalize();
            prog.kernel(inv);
            prog.store(yCur, yAddr + s.r0, false, s.r1 - s.r0);
            std::swap(xwCur, xwNxt);
            std::swap(xlCur, xlNxt);
            std::swap(fCur, fNxt);
            std::swap(vCur, vNxt);
            std::swap(yCur, yNxt);
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
        m.mem().dram().dump(yAddr, csr.rows));
    bool ok = true;
    for (uint32_t r = 0; r < csr.rows && ok; r++) {
        if (std::abs(got[r] - ref[r]) > 1e-3f * (std::abs(ref[r]) + 1))
            ok = false;
    }
    res.correct = ok;
    if (indexed && (inLaneReads + crossReads) > 0)
        res.extra["inlane_frac"] =
            static_cast<double>(inLaneReads) /
            static_cast<double>(inLaneReads + crossReads);
    res.extra["kernel_ii"] = m.scheduleKernel(*kg).ii;
    return res;
}

} // namespace isrf
