/**
 * @file
 * Read-write SRF data structures (§7 future work, implemented here):
 * an SRF-resident histogram updated in place by an `idxl_rw` stream.
 *
 * Each cluster reads a stream of keys and bumps the matching bin of a
 * table living in its SRF bank — a read-modify-write per element, with
 * the shared address FIFO keeping the read and write of each bin in
 * issue order. This is the kind of structure the paper's conclusion
 * proposes ("data structures that require both reads and writes
 * simultaneously in the SRF").
 *
 * Build & run:  ./build/examples/srf_histogram
 */
#include <cstdio>
#include <vector>

#include "core/stream_program.h"
#include "kernel/builder.h"
#include "util/random.h"
#include "workloads/trace_util.h"

using namespace isrf;

int
main()
{
    Machine m;
    m.init(MachineConfig::isrf4());

    const uint32_t bins = 128, n = 4096;

    // The in-place kernel: keys >> k; table[k] >> v; table[k] << v+1.
    KernelBuilder b("histogram");
    auto keysIn = b.seqIn("keys");
    auto table = b.idxlRw("table");  // read-write indexed stream
    auto k = b.read(keysIn);
    auto v = b.readIdx(table, k);
    b.writeIdx(table, k, b.iadd(v, b.constInt(1)));
    KernelGraph g = b.build();
    KernelSchedule sched = m.scheduleKernel(g);
    std::printf("histogram kernel: II=%u (read-modify-write through the "
                "indexed stream)\n", sched.ii);

    // SRF-resident table (one per lane) + key stream from memory. The
    // table's region is reserved through the machine allocator so the
    // stream program's own allocations stay disjoint.
    SlotConfig tc;
    tc.layout = StreamLayout::PerLane;
    tc.lengthWords = bins;
    tc.base = m.allocator().alloc(bins, StreamLayout::PerLane);
    tc.indexed = true;
    tc.readWrite = true;
    SlotId tbl = m.srf().openSlot(tc);
    for (uint32_t l = 0; l < m.lanes(); l++)
        for (uint32_t w = 0; w < bins; w++)
            m.srf().writeWord(l, tc.base + w, 0);

    Rng rng(99);
    std::vector<Word> keys(n);
    for (auto &key : keys)
        key = static_cast<Word>(rng.below(bins));
    m.mem().dram().fill(0, keys);

    StreamProgram prog(m);
    SlotId keySlot = prog.addStream("keys", n);
    prog.load(keySlot, 0);

    // Functional per-lane histograms become the kernel's write trace.
    auto inv = newInvocation(m, &g, {keySlot, tbl});
    std::vector<std::vector<Word>> hist(m.lanes(),
                                        std::vector<Word>(bins, 0));
    const SrfGeometry &geom = m.config().srf;
    for (size_t e = 0; e < keys.size(); e++) {
        uint32_t lane = stripeLane(geom, e);
        auto &t = inv->laneTraces[lane];
        t.iterations++;
        t.idxReads[1].push_back(keys[e]);
        IdxWriteTraceEntry w;
        w.recordIndex = keys[e];
        hist[lane][keys[e]]++;
        w.data[0] = hist[lane][keys[e]];
        t.idxWrites[1].push_back(w);
    }
    inv->finalize();
    ProgOpId kid = prog.kernel(inv);
    (void)kid;
    uint64_t cycles = prog.run();

    // Verify: SRF bins == reference counts; merge lanes for the total.
    uint32_t errors = 0;
    std::vector<uint64_t> total(bins, 0);
    for (uint32_t l = 0; l < m.lanes(); l++) {
        for (uint32_t w = 0; w < bins; w++) {
            if (m.srf().readWord(l, tc.base + w) != hist[l][w])
                errors++;
            total[w] += hist[l][w];
        }
    }
    uint64_t sum = 0;
    for (uint64_t t : total)
        sum += t;
    std::printf("binned %u keys into %u SRF-resident bins in %llu "
                "cycles (%.2f keys/cycle), %u errors\n", n, bins,
                static_cast<unsigned long long>(cycles),
                static_cast<double>(n) / static_cast<double>(cycles),
                errors);
    std::printf("checksum: %llu keys accounted for; busiest bin holds "
                "%llu\n", static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(
                    *std::max_element(total.begin(), total.end())));
    std::printf("%s\n", errors == 0 && sum == n ? "OK" : "FAILED");
    return errors == 0 && sum == n ? 0 : 1;
}
