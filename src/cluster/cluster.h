/**
 * @file
 * Compute clusters: per-lane execution of software-pipelined kernel
 * schedules against the SRF and the inter-cluster network.
 *
 * The model is decoupled functional/timing: workloads precompute each
 * kernel's functional effect as *traces* (output stream words, indexed
 * addresses, indexed write data), and the cluster replays those traces
 * under the real timing constraints — initiation interval from the
 * modulo scheduler, stream-buffer occupancy, address-FIFO space,
 * indexed data return latency (including sub-array and network
 * conflicts), and inter-cluster network occupancy. Functional results
 * are thereby deposited into SRF storage exactly as the hardware
 * would, while timing emerges from the microarchitecture models.
 */
#ifndef ISRF_CLUSTER_CLUSTER_H
#define ISRF_CLUSTER_CLUSTER_H

#include <deque>
#include <vector>

#include "kernel/scheduler.h"
#include "net/crossbar.h"
#include "srf/srf.h"

namespace isrf {

class Tracer;

/** One indexed write in a trace: target record + data words. */
struct IdxWriteTraceEntry
{
    uint32_t recordIndex;
    Word data[4] = {0, 0, 0, 0};
};

/** Per-lane functional traces for one kernel invocation. */
struct LaneTrace
{
    /** Iterations this lane executes. */
    uint64_t iterations = 0;
    /** [kernelSlot] -> sequential output words, pushed in order. */
    std::vector<std::vector<Word>> seqWrites;
    /** [kernelSlot] -> indexed read record indices, issued in order. */
    std::vector<std::vector<uint32_t>> idxReads;
    /** [kernelSlot] -> indexed writes, issued in order. */
    std::vector<std::vector<IdxWriteTraceEntry>> idxWrites;
};

/**
 * A fully bound kernel invocation: graph + schedule + SRF slots +
 * per-lane traces. Built by the stream-program runtime.
 */
struct KernelInvocation
{
    const KernelGraph *graph = nullptr;
    KernelSchedule sched;
    /** kernelSlot -> SRF slot id. */
    std::vector<SlotId> slots;
    std::vector<LaneTrace> laneTraces;  ///< one per lane
    /** Fixed dispatch overhead (microcode load etc.), cycles. */
    uint32_t startOverhead = 64;

    // ---- derived per-kernel-slot metadata (computed by finalize()) ----
    std::vector<uint32_t> seqReadsPerIter;
    std::vector<uint32_t> seqWritesPerIter;
    std::vector<uint32_t> idxReadsPerIter;
    std::vector<uint32_t> idxWritesPerIter;
    /** Schedule offsets (cycle within iteration) of IdxRead ops/slot. */
    std::vector<std::vector<uint32_t>> idxReadOffsets;
    uint32_t commSendsPerIter = 0;

    /** Compute derived metadata; call once after filling the fields. */
    void finalize();
};

/** Why a cluster failed to make progress in a cycle. */
enum class StallCause : uint8_t { None, SrfData, SrfBuffer };

/** How one lane-cycle was spent (Figure 12 categories). */
enum class CycleCat : uint8_t { Idle, Loop, Overhead, SrfStall };

/** Per-lane cycle accounting matching Figure 12's categories. */
struct LaneCycles
{
    uint64_t loopBody = 0;
    uint64_t overhead = 0;   ///< fill/drain, dispatch, load imbalance
    uint64_t srfStall = 0;
    uint64_t idle = 0;       ///< no kernel bound to the cluster

    uint64_t
    total() const
    {
        return loopBody + overhead + srfStall + idle;
    }
    void
    reset()
    {
        loopBody = overhead = srfStall = idle = 0;
    }
};

/**
 * One compute cluster (one lane).
 *
 * Lifecycle per kernel: bind() -> tick() until done() -> unbind by the
 * machine. Clusters must tick before Srf::endCycle() each cycle so
 * their issued addresses and network claims are visible to arbitration.
 */
class Cluster
{
  public:
    void init(uint32_t lane, Srf *srf, Crossbar *dataNet,
              Tracer *tracer = nullptr);

    /** Attach this lane to a kernel invocation starting at `now`. */
    void bind(const KernelInvocation *inv, Cycle now);

    /** Detach after done(). */
    void unbind();

    bool bound() const { return inv_ != nullptr; }

    /** All iterations issued, all indexed data consumed, pipe drained. */
    bool done(Cycle now) const;

    void tick(Cycle now);

    uint32_t lane() const { return lane_; }
    const LaneCycles &cycles() const { return cycles_; }
    void resetCycles() { cycles_.reset(); }

    /** Iterations issued so far (progress/debug). */
    uint64_t itersIssued() const { return itersIssued_; }

    /** How this lane spent the most recent cycle. */
    CycleCat lastCat() const { return lastCat_; }

    // ------------------------------------------------------------------
    // Snapshot (util/snapshot.h, DESIGN.md §17)
    // ------------------------------------------------------------------

    /**
     * Point this lane back at a deterministically rebuilt invocation
     * (or nullptr for an unbound lane) WITHOUT resetting progress —
     * snapshot restore only; snapshot() then refills the cursors and
     * pending queues. Normal kernel launches go through bind().
     */
    void restoreBind(const KernelInvocation *inv) { inv_ = inv; }

    void snapshot(SnapshotIo &io);

  private:
    bool resourcesReady(Cycle now) const;
    void issueIteration(Cycle now);
    /** Drain due indexed data; false if a due record is not ready. */
    bool consumeDueData(Cycle now);

    uint32_t lane_ = 0;
    Srf *srf_ = nullptr;
    Crossbar *dataNet_ = nullptr;

    const KernelInvocation *inv_ = nullptr;
    Cycle bindCycle_ = 0;
    uint64_t itersIssued_ = 0;
    Cycle nextIssue_ = 0;
    Cycle lastIssue_ = 0;
    uint32_t pendingCommSends_ = 0;
    /** [kernelSlot] -> need-times of outstanding indexed reads. */
    std::vector<std::deque<Cycle>> dataNeeds_;
    /** Trace cursors. */
    std::vector<size_t> seqWriteCur_;
    std::vector<size_t> idxReadCur_;
    std::vector<size_t> idxWriteCur_;
    /**
     * Per-iteration stream work can exceed buffer/FIFO capacity (e.g.
     * 16 words against an 8-word buffer); real schedules spread the
     * accesses across the loop body. These queues hold the spill-over,
     * drained opportunistically each cycle; the next iteration cannot
     * issue until they are empty.
     */
    std::vector<std::deque<Word>> pendingOut_;     ///< seq writes
    std::vector<uint32_t> pendingIn_;              ///< seq reads (count)
    std::vector<std::deque<uint32_t>> pendingIdxR_; ///< idx read records
    std::vector<std::deque<IdxWriteTraceEntry>> pendingIdxW_;

    /** Drain pending stream work; true if all queues are empty after. */
    bool drainPending(Cycle now);

    LaneCycles cycles_;
    CycleCat lastCat_ = CycleCat::Idle;

    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
    bool doneReported_ = false;  ///< "lane_done" emitted for this bind
};

} // namespace isrf

#endif // ISRF_CLUSTER_CLUSTER_H
