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

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "kernel/scheduler.h"
#include "net/crossbar.h"
#include "srf/srf.h"
#include "util/log.h"
#include "util/ring.h"

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
    // The write and indexed counts are also the capacities of a lane's
    // per-slot work rings: one iteration's worth, because the next
    // iteration cannot issue until the rings drain.
    std::vector<uint32_t> seqReadsPerIter;
    std::vector<uint32_t> seqWritesPerIter;
    std::vector<uint32_t> idxReadsPerIter;
    std::vector<uint32_t> idxWritesPerIter;
    /** Schedule offsets (cycle within iteration) of IdxRead ops/slot. */
    std::vector<std::vector<uint32_t>> idxReadOffsets;
    uint32_t commSendsPerIter = 0;

    /** Most stream slots a kernel may have: one bit each in a lane mask. */
    static constexpr size_t kMaxStreamSlots = 64;

    /** Compute derived metadata; call once after filling the fields. */
    void finalize();
};

/** Why a cluster failed to make progress in a cycle. */
enum class StallCause : uint8_t { None, SrfData, SrfBuffer };

/** How one lane-cycle was spent (Figure 12 categories). */
enum class CycleCat : uint8_t { Idle, Loop, Overhead, SrfStall };

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
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

    void init(uint32_t lane, Srf *srf, Crossbar *dataNet,
              Tracer *tracer = nullptr);

    /** Attach this lane to a kernel invocation starting at `now`. */
    void bind(const KernelInvocation *inv, Cycle now);

    /** Detach after done(). */
    void unbind();

    bool bound() const { return inv_ != nullptr; }

    /** All iterations issued, all indexed data consumed, pipe drained. */
    bool done(Cycle now) const;

    /**
     * Advance one cycle. @return how this lane spent it. Before it
     * returns, the lane records when it next needs a tick (wake()).
     */
    CycleCat tick(Cycle now);

    /**
     * First cycle on which tick() may do more than return sleepCat()
     * and change nothing: on every earlier cycle the lane sleeps. A
     * lane with queued stream work, pending comm sends or a stall
     * wakes on the next cycle. Derived, never checkpointed: bind(),
     * unbind() and a snapshot load reset it to 0.
     */
    Cycle wake() const { return wake_; }

    /** What tick() returns on each cycle before wake(). */
    CycleCat sleepCat() const { return sleepCat_; }

    uint32_t lane() const { return lane_; }

    /** Iterations issued so far (progress/debug). */
    uint64_t itersIssued() const { return itersIssued_; }

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
    /** All of the previous iteration's stream work has drained. */
    bool resourcesReady() const { return pendingMask_ == 0; }
    /** tick()'s cycle, before planSleep(). */
    CycleCat advance(Cycle now);
    /** Set wake_ and sleepCat_ from the state tick() leaves at `now`. */
    void planSleep(Cycle now);
    /** Loop once the pipeline is full, else Overhead (fill). */
    CycleCat issuingCat() const;
    void issueIteration(Cycle now);
    /** Drain due indexed data; false if a due record is not ready. */
    bool consumeDueData(Cycle now);
    /** Drain pending stream work of the slots in pendingMask_. */
    void drainPending(Cycle now);
    /** Rebuild the masks and earliestDue_ from the queues (on load). */
    void deriveMasks();
    /** earliestDue_ from the fronts of the queues in needMask_. */
    void refreshEarliestDue();

    /**
     * One kernel slot's trace cursors and queued work. Per-iteration
     * stream work can exceed buffer/FIFO capacity (e.g. 16 words
     * against an 8-word buffer); real schedules spread the accesses
     * across the loop body. The pending queues hold the spill-over,
     * drained opportunistically each cycle; the next iteration cannot
     * issue until they are empty, so each ring holds at most one
     * iteration's work (KernelInvocation's per-iteration counts).
     */
    struct SlotWork
    {
        /** Need-times of outstanding indexed reads, in issue order. */
        Ring<Cycle> dataNeeds;
        size_t seqWriteCur = 0;
        size_t idxReadCur = 0;
        size_t idxWriteCur = 0;
        Ring<Word> pendingOut;                 ///< seq writes
        uint32_t pendingIn = 0;                ///< seq reads (count)
        Ring<uint32_t> pendingIdxR;            ///< idx read records
        Ring<IdxWriteTraceEntry> pendingIdxW;  ///< idx writes

        /** Any queued stream work (pendingMask_'s bit). */
        bool
        pending() const
        {
            return pendingIn > 0 || !pendingOut.empty() ||
                !pendingIdxR.empty() || !pendingIdxW.empty();
        }
    };

    uint32_t lane_ = 0;
    Srf *srf_ = nullptr;
    Crossbar *dataNet_ = nullptr;

    const KernelInvocation *inv_ = nullptr;
    Cycle bindCycle_ = 0;
    uint64_t itersIssued_ = 0;
    Cycle nextIssue_ = 0;
    Cycle lastIssue_ = 0;
    uint32_t pendingCommSends_ = 0;
    /**
     * [kernelSlot] for the first nSlots_ entries (the last bind's
     * slots, kept after unbind). Never shrinks, so the rings keep
     * their storage across binds.
     */
    std::vector<SlotWork> work_;
    size_t nSlots_ = 0;

    // Derived from work_ (never checkpointed; deriveMasks() on load).
    /** Bit s: slot s has queued stream work. */
    uint64_t pendingMask_ = 0;
    /** Bit s: slot s has outstanding indexed reads (dataNeeds). */
    uint64_t needMask_ = 0;
    /** Earliest front of the dataNeeds in needMask_; kNever if none. */
    Cycle earliestDue_ = kNever;
    /** wake() and sleepCat(); 0 after bind, unbind or load. */
    Cycle wake_ = 0;
    CycleCat sleepCat_ = CycleCat::Idle;

    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
    bool doneReported_ = false;  ///< "lane_done" emitted for this bind
};

} // namespace isrf

#endif // ISRF_CLUSTER_CLUSTER_H
