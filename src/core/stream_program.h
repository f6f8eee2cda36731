/**
 * @file
 * Stream-level programs: the software side of the stream programming
 * model (§2). A StreamProgram is a partially ordered set of stream
 * operations — memory loads/stores/gathers/scatters and kernel
 * invocations — over SRF-resident streams. The runtime issues
 * operations out of order as their stream dependencies resolve, which
 * yields the software-pipelined strip-mined execution the paper assumes
 * (memory transfers for strip i+1 overlap kernels on strip i).
 */
#ifndef ISRF_CORE_STREAM_PROGRAM_H
#define ISRF_CORE_STREAM_PROGRAM_H

#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/machine.h"

namespace isrf {

/** Identifies an operation within a StreamProgram. */
using ProgOpId = int32_t;

/**
 * Builds and executes one stream program on a Machine.
 *
 * Typical use:
 * @code
 *   StreamProgram prog(machine);
 *   SlotId in = prog.addStream("in", n, StreamLayout::Striped);
 *   SlotId out = prog.addStream("out", n, StreamLayout::Striped);
 *   prog.load(in, memAddr);
 *   prog.kernel(buildInvocation(...));
 *   prog.store(out, memAddr2);
 *   prog.run();
 * @endcode
 *
 * Dependencies are inferred from stream usage (RAW, WAR, WAW on SRF
 * slots); explicit extra edges can be added with dependsOn(). Every
 * edge points backwards (to a lower op id), so the graph is acyclic.
 *
 * run() drives the ops through a scoreboard (DESIGN.md §18): per-op
 * pending-dependency counts, dependents lists, an index-ordered ready
 * set and an in-flight list, so each cycle costs O(ready + in-flight)
 * rather than O(ops).
 */
class StreamProgram
{
  public:
    explicit StreamProgram(Machine &m);
    ~StreamProgram();

    StreamProgram(const StreamProgram &) = delete;
    StreamProgram &operator=(const StreamProgram &) = delete;

    // ------------------------------------------------------------------
    // Stream declaration
    // ------------------------------------------------------------------

    /**
     * Allocate SRF space and open a slot for a stream.
     *
     * @param totalWords Total stream words (Striped) or per-lane words
     *        (PerLane).
     * @param indexed Opens the slot for indexed access.
     * @param crossLane Cross-lane indexed access (implies indexed).
     * @param dir Direction as seen by kernels.
     * @param readWrite In-lane indexed read-write slot (histogram-style
     *        in-place update; implies indexed, in-lane only).
     */
    SlotId addStream(const std::string &name, uint64_t totalWords,
                     StreamLayout layout = StreamLayout::Striped,
                     StreamDir dir = StreamDir::In, bool indexed = false,
                     bool crossLane = false, uint32_t recordWords = 1,
                     std::vector<uint32_t> perLaneLen = {},
                     bool readWrite = false);

    /**
     * Open an additional slot over the SAME SRF region as `orig`
     * (independent stream buffers / address FIFOs, shared storage).
     * Used when a kernel needs several indexed streams into one data
     * structure. Dependency inference treats the alias as a separate
     * stream: add explicit dependsOn() edges against the original's
     * producers/consumers.
     */
    SlotId addStreamAlias(const std::string &name, SlotId orig);

    /**
     * Like addStreamAlias, but overriding the cross-lane property of
     * the view. Lets one SRF region be read both through the in-lane
     * indexed ports (lane-local indices) and the cross-lane switch
     * (global record indices) — the SpMV x-window split.
     */
    SlotId addStreamAlias(const std::string &name, SlotId orig,
                          bool crossLane);

    /** Functionally pre-load a stream's SRF region (tables, tests). */
    void fillStream(SlotId slot, const std::vector<Word> &data);

    /** Functionally read back a stream's SRF region. */
    std::vector<Word> dumpStream(SlotId slot) const;

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    ProgOpId load(SlotId dst, uint64_t memBase, bool cached = false,
                  uint64_t lengthWords = 0);
    ProgOpId store(SlotId src, uint64_t memBase, bool cached = false,
                   uint64_t lengthWords = 0);
    ProgOpId gather(SlotId dst, uint64_t memBase,
                    std::vector<uint32_t> indices, uint32_t recordWords = 1,
                    bool cached = false, uint64_t dstOffsetWords = 0);
    ProgOpId scatter(SlotId src, uint64_t memBase,
                     std::vector<uint32_t> indices,
                     uint32_t recordWords = 1, bool cached = false);
    ProgOpId kernel(std::shared_ptr<KernelInvocation> inv);

    /**
     * Add an explicit ordering edge: `after` waits for `before`.
     * Panics unless `before < after` (edges point backwards). A
     * duplicate of an existing edge is kept as given.
     */
    void dependsOn(ProgOpId after, ProgOpId before);

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /**
     * Run to completion (all ops done, memory system idle), or until
     * Machine::stopStatus says stop: the watchdog tripped, or the
     * machine's CancelToken (Machine::setCancel) requests cancellation
     * or expires its deadline. How the run ended is reported by
     * lastStatus(); such runs leave the machine at a consistent cycle
     * boundary. Past `maxCycles` the machine dumps its trace tail and
     * the run panics (a model deadlock).
     * @return total machine cycles elapsed during this call.
     */
    uint64_t run(uint64_t maxCycles = 1ull << 30);

    /**
     * How the most recent run() ended: Done, Stalled (watchdog),
     * TimedOut (deadline) or Cancelled. Done before any run().
     */
    RunStatus lastStatus() const { return status_; }

    Machine &machine() { return machine_; }

    // ------------------------------------------------------------------
    // Snapshot (util/snapshot.h, DESIGN.md §17)
    //
    // The program GRAPH (streams, ops, dependencies) is rebuilt
    // deterministically by the workload from its config before run();
    // only the runtime cursor (per-op issued/completed/memId, the scan
    // window, the active kernel op) travels in the checkpoint, guarded
    // by a structural hash of the rebuilt graph. run() restores from
    // the machine's CheckpointContext before its first step and saves
    // whenever the context says a checkpoint is due.
    // ------------------------------------------------------------------

    /** FNV-1a over the op graph's structure (kinds, slots, deps). */
    uint64_t structureHash() const;

    /**
     * The runtime cursor only (see above). A load rejects (marks the
     * reader failed, program untouched) a cursor for another graph, and
     * a checksum-valid but inconsistent one: an op completed but not
     * issued, or issued before its deps completed; an active kernel op
     * that is not an issued, incomplete kernel, or a second issued,
     * incomplete kernel; an incomplete op below the saved scan start.
     */
    void snapshot(SnapshotIo &io);

  private:
    /**
     * Try to resume from the context's checkpoint file. Missing,
     * stale, or other-program checkpoints are skipped (warn only);
     * corrupt files are quarantined; a verified snapshot is applied to
     * the program and the machine.
     */
    void maybeRestore(CheckpointContext &ckpt);

    /** Serialize program + machine and write atomically. */
    void saveCheckpoint(CheckpointContext &ckpt);
    struct Op
    {
        enum class Kind { Mem, Kernel } kind;
        MemOp mem;
        std::shared_ptr<KernelInvocation> inv;
        std::vector<SlotId> readsSlots;
        std::vector<SlotId> writesSlots;
        std::vector<ProgOpId> deps;
        // runtime state
        bool issued = false;
        bool completed = false;
        MemOpId memId = 0;
    };

    ProgOpId addMemOp(MemOp op, std::vector<SlotId> reads,
                      std::vector<SlotId> writes);
    void inferDeps(Op &op);
    /** Index of the first incomplete op (ops_.size() when all done). */
    size_t firstIncomplete() const;
    /** Rebuild the scoreboard from the ops' issued/completed flags. */
    void buildScoreboard();
    /** An unissued op's last dep completed: queue it for issue. */
    void makeReady(ProgOpId id);
    /** Mark an op completed and release its dependents. */
    void retire(ProgOpId id);
    void tryIssue();
    void updateCompletion();
    bool allDone() const { return completedOps_ == ops_.size(); }

    Machine &machine_;
    std::vector<Op> ops_;
    // Scoreboard, rebuilt by buildScoreboard() at the start of run().
    /** Per op: deps not yet completed (duplicate edges counted). */
    std::vector<uint32_t> pending_;
    /** Per op: ops holding an incomplete-dep edge on it. */
    std::vector<std::vector<ProgOpId>> dependents_;
    /** Mem ops that became ready since the last tryIssue(). */
    std::vector<ProgOpId> readyMem_;
    /** Ready kernels, lowest op id on top. */
    std::priority_queue<ProgOpId, std::vector<ProgOpId>,
                        std::greater<ProgOpId>> readyKernels_;
    /** Issued, incomplete mem ops (unordered). */
    std::vector<ProgOpId> inFlight_;
    size_t completedOps_ = 0;
    /** Per-slot last writer / readers since last write (dep inference). */
    std::vector<ProgOpId> lastWriter_;
    std::vector<std::vector<ProgOpId>> readersSinceWrite_;
    std::vector<SlotId> openedSlots_;
    ProgOpId activeKernelOp_ = -1;
    RunStatus status_ = RunStatus::Done;
};

} // namespace isrf

#endif // ISRF_CORE_STREAM_PROGRAM_H
