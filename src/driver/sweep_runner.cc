#include "driver/sweep_runner.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "util/hash.h"
#include "util/json.h"
#include "util/jsonl.h"
#include "util/log.h"
#include "util/random.h"
#include "util/snapshot.h"
#include "workloads/external.h"

namespace isrf {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// ----------------------------------------------------------------------
// Fingerprinting
// ----------------------------------------------------------------------

/** Journal format version; bump on any record-layout change. */
constexpr uint64_t kJournalVersion = 1;

/**
 * THE fingerprint exclusion list: MachineConfig knobs that observe a
 * simulation without affecting its results, and therefore must never
 * enter canonicalJob() below. Any knob listed here can change between
 * a journal being written and being resumed without invalidating it:
 *
 *   traceSpec           event tracing is side-effect-free
 *   traceCapacity       ring size only bounds what --trace exports
 *   statSampleInterval  samples read counters, never write state
 *                       (canonicalJob pins its legacy key to the
 *                       default 0 — see there)
 *   profileEnabled      host-time profiling reads only the wall clock
 *   profileStride       ditto
 *
 * Keep this list and canonicalJob() in sync; tests assert canonical
 * text is unchanged for non-observability configs, so growing the
 * list cannot silently invalidate journals.
 */
const std::vector<std::string> &
observabilityKnobList()
{
    static const std::vector<std::string> knobs = {
        "traceSpec",      "traceCapacity",  "statSampleInterval",
        "profileEnabled", "profileStride",
    };
    return knobs;
}

/**
 * Canonical text dump of every simulation-affecting input of a job.
 * Adding a field here (when the simulator grows one) deliberately
 * invalidates old journals — that is the stale-detection working as
 * intended. Observability-only knobs (observabilityKnobList() above)
 * must NOT be added. Doubles print with %.17g so every distinct value
 * has a distinct canonical form.
 */
std::string
canonicalJob(const SweepJob &job)
{
    const MachineConfig &c = job.cfg;
    std::string s;
    auto add = [&](const char *k, const std::string &v) {
        s += k;
        s += '=';
        s += v;
        s += ';';
    };
    auto addU = [&](const char *k, uint64_t v) {
        add(k, std::to_string(v));
    };
    auto addD = [&](const char *k, double v) {
        add(k, strprintf("%.17g", v));
    };

    add("workload", job.workload);
    // The journal can attest registry workloads (name == code path)
    // but not arbitrary injected runners; mark the latter so their
    // records never alias a registry job's.
    add("runner", job.runner ? "custom" : "registry");
    add("kind", c.name());

    const SrfGeometry &g = c.srf;
    addU("srf.lanes", g.lanes);
    addU("srf.laneWords", g.laneWords);
    addU("srf.seqWidth", g.seqWidth);
    addU("srf.subArrays", g.subArrays);
    addU("srf.streamBufWords", g.streamBufWords);
    addU("srf.addrFifoSize", g.addrFifoSize);
    addU("srf.seqLatency", g.seqLatency);
    addU("srf.inLaneLatency", g.inLaneLatency);
    addU("srf.crossLaneLatency", g.crossLaneLatency);
    addU("srf.netPortsPerBank", g.netPortsPerBank);
    addU("srf.maxStreamSlots", g.maxStreamSlots);
    addU("srf.remoteQueueDepth", g.remoteQueueDepth);
    addU("srf.netTopology", static_cast<uint64_t>(g.netTopology));
    addU("srf.arbPolicy", static_cast<uint64_t>(g.arbPolicy));
    addU("srfMode", static_cast<uint64_t>(c.srfMode));

    const DramConfig &d = c.dram;
    addU("dram.capacityWords", d.capacityWords);
    addD("dram.wordsPerCycle", d.wordsPerCycle);
    addD("dram.randomCostFactor", d.randomCostFactor);
    addD("dram.smallFootprintCostFactor", d.smallFootprintCostFactor);
    addU("dram.accessLatency", d.accessLatency);
    addD("dram.burstTokens", d.burstTokens);
    addU("dram.rowBufferModel", d.rowBufferModel ? 1 : 0);
    addU("dram.rowWords", d.rowWords);
    addU("dram.banks", d.banks);
    addD("dram.rowHitCost", d.rowHitCost);
    addD("dram.rowMissCost", d.rowMissCost);

    const CacheConfig &ca = c.cache;
    addU("cache.capacityWords", ca.capacityWords);
    addU("cache.lineWords", ca.lineWords);
    addU("cache.ways", ca.ways);
    addU("cache.banks", ca.banks);
    addD("cache.wordsPerCycle", ca.wordsPerCycle);

    addU("mem.units", c.mem.units);
    addU("mem.stagingWords", c.mem.stagingWords);
    addU("mem.cacheEnabled", c.mem.cacheEnabled ? 1 : 0);

    const ClusterResources &cl = c.cluster;
    addU("cluster.aluSlots", cl.aluSlots);
    addU("cluster.divSlots", cl.divSlots);
    addU("cluster.commSlots", cl.commSlots);
    addU("cluster.sbufSlots", cl.sbufSlots);
    addU("cluster.spSlots", cl.spSlots);
    addU("cluster.idxIssuePerStream", cl.idxIssuePerStream);

    addU("inLaneSeparation", c.inLaneSeparation);
    addU("crossLaneSeparation", c.crossLaneSeparation);
    addU("kernelStartOverhead", c.kernelStartOverhead);
    addD("commOccupancy", c.commOccupancy);
    // statSampleInterval became an excluded observability knob after
    // journals containing this key already existed: the key stays, but
    // pinned to its default so every sampling setting produces the
    // same canonical text (and pre-existing journals — all written
    // with the default — resume without a version bump).
    addU("statSampleInterval", 0);
    addU("seed", c.seed);

    const FaultConfig &f = c.faults;
    addU("faults.enabled", f.enabled ? 1 : 0);
    addU("faults.seed", f.seed);
    addU("faults.eccEnabled", f.eccEnabled ? 1 : 0);
    addU("faults.retryLimit", f.retryLimit);
    addU("faults.retryBackoffBase", f.retryBackoffBase);
    addU("faults.opTimeoutCycles", f.opTimeoutCycles);
    addU("faults.degradeThreshold", f.degradeThreshold);
    addU("faults.watchdogInterval", f.watchdogInterval);
    addU("faults.watchdogStallIntervals", f.watchdogStallIntervals);
    addU("faults.schedule.size", f.schedule.size());
    for (const FaultScheduleEntry &e : f.schedule) {
        addU("fault.kind", static_cast<uint64_t>(e.kind));
        addU("fault.start", e.start);
        addU("fault.period", e.period);
        addU("fault.count", e.count);
        addU("fault.bits", e.bits);
        addU("fault.delayCycles", e.delayCycles);
        addU("fault.maxAddr", e.maxAddr);
        addU("fault.transient", e.transient ? 1 : 0);
    }

    addU("opts.repeats", job.opts.repeats);
    addU("opts.seed", job.opts.seed);
    addU("opts.separationOverride", job.opts.separationOverride);

    // External-dataset workloads depend on file content the workload
    // name cannot attest. Fold in the file's current size + FNV-1a so
    // a journal written against one version of the input is stale —
    // not silently spliced — when the file changes. Keys are appended
    // only for dataset-backed workloads, so built-in fingerprints
    // (including the golden values pinned in tests) are untouched.
    if (const ExternalDataset *ds = findExternalDataset(job.workload)) {
        uint64_t bytes = 0, fnv = 0;
        if (!fnv1aFile(ds->path, bytes, fnv))
            fatal("sweep fingerprint: dataset '%s' for workload '%s' "
                  "is unreadable; cannot attest job identity",
                  ds->path.c_str(), job.workload.c_str());
        add("dataset.path", ds->path);
        addU("dataset.bytes", bytes);
        add("dataset.fnv1a", strprintf("%016llx",
            static_cast<unsigned long long>(fnv)));
    }
    return s;
}

// ----------------------------------------------------------------------
// Checkpoints
// ----------------------------------------------------------------------

/**
 * mkdir -p for the checkpoint directory (util/snapshot.h). Failure is
 * fatal(): a sweep asked to checkpoint into an uncreatable directory
 * is a user error better caught before hours of simulation than
 * warned about per job.
 */
void
requireCheckpointDir(const std::string &dir)
{
    std::string err;
    if (!ensureCheckpointDir(dir, err))
        fatal("%s", err.c_str());
}

// ----------------------------------------------------------------------
// Journal records
// ----------------------------------------------------------------------

std::string
headerRecord(uint64_t sweepFp, size_t jobCount)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", std::string("header"));
    w.field("version", kJournalVersion);
    w.field("sweep", sweepFp);
    w.field("jobs", static_cast<uint64_t>(jobCount));
    w.endObject();
    return w.str();
}

std::string
attemptRecord(uint64_t jobFp, const SweepOutcome &o, uint32_t attempt,
              double wallSeconds)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", std::string("attempt"));
    w.field("job", jobFp);
    w.field("workload", o.workload);
    w.field("machine", std::string(machineKindName(o.kind)));
    w.field("attempt", static_cast<uint64_t>(attempt));
    w.field("status", std::string(runStatusName(o.status)));
    w.field("wall_s", wallSeconds);
    w.field("error", o.result.error);
    w.key("result").raw(o.resultText);
    w.endObject();
    return w.str();
}

/**
 * Rebuild the table-facing WorkloadResult fields from a journaled
 * result record. kernelBw is not reconstructed (its JSON form keeps
 * derived ratios, not the raw counters); the sweep tables and the JSON
 * export never need it — the export splices resultText verbatim.
 */
WorkloadResult
decodeResult(const SweepJournalRecord &rec, const SweepJob &job)
{
    WorkloadResult r;
    r.workload = job.workload;
    r.kind = job.cfg.kind;
    r.status = rec.status;
    JsonLineView v(rec.resultText);
    if (!v.valid())
        return r;
    v.getU64("cycles", r.cycles);
    v.getBool("correct", r.correct);
    v.getString("error", r.error);
    v.getU64("dram_words", r.dramWords);
    v.getU64("srf_seq_words", r.srfSeqWords);
    v.getU64("srf_idx_words", r.srfIdxWords);
    v.getU64("cache_words", r.cacheWords);
    std::string nested;
    if (v.getRaw("breakdown", nested)) {
        JsonLineView b(nested);
        b.getU64("loop_body", r.breakdown.loopBody);
        b.getU64("mem_stall", r.breakdown.memStall);
        b.getU64("srf_stall", r.breakdown.srfStall);
        b.getU64("overhead", r.breakdown.overhead);
    }
    if (v.getRaw("extra", nested)) {
        JsonLineView x(nested);
        // extra is a flat name->number map; recover it key by key.
        for (const auto &key : x.keys()) {
            double d = 0.0;
            if (x.getDouble(key, d))
                r.extra[key] = d;
        }
    }
    return r;
}

} // namespace

// ----------------------------------------------------------------------
// Public static helpers
// ----------------------------------------------------------------------

uint64_t
SweepRunner::fingerprint(const SweepJob &job)
{
    return fnv1a(canonicalJob(job));
}

std::string
SweepRunner::canonicalJobText(const SweepJob &job)
{
    return canonicalJob(job);
}

const std::vector<std::string> &
SweepRunner::observabilityKnobs()
{
    return observabilityKnobList();
}

uint64_t
SweepRunner::sweepFingerprint(const std::vector<SweepJob> &jobs)
{
    uint64_t h = kFnvBasis;
    h = fnv1a(std::to_string(kJournalVersion), h);
    for (const SweepJob &j : jobs)
        h = fnv1a(std::to_string(fingerprint(j)), h);
    return h;
}

bool
SweepRunner::replayable(RunStatus s)
{
    return s == RunStatus::Done || s == RunStatus::Stalled ||
           s == RunStatus::Failed;
}

SweepJournalLoad
SweepRunner::loadJournal(const std::string &path)
{
    SweepJournalLoad load;
    JsonlReadResult raw = readJsonl(path);
    if (!raw.ok()) {
        load.error = raw.error;
        return load;
    }
    load.tornFinalLine = raw.tornFinalLine;
    load.tornBytes = raw.tornBytes;
    load.blankLines = raw.blankLines;
    if (raw.records.empty()) {
        load.error =
            strprintf("'%s' has no journal header", path.c_str());
        return load;
    }

    JsonLineView head(raw.records[0]);
    std::string type;
    uint64_t version = 0;
    uint64_t jobCount = 0;
    if (!head.valid() || !head.getString("type", type) ||
        type != "header" || !head.getU64("version", version) ||
        !head.getU64("sweep", load.sweepFingerprint) ||
        !head.getU64("jobs", jobCount)) {
        load.error = strprintf("'%s' line 1 is not a journal header",
                               path.c_str());
        return load;
    }
    if (version != kJournalVersion) {
        load.error = strprintf(
            "'%s' journal version %llu != supported %llu", path.c_str(),
            static_cast<unsigned long long>(version),
            static_cast<unsigned long long>(kJournalVersion));
        return load;
    }
    load.jobCount = static_cast<size_t>(jobCount);

    for (size_t i = 1; i < raw.records.size(); i++) {
        JsonLineView v(raw.records[i]);
        SweepJournalRecord rec;
        uint64_t attempt = 1;
        std::string status;
        if (!v.valid() || !v.getString("type", type) ||
            type != "attempt" || !v.getU64("job", rec.job) ||
            !v.getString("workload", rec.workload) ||
            !v.getString("machine", rec.machine) ||
            !v.getU64("attempt", attempt) ||
            !v.getString("status", status) ||
            !v.getRaw("result", rec.resultText)) {
            load.error = strprintf(
                "'%s' line %zu is not a journal attempt record",
                path.c_str(), i + 1);
            return load;
        }
        if (!runStatusFromName(status, rec.status)) {
            load.error =
                strprintf("'%s' line %zu has unknown status '%s'",
                          path.c_str(), i + 1, status.c_str());
            return load;
        }
        rec.attempt = static_cast<uint32_t>(attempt);
        v.getDouble("wall_s", rec.wallSeconds);
        v.getString("error", rec.error);
        load.attempts[rec.job]++;
        load.latest[rec.job] = std::move(rec);
    }
    load.ok = true;
    return load;
}

// ----------------------------------------------------------------------
// SweepRunner
// ----------------------------------------------------------------------

SweepRunner::SweepRunner(unsigned threads)
{
    if (threads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw ? hw : 1;
    }
    threads_ = threads;
}

std::vector<SweepJob>
SweepRunner::matrix(const std::vector<std::string> &workloads,
                    const std::vector<MachineKind> &kinds,
                    const WorkloadOptions &opts)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size() * kinds.size());
    for (const auto &w : workloads) {
        for (MachineKind k : kinds) {
            SweepJob j;
            j.workload = w;
            j.cfg = MachineConfig::make(k);
            j.opts = opts;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs, ProgressFn progress)
{
    return run(jobs, SweepPolicy(), std::move(progress));
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs,
                 const SweepPolicy &policy, ProgressFn progress)
{
    // Force the lazy registry into existence before any worker
    // starts. Magic statics are thread-safe, but initializing it here
    // keeps worker wall times honest and the first jobs fast.
    workloadRegistry();
    // The runner's own phases (Report, Journal) are profiled exactly
    // when its jobs are.
    profiler_.configure(false);
    for (const SweepJob &job : jobs) {
        if (job.cfg.profileEnabled) {
            profiler_.configure(true, job.cfg.profileStride);
            break;
        }
    }
    profiler_.reset();

    std::vector<SweepOutcome> out(jobs.size());
    timing_ = SweepTiming();
    timing_.threads = std::max(1u,
        std::min<unsigned>(threads_, jobs.size() ? jobs.size() : 1));

    std::vector<uint64_t> fps(jobs.size());
    for (size_t i = 0; i < jobs.size(); i++)
        fps[i] = fingerprint(jobs[i]);
    const uint64_t sweepFp = sweepFingerprint(jobs);

    const bool checkpointing = !policy.checkpointDir.empty();
    if (checkpointing)
        requireCheckpointDir(policy.checkpointDir);
    std::atomic<uint64_t> ckptSaves{0}, ckptRestores{0}, ckptCycles{0};

    // --- journal: load for resume, then (re)open for appending ------
    JsonlWriter journal;
    std::mutex journalMu;
    if (!policy.journalPath.empty()) {
        struct stat st;
        const bool exists = ::stat(policy.journalPath.c_str(), &st) == 0;
        bool appendExisting = false;
        if (policy.resume && exists) {
            SweepJournalLoad load = loadJournal(policy.journalPath);
            if (!load.ok)
                fatal("--resume: cannot use journal %s: %s",
                      policy.journalPath.c_str(), load.error.c_str());
            if (load.sweepFingerprint != sweepFp ||
                load.jobCount != jobs.size())
                fatal("--resume: journal %s is stale: it records sweep "
                      "%016llx over %zu job(s), but the submitted "
                      "matrix is sweep %016llx over %zu job(s). The "
                      "workloads, configuration, input datasets, or "
                      "code have changed since it was written; delete "
                      "the journal (or drop --resume) to start fresh.",
                      policy.journalPath.c_str(),
                      static_cast<unsigned long long>(
                          load.sweepFingerprint),
                      load.jobCount,
                      static_cast<unsigned long long>(sweepFp),
                      jobs.size());
            if (load.tornFinalLine) {
                // Drop the torn bytes so the next append starts on a
                // fresh line instead of gluing onto the partial record
                // (which would corrupt the journal for later readers).
                // The torn line is the unterminated tail, so everything
                // up to the last '\n' is intact.
                off_t newSize = st.st_size -
                    static_cast<off_t>(load.tornBytes);
                if (::truncate(policy.journalPath.c_str(), newSize) != 0)
                    fatal("--resume: cannot trim torn record from %s: "
                          "%s", policy.journalPath.c_str(),
                          std::strerror(errno));
                ISRF_WARN("sweep journal %s: dropped torn final record "
                          "(%zu bytes)", policy.journalPath.c_str(),
                          load.tornBytes);
                timing_.tornRecordsDropped = 1;
                timing_.tornBytesDropped = load.tornBytes;
            }
            timing_.journalLinesSkipped = load.blankLines;
            for (size_t i = 0; i < jobs.size(); i++) {
                auto it = load.latest.find(fps[i]);
                if (it == load.latest.end())
                    continue;
                const SweepJournalRecord &rec = it->second;
                if (!replayable(rec.status))
                    continue;  // TimedOut/Cancelled: re-run fresh
                SweepOutcome &o = out[i];
                o.workload = jobs[i].workload;
                o.kind = jobs[i].cfg.kind;
                o.status = rec.status;
                o.attempts = rec.attempt;
                o.fromJournal = true;
                o.resultText = rec.resultText;
                o.result = decodeResult(rec, jobs[i]);
                timing_.replayed++;
                // The job finished before the interrupted sweep died;
                // any checkpoint it left behind is dead weight.
                if (checkpointing)
                    ::unlink(checkpointFilePath(policy.checkpointDir,
                                            fps[i]).c_str());
            }
            appendExisting = true;
        }
        if (!journal.open(policy.journalPath, appendExisting))
            fatal("cannot open sweep journal %s for writing",
                  policy.journalPath.c_str());
        if (!appendExisting && !journal.append(headerRecord(
                sweepFp, jobs.size())))
            fatal("cannot write header to sweep journal %s",
                  policy.journalPath.c_str());
    }

    std::mutex progressMu;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};

    auto note = [&](size_t idx, bool finished) {
        if (!progress)
            return;
        std::lock_guard<std::mutex> lock(progressMu);
        progress(jobs[idx], finished,
                 finished ? done.load() : done.load(), jobs.size());
    };

    const uint32_t maxAttempts = 1 + policy.retries;

    // One job, possibly several attempts. Runs on a worker thread; all
    // state it touches is the job's own outcome slot plus the
    // mutex-guarded journal.
    auto runJob = [&](size_t idx) {
        const SweepJob &job = jobs[idx];
        SweepOutcome &o = out[idx];
        o.workload = job.workload;
        o.kind = job.cfg.kind;
        // Deterministic per-job jitter: same backoff schedule on every
        // rerun of the same sweep, different schedules across jobs.
        Rng jitter(fps[idx] ^ 0x9e3779b97f4a7c15ull);

        // One context per job, shared across attempts: a TimedOut
        // attempt's checkpoint lets its retry resume mid-flight.
        std::unique_ptr<CheckpointContext> ckpt;
        if (checkpointing)
            ckpt = std::make_unique<CheckpointContext>(
                checkpointFilePath(policy.checkpointDir, fps[idx]),
                fps[idx], policy.checkpointEveryCycles);

        for (uint32_t attempt = 1; attempt <= maxAttempts; attempt++) {
            CancelToken token;
            token.chainTo(policy.cancel);
            if (policy.timeoutSeconds > 0)
                token.setTimeout(policy.timeoutSeconds);
            WorkloadOptions opts = job.opts;
            opts.cancel = &token;
            if (ckpt)
                opts.checkpoint = ckpt.get();

            auto t0 = std::chrono::steady_clock::now();
            WorkloadResult r;
            try {
                r = job.runner ? job.runner(job.cfg, opts)
                               : runWorkload(job.workload, job.cfg,
                                             opts);
            } catch (const std::exception &e) {
                // A throwing job must not take the pool down: record
                // a Failed outcome and keep draining the queue.
                r = WorkloadResult();
                r.workload = job.workload;
                r.kind = job.cfg.kind;
                r.status = RunStatus::Failed;
                r.error = e.what();
                ISRF_WARN("sweep job '%s' on %s threw: %s",
                          job.workload.c_str(), job.cfg.name().c_str(),
                          e.what());
            } catch (...) {
                r = WorkloadResult();
                r.workload = job.workload;
                r.kind = job.cfg.kind;
                r.status = RunStatus::Failed;
                r.error = "unknown exception";
                ISRF_WARN("sweep job '%s' on %s threw a non-std "
                          "exception", job.workload.c_str(),
                          job.cfg.name().c_str());
            }
            double wall = secondsSince(t0);

            o.result = std::move(r);
            o.status = o.result.status;
            o.attempts = attempt;
            o.wallSeconds += wall;
            {
                Profiler::Scope prof(profiler_, Profiler::Report);
                o.resultText = resultJson(o.result);
            }

            if (journal.isOpen()) {
                Profiler::Scope prof(profiler_, Profiler::Journal);
                std::lock_guard<std::mutex> lock(journalMu);
                journal.append(attemptRecord(fps[idx], o, attempt,
                                             wall));
            }

            // Only a wall-clock deadline can be transient (host
            // overload); every other status is final. A stall is
            // deterministic: the watchdog counts simulated cycles and
            // work, so a retry would stall on the same cycle.
            if (o.status != RunStatus::TimedOut)
                break;
            if (attempt == maxAttempts)
                break;
            if (policy.cancel && policy.cancel->cancelRequested())
                break;

            double delay = policy.backoffBaseSeconds *
                static_cast<double>(1ull << (attempt - 1));
            delay = std::min(delay, policy.backoffCapSeconds);
            delay *= 0.5 + jitter.uniform();  // +-50% jitter
            ISRF_WARN("sweep job '%s' on %s %s (attempt %u/%u); "
                      "retrying in %.2fs", job.workload.c_str(),
                      job.cfg.name().c_str(),
                      runStatusName(o.status), attempt, maxAttempts,
                      delay);
            // Sleep in small slices so a sweep-level cancel is not
            // held up by a long backoff.
            auto deadline = std::chrono::steady_clock::now() +
                std::chrono::duration<double>(delay);
            while (std::chrono::steady_clock::now() < deadline) {
                if (policy.cancel && policy.cancel->cancelRequested())
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        }

        if (ckpt) {
            ckptSaves.fetch_add(ckpt->saves());
            ckptRestores.fetch_add(ckpt->restores());
            ckptCycles.fetch_add(ckpt->executedCycles());
            // A replayable outcome is journaled for good: its
            // checkpoint will never be read again. TimedOut/Cancelled
            // keep theirs so the next sweep resumes mid-flight.
            if (replayable(o.status))
                ckpt->removeFile();
        }
    };

    // Index-addressed result slots make submission-order output
    // trivial: worker i never races worker j on out[k].
    auto worker = [&]() {
        for (;;) {
            size_t idx = next.fetch_add(1);
            if (idx >= jobs.size())
                return;
            if (out[idx].fromJournal) {
                done.fetch_add(1);
                note(idx, true);
                continue;
            }
            note(idx, false);
            runJob(idx);
            done.fetch_add(1);
            note(idx, true);
        }
    };

    auto sweepStart = std::chrono::steady_clock::now();
    if (timing_.threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(timing_.threads);
        for (unsigned t = 0; t < timing_.threads; t++)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    timing_.wallSeconds = secondsSince(sweepStart);
    for (const auto &o : out)
        if (!o.fromJournal)
            timing_.sumJobSeconds += o.wallSeconds;
    timing_.checkpointSaves = ckptSaves.load();
    timing_.checkpointRestores = ckptRestores.load();
    timing_.simCyclesExecuted = ckptCycles.load();
    return out;
}

} // namespace isrf
