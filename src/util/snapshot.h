/**
 * @file
 * Versioned simulation snapshots (DESIGN.md §17).
 *
 * A Snapshot is a set of tagged, length-prefixed sections, each
 * protected by an FNV-1a checksum, behind a header carrying the format
 * version, the job fingerprint (driver/sweep_runner.h) and a machine
 * geometry hash. Components serialize themselves into sections through
 * SnapshotWriter and restore through the bounds-checked
 * SnapshotReader, both driven by one SnapshotIo field list per
 * section; Machine::saveSnapshot()/loadSnapshot() walk the section
 * table.
 *
 * Durability contract: files are written to a unique temp file, fsync'd,
 * renamed into place and the directory fsync'd, so a crash or power
 * loss leaves either the previous checkpoint or the new one, never a
 * blend.
 * On load every checksum is verified before any simulator state is
 * touched; a torn, truncated or bit-flipped file is detected,
 * quarantined (renamed to <path>.bad) and the job restarts from zero —
 * a corrupt checkpoint can cost time, never correctness.
 */
#ifndef ISRF_UTIL_SNAPSHOT_H
#define ISRF_UTIL_SNAPSHOT_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace isrf {

/** Append-only byte sink for one snapshot section. */
class SnapshotWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    void
    u32(uint32_t v)
    {
        char tmp[4];
        std::memcpy(tmp, &v, 4);
        buf_.append(tmp, 4);
    }

    void
    u64(uint64_t v)
    {
        char tmp[8];
        std::memcpy(tmp, &v, 8);
        buf_.append(tmp, 8);
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    /** Doubles travel as bit patterns: restore is byte-exact. */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    void bytes(const void *p, size_t n)
    {
        buf_.append(static_cast<const char *>(p), n);
    }

    const std::string &data() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Bounds-checked reader over one section payload. Every accessor
 * returns false (and latches a sticky failure) on out-of-bounds
 * reads, so a malformed payload can never crash the loader — the
 * caller checks ok()/atEnd() and falls back to a from-zero run.
 */
class SnapshotReader
{
  public:
    SnapshotReader(const void *data, size_t size)
        : p_(static_cast<const uint8_t *>(data)), size_(size)
    {
    }
    explicit SnapshotReader(const std::string &payload)
        : SnapshotReader(payload.data(), payload.size())
    {
    }

    bool
    u8(uint8_t &v)
    {
        if (!need(1))
            return false;
        v = p_[pos_++];
        return true;
    }

    bool
    b(bool &v)
    {
        uint8_t raw;
        if (!u8(raw))
            return false;
        v = raw != 0;
        return true;
    }

    bool
    u32(uint32_t &v)
    {
        if (!need(4))
            return false;
        std::memcpy(&v, p_ + pos_, 4);
        pos_ += 4;
        return true;
    }

    bool
    u64(uint64_t &v)
    {
        if (!need(8))
            return false;
        std::memcpy(&v, p_ + pos_, 8);
        pos_ += 8;
        return true;
    }

    bool
    i64(int64_t &v)
    {
        uint64_t raw;
        if (!u64(raw))
            return false;
        v = static_cast<int64_t>(raw);
        return true;
    }

    bool
    f64(double &v)
    {
        uint64_t bits;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, 8);
        return true;
    }

    bool
    str(std::string &s)
    {
        uint64_t n;
        if (!len(n, 1))
            return false;
        s.assign(reinterpret_cast<const char *>(p_ + pos_),
                 static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return true;
    }

    /**
     * Read a container length and validate it against the remaining
     * payload (n elements of at least elemBytes each must fit), so a
     * corrupted count can never drive a huge allocation or a long
     * loop over garbage.
     */
    bool
    len(uint64_t &n, size_t elemBytes)
    {
        if (!u64(n))
            return false;
        if (elemBytes != 0 &&
            n > (size_ - pos_) / elemBytes) {
            fail_ = true;
            return false;
        }
        return true;
    }

    /** n raw bytes, the counterpart of SnapshotWriter::bytes. */
    bool
    bytes(void *p, size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(p, p_ + pos_, n);
        pos_ += n;
        return true;
    }

    bool ok() const { return !fail_; }
    size_t remaining() const { return fail_ ? 0 : size_ - pos_; }
    /** A fully-consumed, error-free payload. */
    bool atEnd() const { return ok() && pos_ == size_; }
    void markFailed() { fail_ = true; }

  private:
    bool
    need(size_t n)
    {
        if (fail_ || size_ - pos_ < n) {
            fail_ = true;
            return false;
        }
        return true;
    }

    const uint8_t *p_;
    size_t size_;
    size_t pos_ = 0;
    bool fail_ = false;
};

/**
 * One field list for both directions (DESIGN.md §17). A component's
 * snapshot(SnapshotIo &) names each field once, in wire order. Over a
 * SnapshotWriter every call appends the field's value; over a
 * SnapshotReader the same call reads it back into the field, with the
 * reader's bounds checks and sticky failure. A failed read leaves the
 * field as it was, so a field list can run to its end after a failure
 * and the caller checks ok() (or the reader's atEnd()) once.
 *
 * Loader checks go through require(), which rejects the payload on
 * load and is a no-op on save. State derived from the loaded fields is
 * rebuilt in a tail guarded by loading().
 */
class SnapshotIo
{
  public:
    explicit SnapshotIo(SnapshotWriter &w) : w_(&w) {}
    explicit SnapshotIo(SnapshotReader &r) : r_(&r) {}

    bool saving() const { return w_ != nullptr; }
    bool loading() const { return r_ != nullptr; }
    /** False once a load read failed or a check rejected the payload. */
    bool ok() const { return w_ || r_->ok(); }

    /** On load, reject the payload unless `cond` holds. */
    bool
    require(bool cond)
    {
        if (r_ && !cond)
            r_->markFailed();
        return ok();
    }

    void u8(uint8_t &v) { w_ ? w_->u8(v) : void(r_->u8(v)); }
    void b(bool &v) { w_ ? w_->b(v) : void(r_->b(v)); }
    void u32(uint32_t &v) { w_ ? w_->u32(v) : void(r_->u32(v)); }
    void u64(uint64_t &v) { w_ ? w_->u64(v) : void(r_->u64(v)); }
    void i64(int64_t &v) { w_ ? w_->i64(v) : void(r_->i64(v)); }
    void f64(double &v) { w_ ? w_->f64(v) : void(r_->f64(v)); }
    void str(std::string &s) { w_ ? w_->str(s) : void(r_->str(s)); }

    void
    bytes(void *p, size_t n)
    {
        w_ ? w_->bytes(p, n) : void(r_->bytes(p, n));
    }

    /** An enum or a narrower integer carried as a u8. */
    template <typename T>
    void
    asU8(T &v)
    {
        auto raw = static_cast<uint8_t>(v);
        u8(raw);
        v = static_cast<T>(raw);
    }

    /** An enum or an integer id carried as a u32. */
    template <typename T>
    void
    asU32(T &v)
    {
        auto raw = static_cast<uint32_t>(v);
        u32(raw);
        v = static_cast<T>(raw);
    }

    /**
     * A container length: written as is; on load read and checked
     * against the remaining payload (n elements of at least elemBytes
     * each must fit; 0 = unchecked). False on a failed load.
     */
    bool
    len(uint64_t &n, size_t elemBytes)
    {
        if (w_) {
            w_->u64(n);
            return true;
        }
        return r_->len(n, elemBytes);
    }

    /** A geometry-fixed count: written as is; on load it must be n. */
    bool
    expect(uint64_t n, size_t elemBytes)
    {
        uint64_t got = n;
        return len(got, elemBytes) && require(got == n);
    }

    /**
     * A length-prefixed sequence (vector or deque). `field(elem)` lists
     * one element's fields; on load the container is cleared and
     * refilled with the elements read.
     */
    template <typename C, typename F>
    void
    seq(C &c, size_t elemBytes, F &&field)
    {
        uint64_t n = c.size();
        if (!len(n, elemBytes))
            return;
        if (w_) {
            for (auto &e : c)
                field(e);
            return;
        }
        c.clear();
        for (uint64_t i = 0; i < n && ok(); i++) {
            typename C::value_type e{};
            field(e);
            if (ok())
                c.push_back(std::move(e));
        }
    }

    /** seq() of plain u32 / u64 / i64 values. */
    template <typename C>
    void
    seq(C &c)
    {
        using T = typename C::value_type;
        seq(c, sizeof(T), [this](T &v) { scalar(v); });
    }

    /**
     * A length-prefixed string-keyed map: each entry is the key, then
     * the fields `field(value)` lists. On load the map is cleared and
     * refilled; a repeated key keeps the last value.
     */
    template <typename M, typename F>
    void
    map(M &m, size_t elemBytes, F &&field)
    {
        uint64_t n = m.size();
        if (!len(n, elemBytes))
            return;
        if (w_) {
            for (auto &kv : m) {
                w_->str(kv.first);
                field(kv.second);
            }
            return;
        }
        m.clear();
        for (uint64_t i = 0; i < n && ok(); i++) {
            std::string key;
            typename M::mapped_type v{};
            str(key);
            field(v);
            if (ok())
                m[key] = std::move(v);
        }
    }

    /** map() of plain u64 / f64 values. */
    template <typename M>
    void
    map(M &m, size_t elemBytes)
    {
        using T = typename M::mapped_type;
        map(m, elemBytes, [this](T &v) { scalar(v); });
    }

    /** Each element of a geometry-fixed container, no length prefix. */
    template <typename C>
    void
    each(C &c)
    {
        for (auto &v : c)
            scalar(v);
    }

  private:
    void scalar(uint32_t &v) { u32(v); }
    void scalar(uint64_t &v) { u64(v); }
    void scalar(int64_t &v) { i64(v); }
    void scalar(double &v) { f64(v); }

    SnapshotWriter *w_ = nullptr;
    SnapshotReader *r_ = nullptr;
};

/** Four-character section tag ("SRF ", "CLUS", ...). */
constexpr uint32_t
snapTag(char a, char b, char c, char d)
{
    return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
           static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

/**
 * Section registry (DESIGN.md §17). Adding a section is
 * backward-compatible only together with a kSnapshotFormatVersion
 * bump: the loader refuses versions it does not know.
 */
constexpr uint32_t kSnapMachine = snapTag('M', 'A', 'C', 'H');
constexpr uint32_t kSnapSrf = snapTag('S', 'R', 'F', ' ');
constexpr uint32_t kSnapClusters = snapTag('C', 'L', 'U', 'S');
constexpr uint32_t kSnapMemory = snapTag('M', 'E', 'M', 'S');
constexpr uint32_t kSnapWatchdog = snapTag('W', 'D', 'O', 'G');
constexpr uint32_t kSnapSampler = snapTag('S', 'A', 'M', 'P');
constexpr uint32_t kSnapFaults = snapTag('F', 'I', 'N', 'J');
constexpr uint32_t kSnapProgram = snapTag('P', 'R', 'O', 'G');

/**
 * Bumped whenever any section layout changes. Version 2 dropped the
 * MACH and MEMS fields that only the retired skip engine read;
 * version 3 dropped the components' copies of the machine clock,
 * every write-only counter and the XBAR section, and stores DRAM as
 * its touched pages.
 */
constexpr uint32_t kSnapshotFormatVersion = 3;

/**
 * An in-memory snapshot: header fields plus tagged sections. The
 * serialized layout is
 *
 *   "ISRFSNAP" u32 version  u64 fingerprint  u64 cycle  u64 geom
 *   u32 nsections  u64 headerHash
 *   nsections x { u32 tag  u64 len  payload[len]  u64 sectionHash }
 *
 * where each hash is FNV-1a (util/hash.h) over the bytes it guards
 * (header prefix resp. tag+len+payload). parse() verifies every hash
 * and all framing before returning success.
 */
struct Snapshot
{
    uint32_t version = kSnapshotFormatVersion;
    uint64_t fingerprint = 0;
    /** Machine clock at save time. */
    uint64_t cycle = 0;
    /** Machine::geometryHash() at save time; checked before restore. */
    uint64_t geometry = 0;

    struct Section
    {
        uint32_t tag = 0;
        std::string payload;
    };
    std::vector<Section> sections;

    void addSection(uint32_t tag, const SnapshotWriter &w);
    /** nullptr when the tag is absent. */
    const std::string *findSection(uint32_t tag) const;

    std::string serialize() const;
    /**
     * Parse + verify a serialized snapshot: magic, version, framing
     * and every checksum. On failure returns false with a diagnostic
     * in err and leaves *this unspecified.
     */
    bool parse(const std::string &bytes, std::string &err);

    /**
     * Write to a unique `<path>.tmp.XXXXXX`, fsync it, rename it over
     * `path`, then fsync the directory. False (with err, and the temp
     * file removed) on any I/O failure.
     */
    bool writeAtomic(const std::string &path, std::string &err) const;
};

/** Outcome of loading a checkpoint file from disk. */
enum class SnapshotLoad
{
    Ok,       ///< parsed, verified, fingerprint matched
    Missing,  ///< no file at path — first run, start from zero
    Corrupt,  ///< torn / truncated / bit-flipped — quarantine
    Stale,    ///< valid file for a different job fingerprint
};

/**
 * Read and fully verify a checkpoint file. Missing file: err empty.
 * Corrupt/Stale: err carries the diagnostic; the caller decides
 * whether to quarantine.
 */
SnapshotLoad loadSnapshotFile(const std::string &path,
                              uint64_t expectFingerprint,
                              Snapshot &out, std::string &err);

/**
 * Per-job checkpoint policy + accounting, shared between the run loop
 * (StreamProgram::run saves/restores through it) and the sweep runner
 * (creates one per job, aggregates its counters into SweepTiming).
 * Owned and used by one job thread.
 */
class CheckpointContext
{
  public:
    CheckpointContext(std::string path, uint64_t fingerprint,
                      uint64_t everyCycles)
        : path_(std::move(path)), fingerprint_(fingerprint),
          everyCycles_(everyCycles)
    {
    }

    const std::string &path() const { return path_; }
    uint64_t fingerprint() const { return fingerprint_; }
    uint64_t everyCycles() const { return everyCycles_; }

    /** Should the run loop save at cycle `now`? */
    bool
    saveDue(uint64_t now) const
    {
        return everyCycles_ != 0 &&
               now - lastSaveCycle_ >= everyCycles_;
    }

    void
    noteSaved(uint64_t cycle)
    {
        lastSaveCycle_ = cycle;
        saves_++;
    }

    /** Also resets the periodic cadence so an unwritable directory
     *  warns once per interval, not once per cycle. */
    void noteSaveFailed(uint64_t cycle) { lastSaveCycle_ = cycle; }

    void
    noteRestored(uint64_t cycle)
    {
        lastSaveCycle_ = cycle;
        restores_++;
    }

    /** Called once per run-loop exit with the cycles this process
     *  actually simulated (final minus post-restore start). */
    void addExecuted(uint64_t cycles) { executedCycles_ += cycles; }

    void noteQuarantined() { quarantined_++; }

    uint64_t saves() const { return saves_; }
    uint64_t restores() const { return restores_; }
    uint64_t quarantined() const { return quarantined_; }
    /** Cycles actually simulated by this process (not restored). */
    uint64_t executedCycles() const { return executedCycles_; }

    /**
     * Test hook: when set, the run loop returns (status Cancelled)
     * right after the first successful save, so tests can exercise
     * "save at cycle C, load into a fresh Machine" deterministically.
     */
    bool stopAfterSave = false;

  private:
    std::string path_;
    uint64_t fingerprint_;
    uint64_t everyCycles_;
    uint64_t lastSaveCycle_ = 0;
    uint64_t saves_ = 0;
    uint64_t restores_ = 0;
    uint64_t quarantined_ = 0;
    uint64_t executedCycles_ = 0;
};

/** Canonical per-job checkpoint path: <dir>/job-<fingerprint>.ckpt. */
std::string checkpointFilePath(const std::string &dir,
                               uint64_t jobFingerprint);

/**
 * Remove the checkpoint at `path` and every `<path>.tmp.*` temp file
 * that a save killed between mkstemp() and rename() left behind.
 */
void removeCheckpointFiles(const std::string &path);

/** mkdir -p; false (with err) when a component cannot be created. */
bool ensureCheckpointDir(const std::string &dir, std::string &err);

/**
 * Rename a bad checkpoint to <path>.bad (overwriting any previous
 * quarantine) and warn. Never throws; best effort.
 */
void quarantineSnapshotFile(const std::string &path,
                            const std::string &why);

} // namespace isrf

#endif // ISRF_UTIL_SNAPSHOT_H
