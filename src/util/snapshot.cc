#include "util/snapshot.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/durable.h"
#include "util/hash.h"
#include "util/log.h"

namespace isrf {

namespace {

constexpr char kMagic[8] = {'I', 'S', 'R', 'F', 'S', 'N', 'A', 'P'};

uint64_t
fnvBytes(const char *p, size_t n, uint64_t h = kFnvBasis)
{
    for (size_t i = 0; i < n; i++) {
        h ^= static_cast<uint8_t>(p[i]);
        h *= kFnvPrime;
    }
    return h;
}

void
putU32(std::string &out, uint32_t v)
{
    char tmp[4];
    std::memcpy(tmp, &v, 4);
    out.append(tmp, 4);
}

void
putU64(std::string &out, uint64_t v)
{
    char tmp[8];
    std::memcpy(tmp, &v, 8);
    out.append(tmp, 8);
}

bool
getU32(const std::string &in, size_t &pos, uint32_t &v)
{
    if (in.size() - pos < 4)
        return false;
    std::memcpy(&v, in.data() + pos, 4);
    pos += 4;
    return true;
}

bool
getU64(const std::string &in, size_t &pos, uint64_t &v)
{
    if (in.size() - pos < 8)
        return false;
    std::memcpy(&v, in.data() + pos, 8);
    pos += 8;
    return true;
}

/** Sanity cap: the registry has ~9 sections; 64 leaves headroom. */
constexpr uint32_t kMaxSections = 64;

} // namespace

void
Snapshot::addSection(uint32_t tag, const SnapshotWriter &w)
{
    sections.push_back(Section{tag, w.data()});
}

const std::string *
Snapshot::findSection(uint32_t tag) const
{
    for (const Section &s : sections)
        if (s.tag == tag)
            return &s.payload;
    return nullptr;
}

std::string
Snapshot::serialize() const
{
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putU32(out, version);
    putU64(out, fingerprint);
    putU64(out, cycle);
    putU64(out, geometry);
    putU32(out, static_cast<uint32_t>(sections.size()));
    putU64(out, fnvBytes(out.data(), out.size()));
    for (const Section &s : sections) {
        const size_t start = out.size();
        putU32(out, s.tag);
        putU64(out, s.payload.size());
        out.append(s.payload);
        putU64(out,
               fnvBytes(out.data() + start, out.size() - start));
    }
    return out;
}

bool
Snapshot::parse(const std::string &bytes, std::string &err)
{
    sections.clear();
    size_t pos = 0;
    if (bytes.size() < sizeof(kMagic) ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        err = "bad magic (not a snapshot file)";
        return false;
    }
    pos = sizeof(kMagic);
    uint32_t nsections = 0;
    uint64_t headerHash = 0;
    if (!getU32(bytes, pos, version) ||
        !getU64(bytes, pos, fingerprint) ||
        !getU64(bytes, pos, cycle) ||
        !getU64(bytes, pos, geometry) ||
        !getU32(bytes, pos, nsections)) {
        err = "truncated header";
        return false;
    }
    const uint64_t wantHeader = fnvBytes(bytes.data(), pos);
    if (!getU64(bytes, pos, headerHash)) {
        err = "truncated header";
        return false;
    }
    if (headerHash != wantHeader) {
        err = "header checksum mismatch";
        return false;
    }
    if (version != kSnapshotFormatVersion) {
        err = strprintf("unsupported snapshot format version %u "
                        "(this build reads version %u)",
                        version, kSnapshotFormatVersion);
        return false;
    }
    if (nsections > kMaxSections) {
        err = strprintf("implausible section count %u", nsections);
        return false;
    }
    sections.reserve(nsections);
    for (uint32_t i = 0; i < nsections; i++) {
        const size_t start = pos;
        Section s;
        uint64_t len = 0;
        if (!getU32(bytes, pos, s.tag) || !getU64(bytes, pos, len)) {
            err = strprintf("truncated section header (section %u)",
                            i);
            return false;
        }
        if (len > bytes.size() - pos) {
            err = strprintf("section %u length %llu exceeds file",
                            i, static_cast<unsigned long long>(len));
            return false;
        }
        s.payload.assign(bytes, pos, static_cast<size_t>(len));
        pos += static_cast<size_t>(len);
        const uint64_t want =
            fnvBytes(bytes.data() + start, pos - start);
        uint64_t got = 0;
        if (!getU64(bytes, pos, got)) {
            err = strprintf("truncated section checksum (section %u)",
                            i);
            return false;
        }
        if (got != want) {
            err = strprintf("section %u ('%c%c%c%c') checksum "
                            "mismatch", i,
                            static_cast<char>(s.tag & 0xff),
                            static_cast<char>(s.tag >> 8 & 0xff),
                            static_cast<char>(s.tag >> 16 & 0xff),
                            static_cast<char>(s.tag >> 24 & 0xff));
            return false;
        }
        sections.push_back(std::move(s));
    }
    if (pos != bytes.size()) {
        err = strprintf("%zu trailing byte(s) after last section",
                        bytes.size() - pos);
        return false;
    }
    return true;
}

bool
Snapshot::writeAtomic(const std::string &path, std::string &err) const
{
    const std::string bytes = serialize();
    // A unique temp name per call: two processes checkpointing the same
    // job into one directory never truncate or rename each other's file.
    std::string tmp = path + ".tmp.XXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0) {
        err = strprintf("cannot create %s: %s", tmp.c_str(),
                        std::strerror(errno));
        return false;
    }
    std::FILE *f = ::fdopen(fd, "wb");
    if (!f) {
        err = strprintf("cannot open %s: %s", tmp.c_str(),
                        std::strerror(errno));
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) ==
            bytes.size() &&
        std::fflush(f) == 0 && ::fsync(fd) == 0;
    const int writeErrno = errno;
    std::fclose(f);
    if (!ok)
        errno = writeErrno;
    // rename() is atomic on POSIX: a crash leaves either the previous
    // checkpoint or this one, never a half-written file under `path`.
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        err = strprintf("cannot write %s: %s", path.c_str(),
                        std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    // The rename is only durable across power loss once the directory
    // entry is on disk.
    if (!fsyncParentDir(path)) {
        err = strprintf("cannot sync the directory of %s: %s",
                        path.c_str(), std::strerror(errno));
        return false;
    }
    return true;
}

SnapshotLoad
loadSnapshotFile(const std::string &path, uint64_t expectFingerprint,
                 Snapshot &out, std::string &err)
{
    err.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return SnapshotLoad::Missing;
    std::string bytes;
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        bytes.append(chunk, n);
    const bool readOk = !std::ferror(f);
    std::fclose(f);
    if (!readOk) {
        err = strprintf("read error on %s", path.c_str());
        return SnapshotLoad::Corrupt;
    }
    if (!out.parse(bytes, err))
        return SnapshotLoad::Corrupt;
    if (out.fingerprint != expectFingerprint) {
        err = strprintf("checkpoint fingerprint %016llx does not "
                        "match job %016llx",
                        static_cast<unsigned long long>(
                            out.fingerprint),
                        static_cast<unsigned long long>(
                            expectFingerprint));
        return SnapshotLoad::Stale;
    }
    return SnapshotLoad::Ok;
}

std::string
checkpointFilePath(const std::string &dir, uint64_t jobFingerprint)
{
    return strprintf("%s/job-%016llx.ckpt", dir.c_str(),
                     static_cast<unsigned long long>(jobFingerprint));
}

void
removeCheckpointFiles(const std::string &path)
{
    std::remove(path.c_str());
    const size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    // npos + 1 == 0: a bare file name is its own base name.
    const std::string tmpPrefix = path.substr(slash + 1) + ".tmp.";
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    while (const struct dirent *e = ::readdir(d))
        if (std::strncmp(e->d_name, tmpPrefix.c_str(),
                         tmpPrefix.size()) == 0)
            std::remove((dir + "/" + e->d_name).c_str());
    ::closedir(d);
}

bool
ensureCheckpointDir(const std::string &dir, std::string &err)
{
    std::string partial;
    for (size_t i = 0; i <= dir.size(); i++) {
        if (i < dir.size() && dir[i] != '/') {
            partial += dir[i];
            continue;
        }
        if (i < dir.size())
            partial += '/';
        if (partial.empty() || partial == "/")
            continue;
        if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
            err = strprintf("cannot create checkpoint directory %s: %s",
                            partial.c_str(), std::strerror(errno));
            return false;
        }
    }
    return true;
}

void
quarantineSnapshotFile(const std::string &path, const std::string &why)
{
    const std::string bad = path + ".bad";
    std::remove(bad.c_str());
    if (std::rename(path.c_str(), bad.c_str()) == 0)
        ISRF_WARN("checkpoint %s quarantined to %s (%s); restarting "
                  "from zero", path.c_str(), bad.c_str(),
                  why.c_str());
    else
        ISRF_WARN("checkpoint %s unusable (%s) and could not be "
                  "quarantined; restarting from zero", path.c_str(),
                  why.c_str());
}

} // namespace isrf
