/**
 * @file
 * FNV-1a hashing shared by the sweep fingerprints (driver/) and the
 * snapshot checksums (util/snapshot.cc).
 */
#ifndef ISRF_UTIL_HASH_H
#define ISRF_UTIL_HASH_H

#include <cstdint>
#include <string>

namespace isrf {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** 64-bit FNV-1a over `s`, chainable via the `h` seed. */
inline uint64_t
fnv1a(const std::string &s, uint64_t h = kFnvBasis)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

/**
 * Hash a file's bytes: size + FNV-1a content hash. Used to fold
 * external dataset files into sweep fingerprints so a resumed journal
 * cannot splice results computed from a since-modified input. Returns
 * false (outputs untouched) if the file cannot be read.
 */
bool fnv1aFile(const std::string &path, uint64_t &bytes, uint64_t &hash);

} // namespace isrf

#endif // ISRF_UTIL_HASH_H
