/**
 * @file
 * External dataset ingestion: turn a user-supplied MatrixMarket file
 * into a registered SpMV workload (`--dataset` on the bench drivers).
 *
 * The file is parsed eagerly at registration (so a bad file fails fast
 * with the reader's collect-all diagnostics) and re-read at run time
 * (so each run reflects the file's current content). The sweep
 * fingerprint folds the file's size + content hash in via
 * findExternalDataset(), making a resumed journal against a modified
 * file stale instead of silently spliced.
 */
#ifndef ISRF_WORKLOADS_EXTERNAL_H
#define ISRF_WORKLOADS_EXTERNAL_H

#include <string>
#include <vector>

namespace isrf {

/** A registered external dataset-backed workload. */
struct ExternalDataset
{
    std::string name;  ///< workload name, "SpMV:<file stem>"
    std::string path;  ///< path as given at registration
    uint32_t rows = 0;
    uint32_t cols = 0;
    uint64_t nnz = 0;
};

/**
 * Parse `path` and register a "SpMV:<stem>" workload running SpMV over
 * it. On parse failure returns false with the reader's diagnostics in
 * `errs` (nullable) and registers nothing. Re-registering the same
 * stem replaces the previous dataset. Not thread-safe: register during
 * startup, before any sweep workers exist.
 */
bool registerExternalDataset(const std::string &path,
                             std::string *nameOut,
                             std::vector<std::string> *errs);

/**
 * The dataset behind a registered external workload name, or nullptr
 * for built-in workloads. Used by the sweep fingerprint to mix in the
 * file's content hash.
 */
const ExternalDataset *findExternalDataset(const std::string &workload);

} // namespace isrf

#endif // ISRF_WORKLOADS_EXTERNAL_H
