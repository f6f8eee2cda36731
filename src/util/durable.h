/**
 * @file
 * Directory fsync for the durable-file writers (util/jsonl.cc,
 * util/snapshot.cc).
 *
 * fsync() on a file makes its bytes durable, not its name: after a
 * power loss a newly created or renamed file can vanish unless the
 * directory holding its entry is fsync'd as well.
 */
#ifndef ISRF_UTIL_DURABLE_H
#define ISRF_UTIL_DURABLE_H

#include <string>

namespace isrf {

/**
 * fsync the directory that contains `path` ("." for a bare file name).
 * @return false, with errno set, on failure.
 */
bool fsyncParentDir(const std::string &path);

} // namespace isrf

#endif // ISRF_UTIL_DURABLE_H
