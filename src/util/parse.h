/**
 * @file
 * Strict number parsing for command-line values.
 *
 * atol() and bare strtoull() silently accept garbage, wrap negative
 * numbers and overflow. These helpers parse strictly (character
 * whitelist + errno + end-pointer checks) and report failure instead,
 * so a caller can reject the value with a usage message.
 */
#ifndef ISRF_UTIL_PARSE_H
#define ISRF_UTIL_PARSE_H

#include <cstdint>
#include <string>

namespace isrf {

/**
 * Strictly parse a base-10 unsigned integer: no sign, no trailing
 * junk, no overflow. @return false (out untouched) on any violation.
 */
bool parseU64(const std::string &text, uint64_t &out);

/**
 * Strictly parse a base-10 signed integer: optional leading '-', no
 * trailing junk, no overflow. @return false (out untouched) on any
 * violation.
 */
bool parseI64(const std::string &text, int64_t &out);

/**
 * Strictly parse a finite decimal floating-point number: no trailing
 * junk, no inf/nan, no hex floats. @return false (out untouched) on
 * any violation.
 */
bool parseF64(const std::string &text, double &out);

} // namespace isrf

#endif // ISRF_UTIL_PARSE_H
