/**
 * @file
 * Tolerant MatrixMarket (.mtx) reader + CSR conversion + synthetic
 * sparse-matrix generators for the sparse workload family.
 *
 * The reader accepts the coordinate format emitted by SuiteSparse and
 * friends: a `%%MatrixMarket` banner, `%` comment lines, a size line,
 * and 1-based `row col [value]` entries. `pattern` matrices get unit
 * values; `symmetric` / `skew-symmetric` matrices are expanded to their
 * full (general) form. Parsing collects EVERY violation with its line
 * number before failing — MachineConfig::validate()'s collect-all
 * style — so a user fixes a malformed file in one round trip instead
 * of one error at a time. Duplicate entries are legal input and are
 * summed during CSR conversion.
 */
#ifndef ISRF_UTIL_MTX_H
#define ISRF_UTIL_MTX_H

#include <cstdint>
#include <string>
#include <vector>

namespace isrf {

/** Parsed MatrixMarket matrix: 0-based COO after symmetry expansion. */
struct MtxMatrix
{
    enum class Symmetry { General, Symmetric, SkewSymmetric };

    uint32_t rows = 0;
    uint32_t cols = 0;
    /** Entry count declared by the size line (pre-expansion). */
    uint64_t declaredEntries = 0;
    bool pattern = false;
    Symmetry symmetry = Symmetry::General;
    /** COO triplets in file order, symmetric images appended. */
    std::vector<uint32_t> rowIdx;
    std::vector<uint32_t> colIdx;
    std::vector<float> vals;

    uint64_t nnz() const { return rowIdx.size(); }
};

/**
 * Parse MatrixMarket text. On any violation returns false with every
 * problem (line-numbered) appended to `errs`; `out` is left in an
 * unspecified state. `errs` may be null to discard diagnostics.
 */
bool mtxParse(const std::string &text, MtxMatrix &out,
              std::vector<std::string> *errs);

/** Read + parse a .mtx file; unreadable files are one more error. */
bool mtxReadFile(const std::string &path, MtxMatrix &out,
                 std::vector<std::string> *errs);

/** Compressed sparse row matrix (the SpMV workload's input form). */
struct CsrMatrix
{
    uint32_t rows = 0;
    uint32_t cols = 0;
    std::vector<uint64_t> rowPtr;  ///< rows + 1 entries
    std::vector<uint32_t> col;     ///< sorted within each row
    std::vector<float> val;

    uint64_t nnz() const { return col.size(); }
};

/** COO -> CSR: sorts by (row, col) and sums duplicate entries. */
CsrMatrix cooToCsr(const MtxMatrix &m);

// ----------------------------------------------------------------------
// Synthetic generators (CI needs no checked-in binaries)
// ----------------------------------------------------------------------

/** Banded matrix: each row touches [i-halfBand, i+halfBand]. */
CsrMatrix mtxGenBanded(uint32_t n, uint32_t halfBand, uint64_t seed);

/** Uniform-random matrix: ~avgDeg entries per row, columns uniform. */
CsrMatrix mtxGenUniform(uint32_t n, uint32_t avgDeg, uint64_t seed);

/**
 * Power-law matrix: row degrees follow a heavy-tailed distribution
 * (a few very long rows) and columns are skewed toward low indices.
 * `alpha` > 1 controls the tail weight (larger = milder skew).
 */
CsrMatrix mtxGenPowerLaw(uint32_t n, uint32_t avgDeg, double alpha,
                         uint64_t seed);

} // namespace isrf

#endif // ISRF_UTIL_MTX_H
