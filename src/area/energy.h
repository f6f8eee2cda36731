/**
 * @file
 * Access-energy model (§4.4): indexed single-word SRF accesses cost
 * ~4x the per-word energy of sequential accesses due to the extra
 * column multiplexing, landing at ~0.1 nJ per access in 0.13 µm —
 * still an order of magnitude below the ~5 nJ of an off-chip DRAM
 * access.
 */
#ifndef ISRF_AREA_ENERGY_H
#define ISRF_AREA_ENERGY_H

#include <cstdint>

namespace isrf {

/** Per-access energies in picojoules (0.13 µm calibration). */
struct EnergyParams
{
    double seqSrfPerWordPj = 25.0;    ///< sequential SRF, per word
    double idxSrfPerWordPj = 100.0;   ///< indexed SRF word (~4x seq)
    double cachePerWordPj = 55.0;     ///< on-chip cache access
    double dramPerWordPj = 5000.0;    ///< off-chip DRAM access (~5 nJ)
};

/** Aggregated access counts for an energy estimate. */
struct EnergyCounts
{
    uint64_t seqSrfWords = 0;
    uint64_t idxSrfWords = 0;
    uint64_t cacheWords = 0;
    uint64_t dramWords = 0;
};

/** Energy estimate with component breakdown. */
struct EnergyEstimate
{
    double seqSrfNj = 0;
    double idxSrfNj = 0;
    double cacheNj = 0;
    double dramNj = 0;

    double totalNj() const { return seqSrfNj + idxSrfNj + cacheNj + dramNj; }
};

/** Computes energy estimates from access counts. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params = {})
        : params_(params)
    {
    }

    EnergyEstimate estimate(const EnergyCounts &counts) const;

    /** Ratio of indexed to sequential per-word energy (§4.4: ~4x). */
    double indexedToSeqRatio() const
    {
        return params_.idxSrfPerWordPj / params_.seqSrfPerWordPj;
    }

    /** Ratio of DRAM to indexed-SRF per-word energy (~50x). */
    double dramToIndexedRatio() const
    {
        return params_.dramPerWordPj / params_.idxSrfPerWordPj;
    }

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
};

} // namespace isrf

#endif // ISRF_AREA_ENERGY_H
