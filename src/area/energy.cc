#include "area/energy.h"

namespace isrf {

EnergyEstimate
EnergyModel::estimate(const EnergyCounts &counts) const
{
    EnergyEstimate e;
    e.seqSrfNj = static_cast<double>(counts.seqSrfWords) *
        params_.seqSrfPerWordPj * 1e-3;
    e.idxSrfNj = static_cast<double>(counts.idxSrfWords) *
        params_.idxSrfPerWordPj * 1e-3;
    e.cacheNj = static_cast<double>(counts.cacheWords) *
        params_.cachePerWordPj * 1e-3;
    e.dramNj = static_cast<double>(counts.dramWords) *
        params_.dramPerWordPj * 1e-3;
    return e;
}

} // namespace isrf
