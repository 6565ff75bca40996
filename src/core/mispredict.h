// Misprediction analysis (paper Table 3).
//
// For every disk idle period the scheduler planned, compare the RPM level
// the compiler chose from its *estimated* gap length with the level an
// oracle picks from the *actual* gap length on the noisy execution
// timeline.  The paper reports the percentage of idle periods where the two
// disagree ("percentage of mispredicted disk speeds").
#pragma once

#include <vector>

#include "core/schedule.h"
#include "trace/stall_aware.h"

namespace sdpm::core {

struct MispredictStats {
  std::int64_t gaps = 0;
  std::int64_t mispredicted = 0;

  double percent() const {
    return gaps == 0 ? 0.0
                     : 100.0 * static_cast<double>(mispredicted) /
                           static_cast<double>(gaps);
  }
};

/// Compare the scheduler's per-gap choices against the oracle evaluated on
/// the actual timeline.  `mode` selects the decision being compared: the
/// RPM level (DRPM) or the spin-down decision (TPM).
MispredictStats compare_with_oracle(const std::vector<GapPlan>& plans,
                                    const trace::StallAwareTimeline& actual,
                                    const disk::DiskParameters& params,
                                    PowerMode mode);

}  // namespace sdpm::core
