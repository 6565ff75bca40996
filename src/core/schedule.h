// Compiler-directed power-call insertion (paper §3).
//
// The scheduler combines the Disk Access Pattern with the compiler's cycle
// estimates to plan, for every disk idle period:
//   - TPM mode: insert spin_down(disk) at the start of each idle period
//     whose *estimated* length exceeds the break-even threshold, and a
//     pre-activating spin_up(disk) early enough that the disk is back
//     before its next use;
//   - DRPM mode: insert set_RPM(level, disk) with the energy-optimal level
//     for the estimated idle length, and a pre-activating set_RPM(max)
//     before the next use.
// The pre-activation distance follows the paper's Eq. 1,
//   d = ceil(Tsu / (s + Tm)),
// evaluated per nest (s = per-iteration time of the loop the call lands
// in); when an idle period spans several nests the scheduler walks the
// estimated timeline across nest boundaries, which degenerates to Eq. 1
// within a single nest.  Call sites can be restricted to strip-mined tile
// boundaries with `call_site_granularity`.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/parameters.h"
#include "ir/program.h"
#include "layout/layout_table.h"
#include "trace/dap.h"
#include "trace/generator.h"
#include "trace/stall_aware.h"

namespace sdpm::core {

/// Which call family the compiler emits.
enum class PowerMode : std::uint8_t {
  kTpm,   ///< spin_down / spin_up (CMTPM)
  kDrpm,  ///< set_RPM (CMDRPM)
};

const char* to_string(PowerMode mode);

/// Conservatism against estimation error: idle periods are discounted by
/// this fraction when picking a power mode, and pre-activation leads are
/// inflated by it, so a moderately mispredicted gap still hides the
/// wake-up latency instead of stalling the application.  The analyzer's
/// W031 replays the scheduler's decision with the same margin.
inline constexpr double kSafetyMargin = 0.25;

struct SchedulerOptions {
  PowerMode mode = PowerMode::kDrpm;
  /// Access-model options (block size, buffer cache); timing noise is
  /// irrelevant here — the compiler always plans on the nominal estimate.
  trace::GeneratorOptions access;
  /// Insert calls only at iterations divisible by this granularity (models
  /// strip-mined call sites; 1 = finest).
  std::int64_t call_site_granularity = 1;
  /// Emit pre-activation calls (paper's default).  Disabling reproduces
  /// the "no pre-activation" ablation: the disk wakes on demand instead.
  bool preactivate = true;
  /// The compiler's *measured* per-iteration timing (paper: gethrtime on a
  /// profiling run, so it includes amortized I/O time).  Non-owning; when
  /// null the scheduler falls back to the nominal compute timeline, a
  /// StallAwareTimeline with no requests.
  const trace::StallAwareTimeline* estimate = nullptr;
};

/// The plan for one idle period of one disk.
struct GapPlan {
  int disk = 0;
  std::int64_t begin_iter = 0;  ///< first idle global iteration
  std::int64_t end_iter = 0;    ///< next active global iteration (or total)
  TimeMs estimated_ms = 0;      ///< estimated idle length
  /// Chosen treatment: RPM level for DRPM mode; -1 = spin down (TPM); the
  /// top level / "no action" when the gap is too short to exploit.
  int level = 0;
  bool acted = false;           ///< true when calls were inserted
  PowerMode mode = PowerMode::kDrpm;  ///< the mode the plan was made in
};

struct ScheduleResult {
  ir::Program program;          ///< copy of the input with directives added
  std::vector<GapPlan> plans;   ///< every idle period, in disk-major order
  std::int64_t calls_inserted = 0;
};

/// Paper Eq. 1: the pre-activation distance in iterations, for a loop whose
/// body takes `s_ms` per iteration, a wake-up latency of `t_su_ms`, and a
/// call overhead of `t_m_ms`.
std::int64_t preactivation_distance(TimeMs t_su_ms, TimeMs s_ms,
                                    TimeMs t_m_ms);

/// Run the scheduler: analyze the DAP of `program` under `layout`, insert
/// power-management directives, and return the annotated program plus the
/// per-gap plans (consumed by the Table 3 misprediction analysis).
ScheduleResult schedule_power_calls(const ir::Program& program,
                                    const layout::LayoutTable& layout,
                                    const disk::DiskParameters& params,
                                    const SchedulerOptions& options = {});

}  // namespace sdpm::core
