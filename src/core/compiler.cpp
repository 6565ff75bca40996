#include "core/compiler.h"

#include "core/fission.h"
#include "core/tiling.h"

namespace sdpm::core {

const char* to_string(Transformation t) {
  switch (t) {
    case Transformation::kNone:
      return "none";
    case Transformation::kLF:
      return "LF";
    case Transformation::kTL:
      return "TL";
    case Transformation::kLFDL:
      return "LF+DL";
    case Transformation::kTLDL:
      return "TL+DL";
  }
  return "?";
}

CompileOutput compile(const ir::Program& program, Transformation transform,
                      std::optional<PowerMode> mode,
                      const CompilerOptions& options) {
  CompileOutput out;

  switch (transform) {
    case Transformation::kNone:
      out.program = program;
      out.striping.assign(program.arrays.size(), options.base_striping);
      break;
    case Transformation::kLF:
    case Transformation::kLFDL: {
      FissionOptions fo;
      fo.layout_aware = transform == Transformation::kLFDL;
      fo.total_disks = options.total_disks;
      fo.base_striping = options.base_striping;
      FissionResult fr = apply_loop_fission(program, fo);
      out.program = std::move(fr.program);
      out.striping = std::move(fr.striping);
      out.notes = fr.any_fissioned
                      ? "fissioned into " +
                            std::to_string(fr.groups.size()) +
                            " array group(s)"
                      : "no fissionable nest";
      break;
    }
    case Transformation::kTL:
    case Transformation::kTLDL: {
      TilingOptions to;
      to.layout_aware = transform == Transformation::kTLDL;
      to.total_disks = options.total_disks;
      to.base_striping = options.base_striping;
      to.access = options.access;
      to.disk_params = options.disk_params;
      to.tile_bytes = options.tile_bytes;
      TilingResult tr = apply_loop_tiling(program, to);
      out.program = std::move(tr.program);
      out.striping = std::move(tr.striping);
      out.notes = tr.note;
      break;
    }
  }

  if (mode.has_value()) {
    SchedulerOptions so;
    so.mode = *mode;
    so.access = options.access;
    so.call_site_granularity = options.call_site_granularity;
    so.preactivate = options.preactivate;
    const layout::LayoutTable table(out.program, out.striping,
                                    options.total_disks);
    ScheduleResult sr =
        schedule_power_calls(out.program, table, options.disk_params, so);
    out.program = std::move(sr.program);
    out.plans = std::move(sr.plans);
    out.calls_inserted = sr.calls_inserted;
  }
  return out;
}

}  // namespace sdpm::core
