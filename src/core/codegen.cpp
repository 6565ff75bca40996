#include "core/codegen.h"

#include <sstream>

#include "util/strings.h"

namespace sdpm::core {

namespace {

std::string indent(int depth) { return std::string(2 * (depth + 1), ' '); }

std::string directive_call(const ir::PowerDirective& d,
                           const disk::DiskParameters& disk) {
  switch (d.kind) {
    case ir::PowerDirective::Kind::kSpinDown:
      return str_printf("spin_down(disk%d);", d.disk);
    case ir::PowerDirective::Kind::kSpinUp:
      return str_printf("spin_up(disk%d);", d.disk);
    case ir::PowerDirective::Kind::kSetRpm:
      return str_printf("set_RPM(RPM_%d, disk%d);",
                        disk.rpm_of_level(d.rpm_level), d.disk);
  }
  return "?";
}

/// Guard expression selecting one iteration of the nest.
std::string guard_for(const ir::LoopNest& nest, std::int64_t flat) {
  const std::vector<std::int64_t> iters = nest.iteration_at(flat);
  std::vector<std::string> terms;
  for (std::size_t k = 0; k < nest.loops.size(); ++k) {
    terms.push_back(nest.loops[k].var + " == " +
                    std::to_string(iters[k]));
  }
  return join(terms, " && ");
}

}  // namespace

std::string emit_pseudo_source(const ir::Program& program,
                               const CodegenOptions& options) {
  std::ostringstream os;
  os << "/* " << program.name << " — emitted by sdpm codegen */\n";

  if (options.emit_arrays) {
    for (const ir::Array& a : program.arrays) {
      os << "double " << a.name;
      for (const std::int64_t extent : a.extents) {
        os << "[" << extent << "]";
      }
      os << ";  /* " << fmt_bytes(a.size_bytes()) << ", "
         << ir::to_string(a.layout) << " */\n";
    }
    os << "\n";
  }

  for (int n = 0; n < static_cast<int>(program.nests.size()); ++n) {
    const ir::LoopNest& nest = program.nests[static_cast<std::size_t>(n)];
    const auto names = nest.loop_names();

    os << "/* nest " << n << ": " << nest.name;
    if (options.emit_costs) {
      os << " — " << fmt_double(nest.cycles_per_iteration(), 1)
         << " cycles/iteration, "
         << nest.iteration_count() << " iterations";
    }
    os << " */\n";

    // Directives before the nest body (flat iteration 0), inside, after.
    std::vector<const ir::PlacedDirective*> inside;
    for (const ir::PlacedDirective& pd : program.directives) {
      if (pd.point.nest_index != n) continue;
      if (pd.point.flat_iteration == 0) {
        os << directive_call(pd.directive, options.disk) << "\n";
      } else if (pd.point.flat_iteration >= nest.iteration_count()) {
        // rendered after the closing braces below
      } else {
        inside.push_back(&pd);
      }
    }

    for (int k = 0; k < nest.depth(); ++k) {
      const ir::Loop& loop = nest.loops[static_cast<std::size_t>(k)];
      os << indent(k - 1) << "for (" << loop.var << " = " << loop.lower
         << "; " << loop.var << " < " << loop.upper << "; " << loop.var
         << " += " << loop.step << ") {\n";
    }

    for (const ir::PlacedDirective* pd : inside) {
      os << indent(nest.depth() - 1) << "if ("
         << guard_for(nest, pd->point.flat_iteration) << ") "
         << directive_call(pd->directive, options.disk)
         << "  /* strip-mined call site */\n";
    }

    for (const ir::Statement& stmt : nest.body) {
      // Writes form the left-hand side; reads the right.
      std::vector<std::string> lhs;
      std::vector<std::string> rhs;
      for (const ir::ArrayRef& ref : stmt.refs) {
        std::string text = program.array(ref.array).name;
        for (const ir::AffineExpr& sub : ref.subscripts) {
          text.append("[").append(sub.to_string(names)).append("]");
        }
        (ref.kind == ir::AccessKind::kWrite ? lhs : rhs).push_back(text);
      }
      os << indent(nest.depth() - 1);
      if (lhs.empty()) {
        os << "use(" << join(rhs, ", ") << ");";
      } else if (rhs.empty()) {
        os << join(lhs, " = ") << " = ...;";
      } else {
        os << join(lhs, " = ") << " = f(" << join(rhs, ", ") << ");";
      }
      if (!stmt.label.empty()) os << "  /* " << stmt.label << " */";
      os << "\n";
    }

    for (int k = nest.depth() - 1; k >= 0; --k) {
      os << indent(k - 1) << "}\n";
    }

    for (const ir::PlacedDirective& pd : program.directives) {
      if (pd.point.nest_index == n &&
          pd.point.flat_iteration >= nest.iteration_count()) {
        os << directive_call(pd.directive, options.disk) << "\n";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sdpm::core
