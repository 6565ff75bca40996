#include "analysis/diagnostic.h"

#include <algorithm>
#include <istream>
#include <tuple>

#include "util/error.h"
#include "util/strings.h"

namespace sdpm::analysis {

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_printf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

auto sort_key(const Diagnostic& d) {
  return std::tuple(d.loc.disk, d.loc.nest, d.loc.iteration, d.rule,
                    d.loc.directive, d.message);
}

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

Severity severity_of_rule(std::string_view rule_id) {
  // "SDPM-X###": the letter after the dash selects the severity.
  const std::size_t dash = rule_id.find('-');
  const char letter =
      dash != std::string_view::npos && dash + 1 < rule_id.size()
          ? rule_id[dash + 1]
          : 'E';
  switch (letter) {
    case 'N':
      return Severity::kNote;
    case 'W':
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

std::string Diagnostic::fingerprint() const {
  return rule + "|d" + std::to_string(loc.disk) + "|n" +
         std::to_string(loc.nest) + "|i" + std::to_string(loc.iteration);
}

Diagnostic make_diagnostic(std::string rule, std::string pass,
                           DiagLocation loc, std::string message) {
  Diagnostic d;
  d.severity = severity_of_rule(rule);
  d.rule = std::move(rule);
  d.pass = std::move(pass);
  d.loc = loc;
  d.message = std::move(message);
  return d;
}

int AnalysisReport::count(Severity severity) const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

int AnalysisReport::fixit_count() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    n += static_cast<int>(d.fixits.size());
  }
  return n;
}

bool AnalysisReport::has(std::string_view rule) const {
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == rule) return true;
  }
  return false;
}

std::optional<Severity> AnalysisReport::worst() const {
  std::optional<Severity> w;
  for (const Diagnostic& d : diagnostics) {
    if (!w || static_cast<int>(d.severity) > static_cast<int>(*w)) {
      w = d.severity;
    }
  }
  return w;
}

void AnalysisReport::sort() {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return sort_key(a) < sort_key(b);
                   });
}

namespace {

std::string location_text(const DiagLocation& loc) {
  std::string out;
  if (loc.disk >= 0) out += " disk " + std::to_string(loc.disk);
  if (loc.nest >= 0) out += " nest " + std::to_string(loc.nest);
  if (loc.iteration >= 0) out += " iter " + std::to_string(loc.iteration);
  if (loc.directive >= 0) {
    out += " directive " + std::to_string(loc.directive);
  }
  return out.empty() ? std::string(" <program>") : out;
}

}  // namespace

std::string render_text(const AnalysisReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += d.rule;
    out += " ";
    out += to_string(d.severity);
    out += " [" + d.pass + "]";
    out += location_text(d.loc);
    out += ": " + d.message + "\n";
    for (const FixIt& f : d.fixits) {
      out += "  fix-it " + f.id + ": " + f.title + "\n";
    }
  }
  if (report.certificate.has_value()) {
    const ScheduleCertificate& c = *report.certificate;
    out += str_printf(
        "certificate: energy in [%.3f, %.3f] J, execution in "
        "[%.3f, %.3f] ms; no-demand-spin-up %s; "
        "no-wasted-preactivation %s\n",
        c.energy_lo_j, c.energy_hi_j, c.exec_lo_ms, c.exec_hi_ms,
        c.no_demand_spinup_proved ? "proved" : "unproven",
        c.no_wasted_preactivation_proved ? "proved" : "unproven");
  }
  out += str_printf(
      "analyze: %d error(s), %d warning(s), %d note(s); %lld directive(s) "
      "checked; %d suppressed\n",
      report.errors(), report.warnings(), report.notes(),
      static_cast<long long>(report.directives_checked), report.suppressed);
  return out;
}

namespace {

std::string point_json(const ir::IterationPoint& point) {
  return str_printf("\"nest\":%d,\"iteration\":%lld", point.nest_index,
                    static_cast<long long>(point.flat_iteration));
}

std::string edit_json(const core::ScheduleEdit& e) {
  std::string out = "{\"kind\":\"";
  out += core::to_string(e.kind);
  out += "\"";
  switch (e.kind) {
    case core::ScheduleEdit::Kind::kMoveDirective:
      out += str_printf(",\"directive\":%d,", e.directive_index);
      out += point_json(e.point);
      break;
    case core::ScheduleEdit::Kind::kRemoveDirective:
      out += str_printf(",\"directive\":%d", e.directive_index);
      break;
    case core::ScheduleEdit::Kind::kInsertDirective:
      out += ",";
      out += point_json(e.point);
      out += str_printf(",\"directive_kind\":\"%s\",\"disk\":%d,"
                        "\"rpm_level\":%d",
                        ir::to_string(e.directive.kind), e.directive.disk,
                        e.directive.rpm_level);
      break;
    case core::ScheduleEdit::Kind::kRetargetLevel:
      out += str_printf(",\"directive\":%d,\"level\":%d", e.directive_index,
                        e.level);
      break;
    case core::ScheduleEdit::Kind::kSetPlanLevel:
      out += str_printf(",\"plan\":%d,\"level\":%d", e.plan_index, e.level);
      break;
    case core::ScheduleEdit::Kind::kSetPlanActed:
      out += str_printf(",\"plan\":%d,\"acted\":%s", e.plan_index,
                        e.acted ? "true" : "false");
      break;
    case core::ScheduleEdit::Kind::kRestripeArray:
      out += str_printf(",\"array\":%d,\"starting_disk\":%d,"
                        "\"stripe_factor\":%d,\"stripe_size\":%lld",
                        static_cast<int>(e.array), e.striping.starting_disk,
                        e.striping.stripe_factor,
                        static_cast<long long>(e.striping.stripe_size));
      break;
  }
  out += "}";
  return out;
}

std::string certificate_json(const ScheduleCertificate& c) {
  std::string out = str_printf(
      "{\"energy_lo_j\":%.6f,\"energy_hi_j\":%.6f,\"exec_lo_ms\":%.6f,"
      "\"exec_hi_ms\":%.6f,\"compute_total_ms\":%.6f,\"disks\":%d,"
      "\"requests\":%lld,\"no_demand_spinup\":%s,"
      "\"no_wasted_preactivation\":%s,\"per_disk\":[",
      c.energy_lo_j, c.energy_hi_j, c.exec_lo_ms, c.exec_hi_ms,
      c.compute_total_ms, c.disks, static_cast<long long>(c.requests),
      c.no_demand_spinup_proved ? "true" : "false",
      c.no_wasted_preactivation_proved ? "true" : "false");
  for (std::size_t i = 0; i < c.per_disk.size(); ++i) {
    const DiskCertificate& d = c.per_disk[i];
    if (i > 0) out += ",";
    TimeMs idle_ms = 0;
    for (const TimeInterval& iv : d.guaranteed_idle_ms) {
      idle_ms += iv.hi_ms - iv.lo_ms;
    }
    out += str_printf(
        "{\"disk\":%d,\"energy_lo_j\":%.6f,\"energy_hi_j\":%.6f,"
        "\"may_access_intervals\":%zu,\"guaranteed_idle_intervals\":%zu,"
        "\"guaranteed_idle_ms\":%.6f,\"no_demand_spinup\":%s,"
        "\"no_wasted_preactivation\":%s}",
        d.disk, d.energy_lo_j, d.energy_hi_j, d.may_access_ms.size(),
        d.guaranteed_idle_ms.size(), idle_ms,
        d.no_demand_spinup_proved ? "true" : "false",
        d.no_wasted_preactivation_proved ? "true" : "false");
  }
  out += "]}";
  return out;
}

}  // namespace

std::string render_json(const AnalysisReport& report) {
  std::string out = "{\"version\":2,\"tool\":\"sdpm-analyze\",";
  out += str_printf(
      "\"summary\":{\"directives\":%lld,\"errors\":%d,\"warnings\":%d,"
      "\"notes\":%d,\"suppressed\":%d,\"fixits\":%d},",
      static_cast<long long>(report.directives_checked), report.errors(),
      report.warnings(), report.notes(), report.suppressed,
      report.fixit_count());
  // Passes render sorted so the byte stream is invariant under
  // registration order (the report keeps the run order).
  std::vector<std::string> passes = report.passes_run;
  std::sort(passes.begin(), passes.end());
  out += "\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) out += ",";
    out.append("\"").append(json_escape(passes[i])).append("\"");
  }
  out += "],";
  if (report.certificate.has_value()) {
    out += "\"certificate\":" + certificate_json(*report.certificate) + ",";
  }
  out += "\"diagnostics\":[";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i > 0) out += ",";
    out += "\n ";
    out += "{\"rule\":\"" + json_escape(d.rule) + "\",";
    out += std::string("\"severity\":\"") + to_string(d.severity) + "\",";
    out += "\"pass\":\"" + json_escape(d.pass) + "\",";
    out += str_printf(
        "\"disk\":%d,\"nest\":%d,\"iteration\":%lld,\"directive\":%d,",
        d.loc.disk, d.loc.nest, static_cast<long long>(d.loc.iteration),
        d.loc.directive);
    out += "\"message\":\"" + json_escape(d.message) + "\"";
    if (!d.fixits.empty()) {
      out += ",\"fixits\":[";
      for (std::size_t fi = 0; fi < d.fixits.size(); ++fi) {
        const FixIt& f = d.fixits[fi];
        if (fi > 0) out += ",";
        out += "{\"id\":\"" + json_escape(f.id) + "\",";
        out += "\"title\":\"" + json_escape(f.title) + "\",";
        out += "\"edits\":[";
        for (std::size_t ei = 0; ei < f.edits.size(); ++ei) {
          if (ei > 0) out += ",";
          out += edit_json(f.edits[ei]);
        }
        out += "]}";
      }
      out += "]";
    }
    out += "}";
  }
  out += report.diagnostics.empty() ? "]}" : "\n]}";
  out += "\n";
  return out;
}

Baseline Baseline::parse(std::istream& in) {
  Baseline baseline;
  std::string line;
  while (std::getline(in, line)) {
    // Trim trailing CR and surrounding whitespace.
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    std::size_t start = 0;
    while (start < line.size() &&
           (line[start] == ' ' || line[start] == '\t')) {
      ++start;
    }
    line = line.substr(start);
    if (line.empty() || line[0] == '#') continue;
    baseline.fingerprints_.push_back(line);
  }
  std::sort(baseline.fingerprints_.begin(), baseline.fingerprints_.end());
  baseline.fingerprints_.erase(
      std::unique(baseline.fingerprints_.begin(),
                  baseline.fingerprints_.end()),
      baseline.fingerprints_.end());
  return baseline;
}

bool Baseline::contains(const std::string& fingerprint) const {
  return std::binary_search(fingerprints_.begin(), fingerprints_.end(),
                            fingerprint);
}

void apply_baseline(AnalysisReport& report, const Baseline& baseline) {
  std::vector<Diagnostic> kept;
  kept.reserve(report.diagnostics.size());
  for (Diagnostic& d : report.diagnostics) {
    if (baseline.contains(d.fingerprint())) {
      ++report.suppressed;
    } else {
      kept.push_back(std::move(d));
    }
  }
  report.diagnostics = std::move(kept);
}

std::string to_baseline(const AnalysisReport& report) {
  std::string out = "# sdpm-analyze baseline: one fingerprint per line\n";
  std::vector<std::string> prints;
  prints.reserve(report.diagnostics.size());
  for (const Diagnostic& d : report.diagnostics) {
    prints.push_back(d.fingerprint());
  }
  std::sort(prints.begin(), prints.end());
  prints.erase(std::unique(prints.begin(), prints.end()), prints.end());
  for (const std::string& p : prints) out += p + "\n";
  return out;
}

}  // namespace sdpm::analysis
