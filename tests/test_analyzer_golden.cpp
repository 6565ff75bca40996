// The analyzer's reports against committed summaries.
//
// tests/golden/analyze_reports.json pins Session::analyze for the six
// Table 2 benchmarks x {none, LF+DL, TL+DL} x {CMTPM, CMDRPM} x mutation
// {none, late-preact, short-gap, overlap-fission (LF+DL only)} on the paper
// disk and the two presets, and Session::repair for every mutated case.
// Full reports are too large to commit (wupwise late-preact CMDRPM alone
// renders ~10 MB), so each entry keeps the 128-bit fingerprint of
// render_json, the summary counts and a count per rule; a mutation with no
// site keeps its error text instead.  A failure names the case and the
// first differing count.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/diagnostic.h"
#include "analysis/mutate.h"
#include "analysis/repair.h"
#include "api/job_spec.h"
#include "api/session.h"
#include "util/error.h"
#include "util/fingerprint.h"
#include "util/json.h"

namespace sdpm {
namespace {

const Json& golden() {
  static const Json doc = [] {
    std::ifstream in(SDPM_GOLDEN_DIR "/analyze_reports.json");
    std::stringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
  }();
  return doc;
}

std::string case_name(const Json& entry) {
  return entry.at("benchmark").as_string() + "/" +
         entry.at("transform").as_string() + " " +
         entry.at("mode").as_string() + " mutation " +
         entry.at("mutation").as_string() + " on " +
         entry.at("device").as_string();
}

/// An error message without its source location, which depends on where
/// the tree was built.
std::string error_text(const std::string& what) {
  const std::size_t at = what.find("requirement failed (");
  if (at == std::string::npos) return what;
  const std::size_t colon = what.find("): ", at);
  return colon == std::string::npos ? what : what.substr(colon + 3);
}

/// The summary a golden entry keeps of one report, as ordered fields:
/// the counts first, then one count per rule, the fingerprint last.
std::map<std::string, std::string> summary_of(
    const analysis::AnalysisReport& report) {
  std::map<std::string, std::string> fields;
  fields["directives"] = std::to_string(report.directives_checked);
  fields["errors"] = std::to_string(report.errors());
  fields["warnings"] = std::to_string(report.warnings());
  fields["notes"] = std::to_string(report.notes());
  fields["fixits"] = std::to_string(report.fixit_count());
  std::map<std::string, int> rules;
  for (const analysis::Diagnostic& d : report.diagnostics) ++rules[d.rule];
  for (const auto& [rule, count] : rules) {
    fields["rule " + rule] = std::to_string(count);
  }
  return fields;
}

std::map<std::string, std::string> summary_of(const Json& golden_report) {
  std::map<std::string, std::string> fields;
  for (const char* key :
       {"directives", "errors", "warnings", "notes", "fixits"}) {
    fields[key] = golden_report.at(key).dump();
  }
  for (const auto& [rule, count] : golden_report.at("rules").as_object()) {
    fields["rule " + rule] = count.dump();
  }
  return fields;
}

/// Compare one fresh report with its golden summary; fails at the first
/// differing count, then on the render_json fingerprint.
void expect_report(const std::string& what, const Json& want,
                   const analysis::AnalysisReport& report) {
  const std::map<std::string, std::string> expected = summary_of(want);
  const std::map<std::string, std::string> actual = summary_of(report);
  for (const auto& [field, value] : expected) {
    const auto it = actual.find(field);
    ASSERT_TRUE(it != actual.end() && it->second == value)
        << what << ": " << field << " golden " << value << ", now "
        << (it != actual.end() ? it->second : "0");
  }
  for (const auto& [field, value] : actual) {
    ASSERT_TRUE(expected.count(field) != 0)
        << what << ": " << field << " golden 0, now " << value;
  }
  EXPECT_EQ(want.at("fingerprint").as_string(),
            to_hex(fingerprint_bytes(analysis::render_json(report))))
      << what << ": render_json fingerprint";
}

/// Rerun every golden case on `device` and compare it with its entry.
void check_device(const std::string& device) {
  const api::Session session(api::SessionOptions{.jobs = 1});
  int checked = 0;
  for (const Json& entry : golden().as_array()) {
    if (entry.at("device").as_string() != device) continue;
    ++checked;
    const std::string name = case_name(entry);
    api::JobSpecBuilder builder(entry.at("benchmark").as_string());
    builder.transform(entry.at("transform").as_string());
    if (device != "ultrastar_36z15") builder.device(device);
    const api::JobSpec spec = builder.build();
    const core::PowerMode mode = entry.at("mode").as_string() == "CMTPM"
                                     ? core::PowerMode::kTpm
                                     : core::PowerMode::kDrpm;
    const std::optional<analysis::Mutation> mutation =
        analysis::mutation_from_name(entry.at("mutation").as_string());

    if (const Json* error = entry.find("error")) {
      try {
        session.analyze(spec, mode, mutation);
        ADD_FAILURE() << name << ": golden error " << error->dump()
                      << ", now none";
      } catch (const Error& e) {
        EXPECT_EQ(error->as_string(), error_text(e.what()))
            << name << ": error text";
      }
      continue;
    }
    ASSERT_NO_FATAL_FAILURE(expect_report(
        name + " (analyze)", entry.at("analyze"),
        session.analyze(spec, mode, mutation)));
    if (const Json* repair = entry.find("repair")) {
      const analysis::RepairOutcome outcome =
          session.repair(spec, mode, mutation);
      const std::string what = name + " (repair)";
      ASSERT_EQ(repair->at("rounds").as_int(), outcome.rounds)
          << what << ": rounds";
      ASSERT_EQ(repair->at("fixits_applied").as_int(),
                outcome.fixits_applied)
          << what << ": fixits_applied";
      ASSERT_EQ(repair->at("fixits_skipped").as_int(),
                outcome.fixits_skipped)
          << what << ": fixits_skipped";
      ASSERT_EQ(repair->at("converged").as_bool(), outcome.converged)
          << what << ": converged";
      ASSERT_NO_FATAL_FAILURE(
          expect_report(what, repair->at("report"), outcome.final_report));
    } else {
      EXPECT_FALSE(mutation.has_value()) << name << ": no golden repair";
    }
  }
  // 6 benchmarks x 2 modes x (3 + 4 + 3) transform/mutation pairs.
  EXPECT_EQ(checked, 120) << device;
}

TEST(AnalyzerGolden, PaperDisk) { check_device("ultrastar_36z15"); }

TEST(AnalyzerGolden, ScsiMultiIdle) { check_device("scsi_multi_idle"); }

TEST(AnalyzerGolden, NvmeTiered) { check_device("nvme_tiered"); }

}  // namespace
}  // namespace sdpm
