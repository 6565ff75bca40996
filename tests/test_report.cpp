// SimReport: array-wide fault-counter totals aggregate the per-disk
// DiskReport entries, without response capture.
#include <gtest/gtest.h>

#include "policy/tpm.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace sdpm::sim {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

DiskReport faulty_disk(std::int64_t retries, std::int64_t media,
                       std::int64_t remaps, std::int64_t drops) {
  DiskReport d;
  d.spin_up_retries = retries;
  d.media_errors = media;
  d.remapped_sectors = remaps;
  d.dropped_directives = drops;
  return d;
}

TEST(SimReport, TotalsSumPerDiskCounters) {
  SimReport report;
  report.disks.push_back(faulty_disk(1, 2, 3, 4));
  report.disks.push_back(faulty_disk(10, 20, 30, 40));
  report.disks.push_back(faulty_disk(0, 0, 0, 0));
  EXPECT_EQ(report.disk_count(), 3);
  EXPECT_EQ(report.spin_up_retries(), 11);
  EXPECT_EQ(report.media_errors(), 22);
  EXPECT_EQ(report.remapped_sectors(), 33);
  EXPECT_EQ(report.dropped_directives(), 44);
}

TEST(SimReport, TotalsAreZeroWithNoDisks) {
  const SimReport report;
  EXPECT_EQ(report.disk_count(), 0);
  EXPECT_EQ(report.spin_up_retries(), 0);
  EXPECT_EQ(report.media_errors(), 0);
  EXPECT_EQ(report.remapped_sectors(), 0);
  EXPECT_EQ(report.dropped_directives(), 0);
}

trace::Trace gap_trace(int disks, int rounds, TimeMs gap_ms) {
  trace::Trace t;
  t.total_disks = disks;
  TimeMs at = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int d = 0; d < disks; ++d) {
      trace::Request req;
      req.arrival_ms = at;
      req.disk = d;
      req.start_sector = 128 * r;
      req.size_bytes = kib(64);
      t.requests.push_back(req);
      t.bytes_transferred += req.size_bytes;
    }
    at += gap_ms;
  }
  t.compute_total_ms = at;
  return t;
}

SimOptions faulty_options() {
  SimOptions o;
  o.faults.spin_up_failure_prob = 0.4;
  o.faults.media_error_prob = 0.2;
  o.faults.dropped_directive_prob = 0.3;
  o.faults.seed = 7;
  o.capture_responses = false;
  return o;
}

TEST(SimReport, FaultTotalsAggregateFromSimulation) {
  // Long gaps force TPM spin-downs, so demand spin-ups (hence spin-up
  // failures), media checks, and directive drops all occur.
  const trace::Trace t = gap_trace(4, 8, 30'000.0);
  policy::TpmPolicy policy;
  const SimReport report = simulate(t, params(), policy, faulty_options());

  ASSERT_EQ(report.disk_count(), 4);
  EXPECT_TRUE(report.responses.empty());  // capture_responses = false
  EXPECT_EQ(report.response_ms.count(), report.requests);

  std::int64_t retries = 0;
  std::int64_t media = 0;
  std::int64_t remaps = 0;
  std::int64_t drops = 0;
  for (const DiskReport& d : report.disks) {
    retries += d.spin_up_retries;
    media += d.media_errors;
    remaps += d.remapped_sectors;
    drops += d.dropped_directives;
    EXPECT_GE(d.media_errors, d.remapped_sectors);  // remap at most once/error
  }
  EXPECT_EQ(report.spin_up_retries(), retries);
  EXPECT_EQ(report.media_errors(), media);
  EXPECT_EQ(report.remapped_sectors(), remaps);
  EXPECT_EQ(report.dropped_directives(), drops);
  // With these probabilities and 8 standby rounds the totals cannot all
  // be zero — if they are, the aggregation (or the injection) is broken.
  EXPECT_GT(retries + media + drops, 0);
}

}  // namespace
}  // namespace sdpm::sim
