// Fault injection: deterministic draws, retry timing/energy, media-error
// remapping, dropped directives, and the none() bit-identity guarantee.
#include <gtest/gtest.h>

#include <vector>

#include "policy/base.h"
#include "policy/tpm.h"
#include "sim/disk_unit.h"
#include "sim/faults.h"
#include "sim/invariants.h"
#include "sim/simulator.h"
#include "util/error.h"

namespace sdpm::sim {
namespace {

const disk::DiskParameters& params() {
  static const disk::DiskParameters p = disk::DiskParameters::ultrastar_36z15();
  return p;
}

trace::Trace gap_trace(int disks, int rounds, TimeMs gap_ms) {
  // One request per disk per round, rounds separated by a long gap so TPM
  // policies spin down and demand spin-ups (hence spin-up faults) occur.
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

TEST(FaultConfig, ValidateRejectsBadRanges) {
  FaultConfig fc;
  fc.spin_up_failure_prob = 1.5;
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.service_jitter = 1.0;  // must be < 1
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.max_spin_up_retries = -1;
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.media_error_prob = -0.1;
  EXPECT_THROW(fc.validate(), Error);
  FaultConfig::none().validate();  // default is always valid
}

TEST(FaultModel, SameSeedSameDraws) {
  FaultConfig fc;
  fc.spin_up_failure_prob = 0.3;
  fc.media_error_prob = 0.2;
  fc.service_jitter = 0.1;
  FaultModel a(fc);
  FaultModel b(fc);
  for (int i = 0; i < 200; ++i) {
    const int disk = i % 3;
    EXPECT_EQ(a.spin_up_fails(disk), b.spin_up_fails(disk));
    const FaultModel::MediaOutcome ma = a.media_check(disk, i);
    const FaultModel::MediaOutcome mb = b.media_check(disk, i);
    EXPECT_EQ(ma.error, mb.error);
    EXPECT_EQ(ma.new_remap, mb.new_remap);
    EXPECT_DOUBLE_EQ(a.service_jitter_factor(disk),
                     b.service_jitter_factor(disk));
  }
}

TEST(FaultModel, DisabledClassesConsumeNoRandomness) {
  // Interleaving draws of *disabled* classes must not perturb the enabled
  // spin-up stream: a config with only spin-up faults produces the same
  // fail/succeed sequence whether or not the other draws happen.
  FaultConfig fc;
  fc.spin_up_failure_prob = 0.5;
  FaultModel pure(fc);
  FaultModel interleaved(fc);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interleaved.media_check(0, i).error, false);
    EXPECT_DOUBLE_EQ(interleaved.service_jitter_factor(0), 1.0);
    EXPECT_EQ(interleaved.drops_directive(0), false);
    EXPECT_EQ(pure.spin_up_fails(0), interleaved.spin_up_fails(0));
  }
}

TEST(FaultModel, PerDiskStreamsAreIndependent) {
  FaultConfig fc;
  fc.spin_up_failure_prob = 0.5;
  FaultModel a(fc);
  FaultModel b(fc);
  // Drawing heavily from disk 0 on one model must not change disk 1.
  for (int i = 0; i < 500; ++i) a.spin_up_fails(0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.spin_up_fails(1), b.spin_up_fails(1));
  }
}

TEST(FaultModel, BackoffIsCappedExponential) {
  FaultConfig fc;
  fc.spin_up_failure_prob = 0.5;
  fc.retry_backoff_base_ms = 100.0;
  fc.retry_backoff_factor = 2.0;
  fc.retry_backoff_cap_ms = 5'000.0;
  FaultModel model(fc);
  EXPECT_DOUBLE_EQ(model.backoff_ms(0), 100.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(1), 200.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(2), 400.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(10), 5'000.0);  // capped
}

TEST(DiskUnitFaults, RetriesPayTimeEnergyAndBackoff) {
  FaultConfig fc;
  fc.spin_up_failure_prob = 1.0;  // every attempt fails...
  fc.max_spin_up_retries = 2;     // ...until the forced final attempt
  fc.spin_up_attempt_ms = 500.0;
  fc.retry_backoff_base_ms = 100.0;
  fc.retry_backoff_factor = 2.0;
  FaultModel model(fc);
  DiskUnit unit(params(), 0, &model);
  unit.spin_down(0.0);
  // Demand serve long after the spin-down transition has settled.
  const DiskUnit::ServeResult r = unit.serve(60'000.0, 0, kib(64));
  EXPECT_TRUE(r.demand_spin_up);
  EXPECT_EQ(unit.spin_up_retries(), 2);
  // Two failed attempts (500 ms + backoff 100, 200 ms) then a full spin-up.
  const TimeMs wake = 60'000.0 + (500.0 + 100.0) + (500.0 + 200.0) +
                      params().wake_time(0);
  EXPECT_NEAR(r.start, wake, 1e-9);
  // Each failed attempt is billed pro-rata at spin-up power.
  const Joules attempt_j =
      params().wake_energy(0) * 500.0 / params().wake_time(0);
  unit.finish(r.completion);
  EXPECT_NEAR(unit.breakdown().spin_up_j,
              params().wake_energy(0) + 2 * attempt_j, 1e-9);
}

TEST(DiskUnitFaults, DroppedDirectiveLeavesDiskSpinning) {
  FaultConfig fc;
  fc.dropped_directive_prob = 1.0;
  FaultModel model(fc);
  DiskUnit unit(params(), 0, &model);
  unit.spin_down(1'000.0);
  EXPECT_FALSE(unit.heading_to_standby());
  EXPECT_EQ(unit.dropped_directives(), 1);
  EXPECT_EQ(unit.commanded_spin_downs(), 0);
}

TEST(DiskUnitFaults, MediaErrorRemapsOnceThenPaysReposition) {
  FaultConfig fc;
  fc.media_error_prob = 1.0;
  FaultModel model(fc);
  DiskUnit unit(params(), 0, &model);
  DiskUnit clean(params(), 0, nullptr);

  const DiskUnit::ServeResult faulty = unit.serve(0.0, 42, kib(64));
  const DiskUnit::ServeResult ok = clean.serve(0.0, 42, kib(64));
  EXPECT_EQ(unit.media_errors(), 1);
  EXPECT_EQ(unit.remapped_sectors(), 1);
  EXPECT_TRUE(model.is_remapped(0, 42));
  EXPECT_GT(faulty.completion, ok.completion);  // re-read costs extra

  // Touching the same sector again: another error draw fires (prob 1) but
  // the remap entry already exists.
  unit.serve(faulty.completion + 1.0, 42, kib(64));
  EXPECT_EQ(unit.media_errors(), 2);
  EXPECT_EQ(unit.remapped_sectors(), 1);
  EXPECT_EQ(model.remapped_count(0), 1);
}

TEST(SimulatorFaults, NoneIsBitIdenticalToFaultFree) {
  const trace::Trace t = gap_trace(4, 6, 45'000.0);
  policy::TpmPolicy a;
  policy::TpmPolicy b;
  const SimReport plain =
      simulate(t, params(), a, SimOptions{.capture_responses = true});
  const SimReport with_none =
      simulate(t, params(), b,
               SimOptions{.mode = ReplayMode::kClosedLoop,
                          .faults = FaultConfig::none(),
                          .capture_responses = true});
  EXPECT_EQ(plain.total_energy, with_none.total_energy);  // exact, not NEAR
  EXPECT_EQ(plain.execution_ms, with_none.execution_ms);
  ASSERT_EQ(plain.responses.size(), with_none.responses.size());
  for (std::size_t i = 0; i < plain.responses.size(); ++i) {
    EXPECT_EQ(plain.responses[i], with_none.responses[i]);
  }
  EXPECT_EQ(with_none.spin_up_retries(), 0);
  EXPECT_EQ(with_none.media_errors(), 0);
  EXPECT_EQ(with_none.dropped_directives(), 0);
}

TEST(SimulatorFaults, SameSeedTwiceIsIdentical) {
  const trace::Trace t = gap_trace(4, 8, 45'000.0);
  FaultConfig fc;
  fc.spin_up_failure_prob = 0.4;
  fc.media_error_prob = 0.05;
  fc.service_jitter = 0.2;
  fc.dropped_directive_prob = 0.3;
  fc.seed = 1234;

  policy::TpmPolicy a;
  policy::TpmPolicy b;
  const SimReport first = simulate(t, params(), a,
                                   ReplayMode::kClosedLoop, fc);
  const SimReport second = simulate(t, params(), b,
                                    ReplayMode::kClosedLoop, fc);
  EXPECT_EQ(first.total_energy, second.total_energy);
  EXPECT_EQ(first.execution_ms, second.execution_ms);
  EXPECT_EQ(first.spin_up_retries(), second.spin_up_retries());
  EXPECT_EQ(first.media_errors(), second.media_errors());
  EXPECT_EQ(first.dropped_directives(), second.dropped_directives());
  ASSERT_EQ(first.disks.size(), second.disks.size());
  for (std::size_t d = 0; d < first.disks.size(); ++d) {
    EXPECT_EQ(first.disks[d].breakdown.total_j(),
              second.disks[d].breakdown.total_j());
    EXPECT_EQ(first.disks[d].spin_up_retries,
              second.disks[d].spin_up_retries);
  }
  check_invariants(first, params());
}

TEST(SimulatorFaults, FaultyRunUpholdsInvariants) {
  const trace::Trace t = gap_trace(4, 8, 45'000.0);
  for (const std::uint64_t seed : {7u, 99u, 2026u}) {
    FaultConfig fc;
    fc.spin_up_failure_prob = 0.5;
    fc.media_error_prob = 0.1;
    fc.service_jitter = 0.3;
    fc.dropped_directive_prob = 0.5;
    fc.seed = seed;
    policy::TpmPolicy policy;
    const SimReport report = simulate(t, params(), policy,
                                      ReplayMode::kClosedLoop, fc);
    check_invariants(report, params());
    EXPECT_GT(report.spin_up_retries(), 0);
    EXPECT_GT(report.media_errors(), 0);
  }
}

}  // namespace
}  // namespace sdpm::sim
