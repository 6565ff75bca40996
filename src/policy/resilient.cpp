#include "policy/resilient.h"

#include "util/error.h"

namespace sdpm::policy {

ResilientPolicy::ResilientPolicy(sim::PowerPolicy& inner,
                                 ResilientOptions options)
    : inner_(inner), fallback_(options.fallback), options_(options),
      label_(std::string("R+") + inner.name()) {
  SDPM_REQUIRE(options_.demote_score > 0, "demote_score must be positive");
  SDPM_REQUIRE(options_.stable_ms >= 0, "stable_ms must be non-negative");
  SDPM_REQUIRE(options_.retry_weight >= 0 && options_.miss_weight >= 0,
               "health weights must be non-negative");
}

void ResilientPolicy::attach(sim::DiskUnit& disk) {
  inner_.attach(disk);
  fallback_.attach(disk);
  Health& h = health_[disk.id()];
  h.prev_retries = disk.report().spin_up_retries;
  h.prev_demand = disk.report().demand_spin_ups;
}

void ResilientPolicy::observe(sim::DiskUnit& disk, TimeMs now) {
  Health& h = health_[disk.id()];
  const std::int64_t retries = disk.report().spin_up_retries - h.prev_retries;
  const std::int64_t demand = disk.report().demand_spin_ups - h.prev_demand;
  h.prev_retries = disk.report().spin_up_retries;
  h.prev_demand = disk.report().demand_spin_ups;

  double bad = static_cast<double>(retries) * options_.retry_weight;
  // Demand spin-ups are only evidence against the *plan*; under the
  // reactive fallback they are how TPM is supposed to work.
  if (!h.degraded) bad += static_cast<double>(demand) * options_.miss_weight;

  if (bad > 0) {
    // Forgive stale history before adding fresh evidence, so two faults
    // separated by a long healthy span do not compound.
    if (h.last_bad >= 0 && now - h.last_bad >= options_.stable_ms) {
      h.score = 0;
    }
    h.score += bad;
    h.last_bad = now;
    if (!h.degraded && h.score >= options_.demote_score) {
      h.degraded = true;
      h.demoted_at = now;
      // An unreliable disk must not be power-cycled eagerly: seed the
      // fallback at its conservative ceiling and let its adaptive rule
      // earn the threshold back down if spin-downs do pay off.
      fallback_.set_threshold(disk.id(), options_.fallback.max_threshold_ms);
      ++demotions_;
    }
    return;
  }

  if (h.degraded && h.last_bad >= 0 &&
      now - h.last_bad >= options_.stable_ms) {
    h.degraded = false;
    h.score = 0;
    ++promotions_;
  }
}

void ResilientPolicy::before_service(sim::DiskUnit& disk, TimeMs now) {
  observe(disk, now);
  if (health_[disk.id()].degraded) {
    fallback_.before_service(disk, now);
  } else {
    inner_.before_service(disk, now);
  }
}

void ResilientPolicy::after_service(sim::DiskUnit& disk, TimeMs completion,
                                    TimeMs response_ms) {
  // Route to the manager first (with the pre-service health state), then
  // fold in what this service revealed.
  if (health_[disk.id()].degraded) {
    fallback_.after_service(disk, completion, response_ms);
  } else {
    inner_.after_service(disk, completion, response_ms);
  }
  observe(disk, completion);
}

void ResilientPolicy::on_power_event(sim::DiskUnit& disk, TimeMs now,
                                     const ir::PowerDirective& directive) {
  observe(disk, now);
  if (health_[disk.id()].degraded) {
    // The plan lost this disk's trust: its directives are ignored until the
    // disk has been quiet long enough to be re-promoted.
    ++suppressed_directives_;
    return;
  }
  inner_.on_power_event(disk, now, directive);
}

void ResilientPolicy::finalize(sim::DiskUnit& disk, TimeMs end) {
  if (health_[disk.id()].degraded) {
    fallback_.finalize(disk, end);
  } else {
    inner_.finalize(disk, end);
  }
}

bool ResilientPolicy::degraded(int disk_id) const {
  const auto it = health_.find(disk_id);
  return it != health_.end() && it->second.degraded;
}

}  // namespace sdpm::policy
