// Test support: a policy that forwards every hook to an inner policy and
// has no replay kernel, so the simulator replays it through the generic
// virtual engine (replay_run<PowerPolicy>).  Wrapping a built-in policy
// gives the reference its static kernel must match bit for bit.  It also
// counts the per-item hooks, so a test can check what a driver reports.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/policy.h"

namespace sdpm::test {

/// How often a replay called each per-item hook.
struct HookCounts {
  std::int64_t before_service = 0;
  std::int64_t after_service = 0;
  std::int64_t power_events = 0;
};

template <class Inner>
class ForwardingPolicy final : public sim::PowerPolicy {
 public:
  template <class... Args>
  explicit ForwardingPolicy(Args&&... args)
      : inner_(std::forward<Args>(args)...) {}

  void set_tracer(obs::EventTracer* tracer) override {
    inner_.set_tracer(tracer);
  }
  void attach(sim::DiskUnit& disk) override { inner_.attach(disk); }
  void before_service(sim::DiskUnit& disk, TimeMs now) override {
    ++counts_.before_service;
    inner_.before_service(disk, now);
  }
  void after_service(sim::DiskUnit& disk, TimeMs completion,
                     TimeMs response_ms) override {
    ++counts_.after_service;
    inner_.after_service(disk, completion, response_ms);
  }
  void on_power_event(sim::DiskUnit& disk, TimeMs now,
                      const ir::PowerDirective& directive) override {
    ++counts_.power_events;
    inner_.on_power_event(disk, now, directive);
  }
  void finalize(sim::DiskUnit& disk, TimeMs end) override {
    inner_.finalize(disk, end);
  }
  const char* name() const override { return inner_.name(); }

  const HookCounts& counts() const { return counts_; }

 private:
  Inner inner_;
  HookCounts counts_;
};

}  // namespace sdpm::test
