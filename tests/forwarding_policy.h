// Test support: a policy that forwards every hook to an inner policy and
// has no replay kernel, so the simulator replays it through the generic
// virtual engine (replay_run<PowerPolicy>).  Wrapping a built-in policy
// gives the reference its static kernel must match bit for bit.
#pragma once

#include <utility>

#include "sim/policy.h"

namespace sdpm::test {

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
    inner_.before_service(disk, now);
  }
  void after_service(sim::DiskUnit& disk, TimeMs completion,
                     TimeMs response_ms) override {
    inner_.after_service(disk, completion, response_ms);
  }
  void on_power_event(sim::DiskUnit& disk, TimeMs now,
                      const ir::PowerDirective& directive) override {
    inner_.on_power_event(disk, now, directive);
  }
  void finalize(sim::DiskUnit& disk, TimeMs end) override {
    inner_.finalize(disk, end);
  }
  const char* name() const override { return inner_.name(); }

 private:
  Inner inner_;
};

}  // namespace sdpm::test
