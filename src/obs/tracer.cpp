#include "obs/tracer.h"

namespace sdpm::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kStateSegment:
      return "state_segment";
    case EventKind::kDirective:
      return "directive";
    case EventKind::kDirectiveDropped:
      return "directive_dropped";
    case EventKind::kDemandSpinUp:
      return "demand_spin_up";
    case EventKind::kSpinUpRetry:
      return "spin_up_retry";
    case EventKind::kMediaError:
      return "media_error";
    case EventKind::kService:
      return "service";
    case EventKind::kBreakEven:
      return "break_even";
    case EventKind::kRpmWindow:
      return "rpm_window";
    case EventKind::kSpanBegin:
      return "span_begin";
    case EventKind::kSpanEnd:
      return "span_end";
    case EventKind::kServiceStage:
      return "service_stage";
  }
  return "?";
}

Span::Span(EventTracer* tracer, const char* label, TimeMs t0)
    : tracer_(tracer), label_(label), t0_(t0) {
  if (tracer_ == nullptr) return;
  Event e;
  e.kind = EventKind::kSpanBegin;
  e.t0 = e.t1 = t0_;
  e.label = label_;
  tracer_->emit(e);
}

void Span::end(TimeMs t1) {
  if (ended_) return;
  ended_ = true;
  if (tracer_ == nullptr) return;
  Event e;
  e.kind = EventKind::kSpanEnd;
  e.t0 = e.t1 = t1;
  e.label = label_;
  tracer_->emit(e);
}

Span::~Span() { end(t0_); }

}  // namespace sdpm::obs
