// Wire protocol of sdpm_serviced: length-prefixed JSON frames over a Unix
// domain stream socket.
//
// FRAME SPEC (version 1):
//   +----------------+---------------------+
//   | 4 bytes        | N bytes             |
//   | N, big-endian  | UTF-8 JSON document |
//   +----------------+---------------------+
// N is the payload length in bytes, unsigned, big-endian, and must be
// <= kMaxFrameBytes.  The daemon answers an oversized prefix with a
// structured {"ok":false,"code":"FRAME_TOO_LARGE"} frame — discarding the
// payload to stay aligned when that is affordable, closing the connection
// when it is not (see read_frame_limited); it never allocates gigabytes
// for a hostile prefix.  One request frame yields exactly one response
// frame; requests on one connection are processed in order.
//
// REQUESTS are JSON objects with an "op" field:
//   {"op":"ping"}
//   {"op":"submit","spec":{...JobSpec...}}
//     optional "trace_id"/"span_id": 16 lowercase hex digits each, a
//     client-generated trace context propagated into the daemon's event
//     tracer so one Chrome trace stitches the service lifecycle to the
//     job's simulated-time disk tracks.
//   {"op":"status","id":7}
//   {"op":"result","id":7,"wait":true}      wait: block until terminal
//   {"op":"cancel","id":7}
//   {"op":"stats"}
//   {"op":"telemetry"}                      per-stage latency histograms,
//     rolling 1s/10s/60s rates and per-client aggregates; with
//     "prometheus":true the response adds a "text" field holding the
//     Prometheus exposition rendering.
//   {"op":"drain"}                          stop admitting, finish queued
//   {"op":"shutdown"}                       drain, then exit the daemon
//
// RESPONSES always carry "ok":
//   {"ok":true, ...op-specific fields...}
//   {"ok":false,"error":"message","retryable":true|false}
// "retryable":true marks backpressure (admission queue full): the job was
// NOT admitted and the client should resubmit after a backoff.  Every
// other error is permanent for that request.  An "op" not listed above gets
// {"ok":false,"error":"unknown op \"NAME\""}.  Static analysis is not a
// daemon op: it runs in-process through api::Session::analyze/repair or
// `sdpm_cli analyze`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.h"

namespace sdpm::service {

inline constexpr int kProtocolVersion = 1;

/// Upper bound on one frame's payload; larger prefixes are a protocol
/// error.  16 MB fits any result batch the daemon produces by orders of
/// magnitude.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Oversized frames up to this many bytes are read and DISCARDED so the
/// stream stays aligned and the connection can carry a structured error
/// frame and keep serving.  Beyond it (including "negative" prefixes with
/// the high bit set) the stream cannot be resynchronized at an acceptable
/// cost: the caller sends the error frame and closes.
inline constexpr std::uint32_t kMaxDiscardBytes = 64u << 20;

/// Outcome of a bounded frame read.
struct FrameRead {
  enum class Status {
    kFrame,     ///< payload holds one complete frame
    kEof,       ///< clean close at a frame boundary
    kTooLarge,  ///< prefix exceeded `max_bytes`; payload untouched
  };
  Status status = Status::kFrame;
  std::uint32_t length = 0;  ///< the announced length (kTooLarge)
  /// kTooLarge only: the oversized payload was consumed and the stream is
  /// aligned at the next frame; false means the connection must close.
  bool resynced = false;
};

/// Read one frame of at most `max_bytes` payload into `payload`.  Never
/// throws for oversized prefixes — those come back as kTooLarge so the
/// daemon can answer with a structured error frame instead of tearing the
/// connection down.  Still throws sdpm::Error on a truncated frame or
/// socket error (there is nothing left to answer on).
FrameRead read_frame_limited(int fd, std::string& payload,
                             std::uint32_t max_bytes);

/// Read one frame into `payload`.  Returns false on clean EOF at a frame
/// boundary; throws sdpm::Error on a truncated frame, oversized prefix, or
/// socket error.  (The strict client-side flavor of read_frame_limited.)
bool read_frame(int fd, std::string& payload);

/// Write one frame; throws sdpm::Error on a socket error (EPIPE included:
/// callers treat a vanished peer as a dropped connection, not a crash).
void write_frame(int fd, std::string_view payload);

/// Convenience: frame + parse / dump + frame for JSON documents.
bool read_message(int fd, Json& message);
void write_message(int fd, const Json& message);

/// Response envelope helpers.  `code` (when non-empty) is a stable
/// machine-readable failure code (api::ErrorCode wire string) carried as
/// the "code" field next to the human-readable "error".
Json ok_response();
Json error_response(const std::string& message, bool retryable = false,
                    const std::string& code = "");

/// Client-generated trace correlation carried on submit.  trace_id == 0
/// means untraced (the fields are omitted from the wire).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// 16 lowercase hex digits, the wire spelling of trace/span ids.
std::string trace_hex(std::uint64_t id);
/// Parse a 1..16-digit hex id; 0 on malformed input (0 is "untraced", so
/// a bad id degrades to an untraced submit rather than an error).
std::uint64_t parse_trace_hex(std::string_view hex);

}  // namespace sdpm::service
