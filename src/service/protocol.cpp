#include "service/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "util/checksum.h"
#include "util/error.h"
#include "util/strings.h"

namespace sdpm::service {
namespace {

/// Read exactly `n` bytes.  Returns the byte count actually read: `n` on
/// success, 0 on EOF before the first byte, and throws on a short read in
/// the middle (a torn frame is corruption, not a clean close).
std::size_t read_exact(int fd, char* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw Error(str_printf("service: read failed: %s",
                             std::strerror(errno)));
    }
    if (r == 0) {
      if (got == 0) return 0;
      throw Error("service: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void write_exact(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a SIGPIPE that
    // would kill the whole daemon.
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw Error(str_printf("service: write failed: %s",
                             std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace

FrameRead read_frame_limited(int fd, std::string& payload,
                             std::uint32_t max_bytes) {
  char prefix[4];
  if (read_exact(fd, prefix, 4) == 0) {
    return FrameRead{FrameRead::Status::kEof, 0, false};
  }
  const std::uint32_t length = get_u32_be(prefix);
  if (length > max_bytes) {
    FrameRead result{FrameRead::Status::kTooLarge, length, false};
    // A prefix with the high bit set is a "negative" length from a signed
    // writer — certainly garbage, never worth streaming through.
    if (length <= kMaxDiscardBytes && (length & 0x80000000u) == 0) {
      char sink[1 << 16];
      std::uint32_t remaining = length;
      while (remaining > 0) {
        const std::size_t chunk =
            remaining < sizeof(sink) ? remaining : sizeof(sink);
        if (read_exact(fd, sink, chunk) == 0) {
          throw Error("service: connection closed mid-frame");
        }
        remaining -= static_cast<std::uint32_t>(chunk);
      }
      result.resynced = true;
    }
    return result;
  }
  payload.resize(length);
  if (length > 0 && read_exact(fd, payload.data(), length) == 0) {
    throw Error("service: connection closed mid-frame");
  }
  return FrameRead{FrameRead::Status::kFrame, length, true};
}

bool read_frame(int fd, std::string& payload) {
  const FrameRead read = read_frame_limited(fd, payload, kMaxFrameBytes);
  if (read.status == FrameRead::Status::kEof) return false;
  if (read.status == FrameRead::Status::kTooLarge) {
    throw Error(str_printf("service: frame of %u bytes exceeds the %u-byte "
                           "limit",
                           read.length, kMaxFrameBytes));
  }
  return true;
}

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw Error(str_printf("service: refusing to send a %zu-byte frame "
                           "(limit %u)",
                           payload.size(), kMaxFrameBytes));
  }
  std::string prefix;
  put_u32_be(prefix, static_cast<std::uint32_t>(payload.size()));
  write_exact(fd, prefix.data(), prefix.size());
  write_exact(fd, payload.data(), payload.size());
}

bool read_message(int fd, Json& message) {
  std::string payload;
  if (!read_frame(fd, payload)) return false;
  message = Json::parse(payload);
  return true;
}

void write_message(int fd, const Json& message) {
  write_frame(fd, message.dump());
}

Json ok_response() {
  Json response = Json::object();
  response.set("ok", true);
  return response;
}

Json error_response(const std::string& message, bool retryable,
                    const std::string& code) {
  Json response = Json::object();
  response.set("ok", false).set("error", message).set("retryable", retryable);
  if (!code.empty()) response.set("code", code);
  return response;
}

std::string trace_hex(std::uint64_t id) {
  return str_printf("%016llx", static_cast<unsigned long long>(id));
}

std::uint64_t parse_trace_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  std::uint64_t out = 0;
  for (const char c : hex) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(10 + c - 'a');
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(10 + c - 'A');
    } else {
      return 0;
    }
    out = (out << 4) | digit;
  }
  return out;
}

}  // namespace sdpm::service
