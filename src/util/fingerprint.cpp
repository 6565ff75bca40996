#include "util/fingerprint.h"

namespace sdpm {
namespace {

/// Little-endian word of the (up to 8) bytes at `data`.
std::uint64_t load_word(const char* data, std::size_t n) {
  std::uint64_t word = 0;
  for (std::size_t k = 0; k < n; ++k) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[k]))
            << (8 * k);
  }
  return word;
}

void put_hex(std::string& out, std::uint64_t v) {
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back("0123456789abcdef"[(v >> shift) & 0xfu]);
  }
}

}  // namespace

ContentKey fingerprint_bytes(std::string_view bytes) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(bytes.size()));
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) fp.mix(load_word(bytes.data() + i, 8));
  fp.mix(load_word(bytes.data() + i, bytes.size() - i));
  return fp.key();
}

std::string to_hex(const ContentKey& key) {
  std::string out;
  out.reserve(32);
  put_hex(out, key.lo);
  put_hex(out, key.hi);
  return out;
}

std::optional<ContentKey> content_key_from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t lanes[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = hex[i];
    int v = -1;
    if (c >= '0' && c <= '9') v = c - '0';
    if (c >= 'a' && c <= 'f') v = 10 + (c - 'a');
    if (c >= 'A' && c <= 'F') v = 10 + (c - 'A');
    if (v < 0) return std::nullopt;
    lanes[i / 16] = (lanes[i / 16] << 4) | static_cast<std::uint64_t>(v);
  }
  return ContentKey{lanes[0], lanes[1]};
}

}  // namespace sdpm
