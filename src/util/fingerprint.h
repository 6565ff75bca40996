// 128-bit content fingerprints.
//
// One streaming mixer keys every content-addressed cache in the system:
// the access walk's miss memo (trace::access_key_of), the trace cache
// (experiments::trace_key_of, the access key extended with timing fields)
// and the service's persistent result store (fingerprint_bytes below).
// Two SplitMix64-style lanes with different constants each absorb every
// word.  Not cryptographic: collision resistance around 2^-128 is ample
// for caches of tens of entries.
#pragma once

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sdpm {

/// A 128-bit content fingerprint.
struct ContentKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const ContentKey&, const ContentKey&) = default;
  friend auto operator<=>(const ContentKey&, const ContentKey&) = default;
};

struct ContentKeyHash {
  std::size_t operator()(const ContentKey& key) const noexcept {
    return static_cast<std::size_t>(key.lo ^ (key.hi * 0x9e3779b97f4a7c15ULL));
  }
};

class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    a_ = finalize((a_ ^ v) + 0x9e3779b97f4a7c15ULL);
    b_ = finalize((b_ + v) ^ 0xc2b2ae3d27d4eb4fULL);
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const ContentKey& key) {
    mix(key.lo);
    mix(key.hi);
  }

  /// The two lanes: `lo` is the first, `hi` the second.
  ContentKey key() const { return ContentKey{a_, b_}; }

 private:
  static std::uint64_t finalize(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t a_ = 0x243f6a8885a308d3ULL;
  std::uint64_t b_ = 0x13198a2e03707344ULL;
};

/// Fingerprint arbitrary bytes (a JobSpec's canonical JSON is the result
/// store's key).  The length is mixed first, so a prefix padded with zero
/// bytes does not collide with itself.
ContentKey fingerprint_bytes(std::string_view bytes);

/// 32 lowercase hex digits, the first lane (`lo`) first: the spelling of
/// store file names and of the journal's COMPLETE records.
std::string to_hex(const ContentKey& key);

/// Parse to_hex's spelling (either case); empty on any other input.
std::optional<ContentKey> content_key_from_hex(std::string_view hex);

}  // namespace sdpm
