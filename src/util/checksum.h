// CRC32 (IEEE 802.3, polynomial 0xEDB88320) for on-disk record integrity,
// and the big-endian integer codec of the service's byte formats.
//
// The CRC is used by the service's write-ahead journal and persistent store
// to detect torn writes and bit rot.  Not cryptographic: it guards against
// corruption, not adversaries — matching the threat model of a local
// state directory.  The same journal and store records, and the wire
// protocol's frame length prefix, spell every integer big-endian through
// put_u32_be/put_u64_be and get_u32_be/get_u64_be.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sdpm {

/// CRC32 of `bytes`, with the conventional ~0 pre/post conditioning
/// (crc32("") == 0; matches zlib's crc32).
std::uint32_t crc32(std::string_view bytes);

/// Streaming form: feed `bytes` into a running crc (start from 0).
std::uint32_t crc32_update(std::uint32_t crc, std::string_view bytes);

/// Append `v` to `out`, most significant byte first.
inline void put_u32_be(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v >> 24));
  out.push_back(static_cast<char>(v >> 16));
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v));
}

inline void put_u64_be(std::string& out, std::uint64_t v) {
  put_u32_be(out, static_cast<std::uint32_t>(v >> 32));
  put_u32_be(out, static_cast<std::uint32_t>(v));
}

/// Read the big-endian value whose first byte is `in[0]`.
inline std::uint32_t get_u32_be(const char* in) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(in[0]))
          << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[1]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[2]))
          << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[3]));
}

inline std::uint64_t get_u64_be(const char* in) {
  return (static_cast<std::uint64_t>(get_u32_be(in)) << 32) |
         get_u32_be(in + 4);
}

}  // namespace sdpm
