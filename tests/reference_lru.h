// Test support: the byte-budgeted LRU that BufferCache must behave as,
// written the plain way — a std::list in recency order behind a
// std::unordered_map — so the walk tests check the product's flat cache
// against an independent model rather than against itself.  It keeps
// BufferCache::access's whole contract: the byte budget, eviction from the
// tail, oversize blocks, zero capacity and the anchored placement.
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>

#include "trace/buffer_cache.h"

namespace sdpm::test {

class ReferenceLru {
 public:
  explicit ReferenceLru(Bytes capacity_bytes) : capacity_(capacity_bytes) {}

  /// Touch (array, block) of `block_bytes` size; true on a hit.  The block
  /// goes to the front, or right below `anchor` when that block is
  /// resident after any eviction.
  bool access(ir::ArrayId array, std::int64_t block, Bytes block_bytes,
              const trace::CacheBlock* anchor = nullptr) {
    if (capacity_ == 0) return false;
    const std::uint64_t key = make_key(array, block);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // splice leaves an entry anchored to itself where it is.
      lru_.splice(position(anchor), lru_, it->second);
      return true;
    }
    // Evict from the tail until the new block fits.
    while (used_ + block_bytes > capacity_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      used_ -= victim.bytes;
      index_.erase(victim.key);
      lru_.pop_back();
    }
    if (block_bytes <= capacity_) {
      index_.emplace(key,
                     lru_.insert(position(anchor), Entry{key, block_bytes}));
      used_ += block_bytes;
    }
    return false;
  }

  Bytes bytes_used() const { return used_; }

 private:
  struct Entry {
    std::uint64_t key;
    Bytes bytes;
  };

  static std::uint64_t make_key(ir::ArrayId array, std::int64_t block) {
    return (static_cast<std::uint64_t>(array) << 48) |
           static_cast<std::uint64_t>(block);
  }

  /// Where a touched entry goes: right after a resident anchor, else the
  /// front.
  std::list<Entry>::iterator position(const trace::CacheBlock* anchor) {
    if (anchor == nullptr) return lru_.begin();
    const auto it = index_.find(make_key(anchor->array, anchor->block));
    return it == index_.end() ? lru_.begin() : std::next(it->second);
  }

  Bytes capacity_;
  Bytes used_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace sdpm::test
