// LRU buffer cache model.
//
// The paper makes data disk-resident, "so each array reference causes a disk
// access unless the data is captured in the buffer cache" (§4.1).  We model
// that buffer cache as a byte-budgeted LRU over (array, block) entries;
// every miss becomes one trace I/O request.
//
// The LRU is flat: its entries live in one vector, doubly linked by index,
// behind an open-addressing index (linear probing, backward-shift
// deletion), so no access allocates once the cache has grown to its
// working set.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/array.h"
#include "util/units.h"

namespace sdpm::trace {

/// One block of an array's file: the unit the cache holds.
struct CacheBlock {
  ir::ArrayId array = -1;
  std::int64_t block = 0;
};

class BufferCache {
 public:
  /// `capacity_bytes == 0` disables caching entirely (every access misses).
  explicit BufferCache(Bytes capacity_bytes);

  /// Touch (array, block) of `block_bytes` size.  Returns true on hit.
  /// On miss the block is inserted, evicting LRU entries as needed; a block
  /// larger than the capacity empties the cache and is not kept.  The
  /// touched block goes to the front, or right below `anchor` when one is
  /// given and resident after the evictions (an anchor naming the touched
  /// block itself leaves it where it is).
  bool access(ir::ArrayId array, std::int64_t block, Bytes block_bytes,
              const CacheBlock* anchor = nullptr);

  /// access() split in two, for a caller that computes a block's size only
  /// on a miss: hit() is its hit half (true and the block moved, or false
  /// and nothing changed), and after a false hit() the caller must insert()
  /// the same block.
  bool hit(ir::ArrayId array, std::int64_t block,
           const CacheBlock* anchor = nullptr);
  void insert(ir::ArrayId array, std::int64_t block, Bytes block_bytes,
              const CacheBlock* anchor = nullptr);

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  Bytes bytes_used() const { return used_; }
  Bytes capacity() const { return capacity_; }

 private:
  /// An LRU entry; nodes_[0] is the list's sentinel, whose `next` is the
  /// most recent entry and whose `prev` the least recent.  Free nodes are
  /// chained through `next`.
  struct Node {
    std::uint64_t key = 0;
    Bytes bytes = 0;
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };
  /// An index slot; `node == 0` marks it empty.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t node = 0;
  };

  static std::uint64_t make_key(ir::ArrayId array, std::int64_t block);
  std::size_t home(std::uint64_t key) const;
  /// The node holding `key`, or 0.
  std::uint32_t find(std::uint64_t key) const;
  /// The node to link a touched entry after: the anchor's when it is
  /// resident, else the sentinel (the front).
  std::uint32_t place(const CacheBlock* anchor) const;
  void index_insert(std::uint64_t key, std::uint32_t node);
  void index_erase(std::uint64_t key);
  void unlink(std::uint32_t node);
  void link_after(std::uint32_t at, std::uint32_t node);
  void evict_lru();

  Bytes capacity_;
  Bytes used_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_ = 0;   // first free node, 0 when none
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t entries_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace sdpm::trace
