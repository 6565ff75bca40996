#include "trace/buffer_cache.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/error.h"

namespace sdpm::trace {

namespace {

constexpr std::size_t kMinSlots = 16;

}  // namespace

BufferCache::BufferCache(Bytes capacity_bytes)
    : capacity_(capacity_bytes), nodes_(1) {
  SDPM_REQUIRE(capacity_bytes >= 0, "cache capacity must be non-negative");
}

std::uint64_t BufferCache::make_key(ir::ArrayId array, std::int64_t block) {
  SDPM_ASSERT(array >= 0 && array < (1 << 15), "array id out of key range");
  SDPM_ASSERT(block >= 0 && block < (std::int64_t{1} << 48),
              "block out of key range");
  return (static_cast<std::uint64_t>(array) << 48) |
         static_cast<std::uint64_t>(block);
}

std::size_t BufferCache::home(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64 / phi.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::uint32_t BufferCache::find(std::uint64_t key) const {
  if (entries_ == 0) return 0;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.node == 0 || slot.key == key) return slot.node;
  }
}

std::uint32_t BufferCache::place(const CacheBlock* anchor) const {
  return anchor == nullptr ? 0 : find(make_key(anchor->array, anchor->block));
}

void BufferCache::index_insert(std::uint64_t key, std::uint32_t node) {
  const auto store = [this](const Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(slot.key);
    while (slots_[i].node != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  };
  if ((entries_ + 1) * 2 > slots_.size()) {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max(kMinSlots, 2 * slots_.size())));
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.node != 0) store(slot);
    }
  }
  store(Slot{key, node});
  ++entries_;
}

void BufferCache::index_erase(std::uint64_t key) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(key);
  while (slots_[hole].node == 0 || slots_[hole].key != key) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: move each later entry of the probe run into
  // the hole when its home slot does not lie between the hole and it.
  for (std::size_t i = (hole + 1) & mask; slots_[i].node != 0;
       i = (i + 1) & mask) {
    if (((i - home(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole].node = 0;
  --entries_;
}

void BufferCache::unlink(std::uint32_t node) {
  Node& n = nodes_[node];
  nodes_[n.prev].next = n.next;
  nodes_[n.next].prev = n.prev;
}

void BufferCache::link_after(std::uint32_t at, std::uint32_t node) {
  const std::uint32_t next = nodes_[at].next;
  nodes_[node].prev = at;
  nodes_[node].next = next;
  nodes_[next].prev = node;
  nodes_[at].next = node;
}

void BufferCache::evict_lru() {
  const std::uint32_t victim = nodes_[0].prev;
  used_ -= nodes_[victim].bytes;
  index_erase(nodes_[victim].key);
  unlink(victim);
  nodes_[victim].next = free_;
  free_ = victim;
}

bool BufferCache::hit(ir::ArrayId array, std::int64_t block,
                      const CacheBlock* anchor) {
  if (capacity_ == 0) return false;
  const std::uint32_t node = find(make_key(array, block));
  if (node == 0) return false;
  ++hits_;
  const std::uint32_t at = place(anchor);
  if (at != node) {
    unlink(node);
    link_after(at, node);
  }
  return true;
}

void BufferCache::insert(ir::ArrayId array, std::int64_t block,
                         Bytes block_bytes, const CacheBlock* anchor) {
  ++misses_;
  if (capacity_ == 0) return;
  const std::uint64_t key = make_key(array, block);
  // Evict from the tail until the new block fits.
  while (used_ + block_bytes > capacity_ && nodes_[0].prev != 0) evict_lru();
  if (block_bytes > capacity_) return;
  std::uint32_t node = free_;
  if (node != 0) {
    free_ = nodes_[node].next;
  } else {
    SDPM_REQUIRE(nodes_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "buffer cache entry count out of range");
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node].key = key;
  nodes_[node].bytes = block_bytes;
  link_after(place(anchor), node);
  index_insert(key, node);
  used_ += block_bytes;
}

bool BufferCache::access(ir::ArrayId array, std::int64_t block,
                         Bytes block_bytes, const CacheBlock* anchor) {
  if (hit(array, block, anchor)) return true;
  insert(array, block, block_bytes, anchor);
  return false;
}

}  // namespace sdpm::trace
