#include "ssdtrain/hw/block_allocator.hpp"

#include <algorithm>
#include <iterator>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::hw {

BlockAllocator::BlockAllocator(util::Bytes capacity, util::Bytes alignment)
    : capacity_(capacity), alignment_(alignment) {
  util::expects(capacity > 0, "capacity must be positive");
  util::expects(alignment > 0, "alignment must be positive");
  free_.push_back({0, capacity});
}

util::Bytes BlockAllocator::align_up(util::Bytes n) const {
  return (n + alignment_ - 1) / alignment_ * alignment_;
}

std::optional<Block> BlockAllocator::allocate(util::Bytes bytes) {
  util::expects(bytes > 0, "allocation must be positive");
  const util::Bytes need = align_up(bytes);
  // First fit in address order: keeps long-lived allocations packed low,
  // mirroring the behaviour of CUDA's caching allocator well enough for
  // fragmentation statistics.
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->size < need) continue;
    const std::int64_t offset = it->offset;
    if (it->size > need) {
      it->offset += need;  // the remainder keeps its place in the order
      it->size -= need;
    } else {
      free_.erase(it);
    }
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(live_slots_.size());
      live_slots_.emplace_back();
    }
    const std::uint32_t generation = live_slots_[slot].generation + 1;
    live_slots_[slot] = LiveSlot{offset, need, generation};
    ++live_count_;
    used_ += need;
    return Block{offset, need, slot, generation};
  }
  return std::nullopt;
}

void BlockAllocator::free(const Block& block) {
  util::expects(block.cookie < live_slots_.size() &&
                    live_slots_[block.cookie].offset == block.offset &&
                    live_slots_[block.cookie].size == block.size &&
                    live_slots_[block.cookie].generation == block.generation,
                "free of unknown or already-freed block");
  live_slots_[block.cookie].offset = -1;
  free_slots_.push_back(block.cookie);
  --live_count_;
  used_ -= block.size;

  const auto next = std::lower_bound(
      free_.begin(), free_.end(), block.offset,
      [](const FreeRange& r, std::int64_t offset) { return r.offset < offset; });
  const bool merge_next =
      next != free_.end() && block.offset + block.size == next->offset;
  const bool merge_prev =
      next != free_.begin() &&
      std::prev(next)->offset + std::prev(next)->size == block.offset;
  if (merge_prev) {
    std::prev(next)->size += block.size + (merge_next ? next->size : 0);
    if (merge_next) free_.erase(next);
  } else if (merge_next) {
    next->offset = block.offset;
    next->size += block.size;
  } else {
    free_.insert(next, {block.offset, block.size});
  }
}

util::Bytes BlockAllocator::largest_free_range() const {
  util::Bytes largest = 0;
  for (const FreeRange& r : free_) largest = std::max(largest, r.size);
  return largest;
}

double BlockAllocator::external_fragmentation() const {
  const util::Bytes total_free = free_bytes();
  if (total_free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_range()) /
                   static_cast<double>(total_free);
}

}  // namespace ssdtrain::hw
