#pragma once

// Test-only reference FTL: the original linear-scan implementation of
// hw::Ftl, kept as the oracle for the differential property test. It picks
// the least-worn free block with a min_element over the whole free list,
// keeps one page-owner vector per block and the lpa map as a vector of
// (block, page) pairs, all eagerly filled with -1. Behaviour must match
// hw::Ftl exactly: same block choices, counters and exceptions. The only
// change from the original is the wear-out fix (report "device worn out"
// before a retiring GC victim is erased, and unmap an overwritten LPA until
// its new copy lands).

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ssdtrain/hw/ssd/ftl.hpp"
#include "ssdtrain/hw/ssd/nand.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::testing {

class ReferenceFtl {
 public:
  using Lpa = hw::Lpa;

  explicit ReferenceFtl(hw::NandGeometry geometry) : geometry_(geometry) {
    util::expects(geometry_.physical_blocks > kGcFreeBlockThreshold + 1,
                  "too few blocks");
    util::expects(geometry_.pages_per_block > 0, "bad pages_per_block");
    blocks_.resize(static_cast<std::size_t>(geometry_.physical_blocks));
    for (auto& block : blocks_) {
      block.page_owner.assign(
          static_cast<std::size_t>(geometry_.pages_per_block), -1);
    }
    free_blocks_.resize(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      free_blocks_[i] = static_cast<int>(i);
    }
    map_.assign(static_cast<std::size_t>(geometry_.logical_pages()),
                PhysicalAddress{});
  }

  void write_page(Lpa lpa) {
    util::expects(lpa >= 0 && lpa < logical_pages(), "LPA out of range");
    auto& slot = map_[static_cast<std::size_t>(lpa)];
    if (slot.block >= 0) {
      auto& old_block = blocks_[static_cast<std::size_t>(slot.block)];
      old_block.page_owner[static_cast<std::size_t>(slot.page)] = -1;
      --old_block.valid_count;
      slot = PhysicalAddress{};
    }
    ++host_pages_written_;
    slot = append_page(lpa);
  }

  void write_extent(Lpa first, std::int64_t count) {
    util::expects(count >= 0, "negative extent");
    for (std::int64_t i = 0; i < count; ++i) write_page(first + i);
  }

  void trim_page(Lpa lpa) {
    util::expects(lpa >= 0 && lpa < logical_pages(), "LPA out of range");
    auto& slot = map_[static_cast<std::size_t>(lpa)];
    if (slot.block < 0) return;
    auto& block = blocks_[static_cast<std::size_t>(slot.block)];
    block.page_owner[static_cast<std::size_t>(slot.page)] = -1;
    --block.valid_count;
    slot = PhysicalAddress{};
  }

  void trim_extent(Lpa first, std::int64_t count) {
    util::expects(count >= 0, "negative extent");
    for (std::int64_t i = 0; i < count; ++i) trim_page(first + i);
  }

  [[nodiscard]] bool is_mapped(Lpa lpa) const {
    util::expects(lpa >= 0 && lpa < logical_pages(), "LPA out of range");
    return map_[static_cast<std::size_t>(lpa)].block >= 0;
  }
  [[nodiscard]] std::int64_t logical_pages() const {
    return static_cast<std::int64_t>(map_.size());
  }
  [[nodiscard]] hw::Ftl::Placement placement(Lpa lpa) const {
    util::expects(lpa >= 0 && lpa < logical_pages(), "LPA out of range");
    const auto& slot = map_[static_cast<std::size_t>(lpa)];
    return {slot.block, slot.page};
  }
  [[nodiscard]] int erase_count(int block) const {
    return blocks_[static_cast<std::size_t>(block)].erase_count;
  }

  [[nodiscard]] std::int64_t host_pages_written() const {
    return host_pages_written_;
  }
  [[nodiscard]] std::int64_t media_pages_written() const {
    return media_pages_written_;
  }
  [[nodiscard]] double write_amplification() const {
    if (host_pages_written_ == 0) return 1.0;
    return static_cast<double>(media_pages_written_) /
           static_cast<double>(host_pages_written_);
  }
  [[nodiscard]] std::int64_t gc_runs() const { return gc_runs_; }
  [[nodiscard]] std::int64_t blocks_erased() const { return blocks_erased_; }
  [[nodiscard]] std::int64_t retired_blocks() const { return retired_blocks_; }

  [[nodiscard]] double mean_erase_count() const {
    double sum = 0.0;
    for (const auto& block : blocks_) sum += block.erase_count;
    return sum / static_cast<double>(blocks_.size());
  }
  [[nodiscard]] int max_erase_count() const {
    int best = 0;
    for (const auto& block : blocks_) best = std::max(best, block.erase_count);
    return best;
  }
  [[nodiscard]] int min_erase_count() const {
    int best = blocks_.empty() ? 0 : blocks_.front().erase_count;
    for (const auto& block : blocks_) best = std::min(best, block.erase_count);
    return best;
  }
  [[nodiscard]] double wear_fraction() const {
    const double budget = static_cast<double>(geometry_.pe_cycle_limit) *
                          static_cast<double>(blocks_.size());
    if (budget <= 0.0) return 1.0;
    double consumed = 0.0;
    for (const auto& block : blocks_) consumed += block.erase_count;
    return consumed / budget;
  }

 private:
  enum class BlockState : std::uint8_t { free, open, closed, retired };

  struct BlockInfo {
    BlockState state = BlockState::free;
    int erase_count = 0;
    int write_pointer = 0;
    int valid_count = 0;
    std::vector<Lpa> page_owner;  ///< lpa per page slot, -1 if invalid
  };

  struct PhysicalAddress {
    int block = -1;
    int page = -1;
  };

  PhysicalAddress append_page(Lpa lpa) {
    if (open_block_ < 0 ||
        blocks_[static_cast<std::size_t>(open_block_)].write_pointer >=
            geometry_.pages_per_block) {
      if (open_block_ >= 0) {
        blocks_[static_cast<std::size_t>(open_block_)].state =
            BlockState::closed;
      }
      ensure_free_block();
      open_block_ = take_free_block();
      auto& fresh = blocks_[static_cast<std::size_t>(open_block_)];
      fresh.state = BlockState::open;
      fresh.write_pointer = 0;
    }
    auto& block = blocks_[static_cast<std::size_t>(open_block_)];
    const int page = block.write_pointer++;
    block.page_owner[static_cast<std::size_t>(page)] = lpa;
    ++block.valid_count;
    ++media_pages_written_;
    return PhysicalAddress{open_block_, page};
  }

  PhysicalAddress gc_append_page(Lpa lpa) {
    if (gc_block_ < 0 ||
        blocks_[static_cast<std::size_t>(gc_block_)].write_pointer >=
            geometry_.pages_per_block) {
      if (gc_block_ >= 0) {
        blocks_[static_cast<std::size_t>(gc_block_)].state =
            BlockState::closed;
      }
      gc_block_ = take_free_block();
      auto& fresh = blocks_[static_cast<std::size_t>(gc_block_)];
      fresh.state = BlockState::open;
      fresh.write_pointer = 0;
    }
    auto& block = blocks_[static_cast<std::size_t>(gc_block_)];
    const int page = block.write_pointer++;
    block.page_owner[static_cast<std::size_t>(page)] = lpa;
    ++block.valid_count;
    ++media_pages_written_;
    return PhysicalAddress{gc_block_, page};
  }

  void ensure_free_block() {
    while (static_cast<int>(free_blocks_.size()) <= kGcFreeBlockThreshold) {
      const int victim = pick_victim();
      if (victim < 0) {
        throw std::runtime_error(
            "FTL: device worn out (no GC victim available)");
      }
      auto& vb = blocks_[static_cast<std::size_t>(victim)];
      const int room =
          gc_block_ < 0
              ? 0
              : geometry_.pages_per_block -
                    blocks_[static_cast<std::size_t>(gc_block_)].write_pointer;
      if (vb.valid_count > room && free_blocks_.empty() &&
          vb.erase_count + 1 >= geometry_.pe_cycle_limit) {
        throw std::runtime_error(
            "FTL: device worn out (no free block for GC relocation)");
      }
      ++gc_runs_;
      std::vector<Lpa> survivors;
      survivors.reserve(static_cast<std::size_t>(vb.valid_count));
      for (int p = 0; p < geometry_.pages_per_block; ++p) {
        const Lpa owner = vb.page_owner[static_cast<std::size_t>(p)];
        if (owner >= 0) survivors.push_back(owner);
      }
      erase_block(victim);
      for (Lpa lpa : survivors) {
        map_[static_cast<std::size_t>(lpa)] = gc_append_page(lpa);
      }
    }
  }

  [[nodiscard]] int pick_victim() const {
    int best = -1;
    int best_invalid = -1;
    int best_erases = 0;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      const auto& block = blocks_[i];
      if (block.state != BlockState::closed) continue;
      if (static_cast<int>(i) == open_block_) continue;
      const int invalid = geometry_.pages_per_block - block.valid_count;
      if (invalid == 0) continue;
      if (invalid > best_invalid ||
          (invalid == best_invalid && block.erase_count < best_erases)) {
        best = static_cast<int>(i);
        best_invalid = invalid;
        best_erases = block.erase_count;
      }
    }
    return best;
  }

  void erase_block(int block_index) {
    auto& block = blocks_[static_cast<std::size_t>(block_index)];
    ++block.erase_count;
    ++blocks_erased_;
    std::fill(block.page_owner.begin(), block.page_owner.end(), -1);
    block.valid_count = 0;
    block.write_pointer = 0;
    if (block.erase_count >= geometry_.pe_cycle_limit) {
      block.state = BlockState::retired;
      ++retired_blocks_;
      return;
    }
    block.state = BlockState::free;
    free_blocks_.push_back(block_index);
  }

  int take_free_block() {
    util::check(!free_blocks_.empty(), "no free block");
    auto it = std::min_element(
        free_blocks_.begin(), free_blocks_.end(), [this](int a, int b) {
          return blocks_[static_cast<std::size_t>(a)].erase_count <
                 blocks_[static_cast<std::size_t>(b)].erase_count;
        });
    const int chosen = *it;
    *it = free_blocks_.back();
    free_blocks_.pop_back();
    return chosen;
  }

  hw::NandGeometry geometry_;
  std::vector<BlockInfo> blocks_;
  std::vector<PhysicalAddress> map_;
  std::vector<int> free_blocks_;
  int open_block_ = -1;
  int gc_block_ = -1;
  std::int64_t host_pages_written_ = 0;
  std::int64_t media_pages_written_ = 0;
  std::int64_t gc_runs_ = 0;
  std::int64_t blocks_erased_ = 0;
  std::int64_t retired_blocks_ = 0;
  static constexpr int kGcFreeBlockThreshold = 2;
};

}  // namespace ssdtrain::testing
