#include "ssdtrain/hw/ssd/ftl.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

#include <sys/mman.h>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::hw {

void detail::Unmap::operator()(std::int64_t* table) const noexcept {
  ::munmap(table, bytes);
}

namespace {

/// A table of \p entries zeros in anonymous memory: the kernel maps a page
/// on its first write, so untouched entries cost no memory. calloc is not
/// enough: once glibc's adaptive mmap threshold grows past the table size,
/// calloc serves it from reused heap and zero-fills it eagerly.
detail::ZeroedTable zeroed_table(std::int64_t entries) {
  const std::size_t bytes =
      static_cast<std::size_t>(std::max<std::int64_t>(entries, 1)) *
      sizeof(std::int64_t);
  void* table = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (table == MAP_FAILED) throw std::bad_alloc();
  return detail::ZeroedTable(static_cast<std::int64_t*>(table),
                             detail::Unmap{bytes});
}

}  // namespace

Ftl::Ftl(NandGeometry geometry)
    : geometry_(geometry), logical_pages_(geometry.logical_pages()) {
  util::expects(geometry_.physical_blocks > kGcFreeBlockThreshold + 1,
                "too few blocks");
  util::expects(geometry_.pages_per_block > 0, "bad pages_per_block");
  const auto n = static_cast<std::size_t>(geometry_.physical_blocks);
  blocks_.resize(n);
  page_owner_ = zeroed_table(static_cast<std::int64_t>(n) *
                             geometry_.pages_per_block);
  map_ = zeroed_table(logical_pages_);
  free_blocks_.resize(n);
  free_tree_.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    free_blocks_[i] = static_cast<int>(i);
    free_tree_[n + i] = i;  // erase count 0, position i
  }
  for (std::size_t i = n - 1; i >= 1; --i) {
    free_tree_[i] = std::min(free_tree_[2 * i], free_tree_[2 * i + 1]);
  }
  gc_survivors_.reserve(static_cast<std::size_t>(geometry_.pages_per_block));
}

bool Ftl::is_mapped(Lpa lpa) const {
  util::expects(lpa >= 0 && lpa < logical_pages_, "LPA out of range");
  return map_[lpa] != 0;
}

Ftl::Placement Ftl::placement(Lpa lpa) const {
  util::expects(lpa >= 0 && lpa < logical_pages_, "LPA out of range");
  const std::int64_t slot = map_[lpa];
  if (slot == 0) return {};
  const std::int64_t physical = slot - 1;
  return {static_cast<int>(physical / geometry_.pages_per_block),
          static_cast<int>(physical % geometry_.pages_per_block)};
}

int Ftl::erase_count(int block) const {
  util::expects(block >= 0 && block < geometry_.physical_blocks,
                "block out of range");
  return blocks_[static_cast<std::size_t>(block)].erase_count;
}

void Ftl::write_page(Lpa lpa) {
  util::expects(lpa >= 0 && lpa < logical_pages_, "LPA out of range");
  std::int64_t& slot = map_[lpa];
  if (slot != 0) {
    // Overwrite: invalidate the previous physical copy. The LPA stays
    // unmapped until the append lands, so a worn-out throw from GC cannot
    // leave it pointing at a block that GC erased meanwhile.
    invalidate(slot - 1);
    slot = 0;
  }
  ++host_pages_written_;
  slot = append_page(lpa) + 1;
}

void Ftl::write_extent(Lpa first, std::int64_t count) {
  util::expects(count >= 0, "negative extent");
  for (std::int64_t i = 0; i < count; ++i) write_page(first + i);
}

void Ftl::trim_page(Lpa lpa) {
  util::expects(lpa >= 0 && lpa < logical_pages_, "LPA out of range");
  std::int64_t& slot = map_[lpa];
  if (slot == 0) return;  // already unmapped
  invalidate(slot - 1);
  slot = 0;
}

void Ftl::trim_extent(Lpa first, std::int64_t count) {
  util::expects(count >= 0, "negative extent");
  for (std::int64_t i = 0; i < count; ++i) trim_page(first + i);
}

void Ftl::invalidate(std::int64_t physical_page) {
  page_owner_[physical_page] = 0;
  --blocks_[static_cast<std::size_t>(physical_page /
                                     geometry_.pages_per_block)]
        .valid_count;
}

std::int64_t Ftl::program_page(int block_index, Lpa lpa) {
  auto& block = blocks_[static_cast<std::size_t>(block_index)];
  const std::int64_t physical =
      static_cast<std::int64_t>(block_index) * geometry_.pages_per_block +
      block.write_pointer++;
  page_owner_[physical] = lpa + 1;
  ++block.valid_count;
  ++media_pages_written_;
  return physical;
}

std::int64_t Ftl::append_page(Lpa lpa) {
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
  return program_page(open_block_, lpa);
}

std::int64_t Ftl::gc_append_page(Lpa lpa) {
  if (gc_block_ < 0 ||
      blocks_[static_cast<std::size_t>(gc_block_)].write_pointer >=
          geometry_.pages_per_block) {
    if (gc_block_ >= 0) {
      blocks_[static_cast<std::size_t>(gc_block_)].state = BlockState::closed;
    }
    // ensure_free_block checked before the erase that a free block exists
    // here (the victim itself when it did not retire).
    gc_block_ = take_free_block();
    auto& fresh = blocks_[static_cast<std::size_t>(gc_block_)];
    fresh.state = BlockState::open;
    fresh.write_pointer = 0;
  }
  return program_page(gc_block_, lpa);
}

void Ftl::ensure_free_block() {
  const int pages = geometry_.pages_per_block;
  while (static_cast<int>(free_blocks_.size()) <= kGcFreeBlockThreshold) {
    const int victim = pick_victim();
    if (victim < 0) {
      throw std::runtime_error(
          "FTL: device worn out (no GC victim available)");
    }
    auto& vb = blocks_[static_cast<std::size_t>(victim)];
    // A victim has at least one invalid page, so its survivors fit in the
    // GC block's remaining room plus one fresh block. That block is missing
    // only when the free list is empty and the victim retires on this
    // erase; report wear-out before erasing so no mapping is stranded.
    const int room =
        gc_block_ < 0
            ? 0
            : pages - blocks_[static_cast<std::size_t>(gc_block_)]
                          .write_pointer;
    if (vb.valid_count > room && free_blocks_.empty() &&
        vb.erase_count + 1 >= geometry_.pe_cycle_limit) {
      throw std::runtime_error(
          "FTL: device worn out (no free block for GC relocation)");
    }
    ++gc_runs_;
    // Relocate still-valid pages. This is where write amplification comes
    // from: each relocated page is a media write with no host write.
    gc_survivors_.clear();
    const std::int64_t base = static_cast<std::int64_t>(victim) * pages;
    for (int p = 0; p < pages; ++p) {
      const std::int64_t owner = page_owner_[base + p];
      if (owner != 0) gc_survivors_.push_back(owner - 1);
    }
    erase_block(victim);
    for (Lpa lpa : gc_survivors_) map_[lpa] = gc_append_page(lpa) + 1;
  }
}

int Ftl::pick_victim() const {
  int best = -1;
  int best_invalid = -1;
  int best_erases = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const auto& block = blocks_[i];
    if (block.state != BlockState::closed) continue;
    if (static_cast<int>(i) == open_block_) continue;
    const int invalid = geometry_.pages_per_block - block.valid_count;
    if (invalid == 0) continue;  // nothing to gain
    if (invalid > best_invalid ||
        (invalid == best_invalid && block.erase_count < best_erases)) {
      best = static_cast<int>(i);
      best_invalid = invalid;
      best_erases = block.erase_count;
    }
  }
  return best;
}

void Ftl::erase_block(int block_index) {
  auto& block = blocks_[static_cast<std::size_t>(block_index)];
  ++block.erase_count;
  ++blocks_erased_;
  // Owner slots keep their stale values: the block is read again only once
  // it has been reopened and filled, which rewrites every slot.
  block.valid_count = 0;
  block.write_pointer = 0;
  if (block.erase_count >= geometry_.pe_cycle_limit) {
    block.state = BlockState::retired;
    ++retired_blocks_;
    return;
  }
  block.state = BlockState::free;
  free_blocks_.push_back(block_index);
  refresh_free_slot(free_blocks_.size() - 1);
}

void Ftl::refresh_free_slot(std::size_t pos) {
  std::size_t node = blocks_.size() + pos;
  if (pos < free_blocks_.size()) {
    const auto erases = static_cast<std::uint64_t>(
        blocks_[static_cast<std::size_t>(free_blocks_[pos])].erase_count);
    free_tree_[node] = (erases << 32) | pos;
  } else {
    free_tree_[node] = kNoFreeSlot;
  }
  for (node /= 2; node >= 1; node /= 2) {
    free_tree_[node] = std::min(free_tree_[2 * node], free_tree_[2 * node + 1]);
  }
}

int Ftl::take_free_block() {
  util::check(!free_blocks_.empty(), "no free block");
  // The tree root packs (erase count, position), so its low half is the
  // first free-list position holding the least-worn block.
  const auto pos = static_cast<std::size_t>(free_tree_[1] & 0xffffffffU);
  const int chosen = free_blocks_[pos];
  free_blocks_[pos] = free_blocks_.back();
  free_blocks_.pop_back();
  refresh_free_slot(pos);
  if (pos != free_blocks_.size()) refresh_free_slot(free_blocks_.size());
  return chosen;
}

double Ftl::write_amplification() const {
  if (host_pages_written_ == 0) return 1.0;
  return static_cast<double>(media_pages_written_) /
         static_cast<double>(host_pages_written_);
}

// Every erase bumps exactly one block's count, so blocks_erased_ is the sum
// of the per-block erase counts.
double Ftl::mean_erase_count() const {
  return static_cast<double>(blocks_erased_) /
         static_cast<double>(blocks_.size());
}

int Ftl::max_erase_count() const {
  int best = 0;
  for (const auto& block : blocks_) best = std::max(best, block.erase_count);
  return best;
}

int Ftl::min_erase_count() const {
  int best = blocks_.empty() ? 0 : blocks_.front().erase_count;
  for (const auto& block : blocks_) best = std::min(best, block.erase_count);
  return best;
}

double Ftl::wear_fraction() const {
  const double budget = static_cast<double>(geometry_.pe_cycle_limit) *
                        static_cast<double>(blocks_.size());
  if (budget <= 0.0) return 1.0;
  return static_cast<double>(blocks_erased_) / budget;
}

}  // namespace ssdtrain::hw
