#pragma once

/// \file ftl.hpp
/// Page-mapped flash translation layer with greedy garbage collection and
/// wear levelling. The FTL is what turns host writes into media writes; the
/// ratio (write amplification factor, WAF) governs both sustained bandwidth
/// and endurance. The paper argues activation offloading is
/// endurance-friendly because tensors are written as large sequential
/// streams and freed wholesale (WAF ≈ 1); this simulator lets tests verify
/// that claim instead of assuming it, and lets us demonstrate the contrast
/// with the JESD-style random preconditioned workload (WAF ≫ 1).
///
/// Both per-page tables (the lpa → physical map and the owner slot of every
/// physical page) live in zero-filled storage where 0 means unmapped or
/// invalid, so a drive costs O(blocks) memory until pages are written. The
/// wear-levelling pick runs in O(log blocks) through a min tournament tree
/// over the free list.

#include <cstdint>
#include <memory>
#include <vector>

#include "ssdtrain/hw/ssd/nand.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::hw {

/// Logical page address.
using Lpa = std::int64_t;

namespace detail {
/// Releases an anonymous mapping of \p bytes.
struct Unmap {
  std::size_t bytes = 0;
  void operator()(std::int64_t* table) const noexcept;
};
/// A table of int64 entries in anonymous zero pages (see ftl.cpp).
using ZeroedTable = std::unique_ptr<std::int64_t[], Unmap>;
}  // namespace detail

class Ftl {
 public:
  explicit Ftl(NandGeometry geometry);

  /// Programs one logical page (overwrite invalidates the old copy). May
  /// trigger garbage collection. Throws if the device has worn out (no
  /// usable blocks remain).
  void write_page(Lpa lpa);

  /// Writes a run of consecutive logical pages (the activation-offload
  /// pattern: each tensor is one large sequential extent).
  void write_extent(Lpa first, std::int64_t count);

  /// Invalidates a logical page without writing (TRIM). The tensor cache
  /// trims a tensor's extent after backward propagation consumes it.
  void trim_page(Lpa lpa);
  void trim_extent(Lpa first, std::int64_t count);

  [[nodiscard]] bool is_mapped(Lpa lpa) const;
  [[nodiscard]] std::int64_t logical_pages() const { return logical_pages_; }

  /// Where a logical page lives on the media; {-1, -1} when unmapped.
  struct Placement {
    int block = -1;
    int page = -1;
  };
  [[nodiscard]] Placement placement(Lpa lpa) const;
  [[nodiscard]] int erase_count(int block) const;

  // -- statistics ------------------------------------------------------------
  [[nodiscard]] std::int64_t host_pages_written() const {
    return host_pages_written_;
  }
  [[nodiscard]] std::int64_t media_pages_written() const {
    return media_pages_written_;
  }
  /// media / host write ratio; 1.0 until GC has to relocate live pages.
  [[nodiscard]] double write_amplification() const;
  [[nodiscard]] std::int64_t gc_runs() const { return gc_runs_; }
  [[nodiscard]] std::int64_t blocks_erased() const { return blocks_erased_; }
  [[nodiscard]] std::int64_t retired_blocks() const { return retired_blocks_; }

  [[nodiscard]] double mean_erase_count() const;
  [[nodiscard]] int max_erase_count() const;
  [[nodiscard]] int min_erase_count() const;

  /// Fraction of total PE budget consumed (1.0 = worn out).
  [[nodiscard]] double wear_fraction() const;

  [[nodiscard]] const NandGeometry& geometry() const { return geometry_; }

 private:
  enum class BlockState : std::uint8_t { free, open, closed, retired };

  struct BlockInfo {
    BlockState state = BlockState::free;
    int erase_count = 0;
    int write_pointer = 0;  ///< next page slot in an open block
    int valid_count = 0;
  };

  /// Appends one page to the host open block (opening a fresh one as
  /// needed) and returns the physical page it landed on. Media-write
  /// accounting happens here.
  std::int64_t append_page(Lpa lpa);

  /// Appends a GC-relocated page. GC uses a dedicated open block so
  /// relocation never re-enters GC through the host append path.
  std::int64_t gc_append_page(Lpa lpa);

  /// Programs \p lpa into the next slot of open block \p block.
  std::int64_t program_page(int block, Lpa lpa);

  /// Drops the physical copy at \p physical_page (overwrite or TRIM).
  void invalidate(std::int64_t physical_page);

  /// Ensures a free block is available, running GC as required.
  void ensure_free_block();

  /// Picks the GC victim: most invalid pages, ties broken by lowest erase
  /// count (wear levelling).
  int pick_victim() const;

  void erase_block(int block_index);

  /// Lowest-erase-count free block (wear levelling); among equals, the one
  /// at the lowest free-list position. Swap-with-back removal.
  int take_free_block();

  /// Recomputes the tournament leaf for free-list position \p pos and its
  /// path to the root.
  void refresh_free_slot(std::size_t pos);

  NandGeometry geometry_;
  std::int64_t logical_pages_ = 0;
  std::vector<BlockInfo> blocks_;
  /// Flat page-owner arena, block-major: lpa + 1 per physical page slot,
  /// 0 if invalid. Slots of an erased block keep stale values until they
  /// are programmed again; only closed (full) blocks are ever read.
  detail::ZeroedTable page_owner_;
  /// lpa -> physical page index (block * pages_per_block + page) + 1,
  /// 0 if unmapped.
  detail::ZeroedTable map_;
  std::vector<int> free_blocks_;
  /// Min tournament tree over free_blocks_ positions: node i >= 1 holds the
  /// minimum of nodes 2i and 2i+1, leaf n + pos holds
  /// (erase count << 32 | pos), or kNoFreeSlot past the end of the list.
  /// The root is therefore the least-worn block at the lowest position.
  std::vector<std::uint64_t> free_tree_;
  static constexpr std::uint64_t kNoFreeSlot = ~std::uint64_t{0};
  std::vector<Lpa> gc_survivors_;  ///< GC scratch, reserved once
  int open_block_ = -1;
  int gc_block_ = -1;
  std::int64_t host_pages_written_ = 0;
  std::int64_t media_pages_written_ = 0;
  std::int64_t gc_runs_ = 0;
  std::int64_t blocks_erased_ = 0;
  std::int64_t retired_blocks_ = 0;
  // GC must keep at least this many blocks free for relocation headroom.
  static constexpr int kGcFreeBlockThreshold = 2;
};

}  // namespace ssdtrain::hw
