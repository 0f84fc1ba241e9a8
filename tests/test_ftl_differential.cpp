// Differential property test for the FTL: hw::Ftl (tournament-tree
// free-block pick, flat zero-encoded page tables) is driven side by side
// with ReferenceFtl, the original linear-scan implementation, on small
// seeded geometries through fill, random overwrite and trim, GC, block
// retirement and wear-out. After every batch both must agree on where each
// LPA lives, on every block's erase count and on all counters, and every
// operation must throw the same exception in both or in neither.
//
// Also here: the wear-out regression (a GC victim that retires on its last
// erase must surface as the documented "device worn out" error, never as an
// internal invariant failure with pages stranded in the erased block) and
// the zero-allocation contract of the write/trim path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "reference_ftl.hpp"
#include "ssdtrain/hw/ssd/ftl.hpp"
#include "ssdtrain/hw/ssd/nand.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/rng.hpp"
#include "ssdtrain/util/units.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting overrides: every heap allocation in this binary ticks g_allocs.
// They pair malloc/free across the replaced global new/delete, which
// GCC's -Wmismatched-new-delete cannot see once call sites inline them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace hw = ssdtrain::hw;
namespace u = ssdtrain::util;
using ssdtrain::testing::ReferenceFtl;

/// What one operation did: nothing, or which exception it threw.
struct Outcome {
  std::string kind;  ///< "" | "runtime_error" | "contract" | "other"
  std::string what;  ///< message; contract messages carry file:line, so
                     ///< only the kind is compared for those
};

template <class Op>
Outcome outcome_of(Op&& op) {
  try {
    op();
    return {};
  } catch (const u::ContractViolation&) {
    return {"contract", ""};
  } catch (const std::runtime_error& e) {
    return {"runtime_error", e.what()};
  } catch (...) {
    return {"other", ""};
  }
}

void expect_same_state(const hw::Ftl& ftl, const ReferenceFtl& ref) {
  ASSERT_EQ(ftl.logical_pages(), ref.logical_pages());
  for (hw::Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    const auto got = ftl.placement(lpa);
    const auto want = ref.placement(lpa);
    ASSERT_EQ(got.block, want.block) << "lpa " << lpa;
    ASSERT_EQ(got.page, want.page) << "lpa " << lpa;
    ASSERT_EQ(ftl.is_mapped(lpa), ref.is_mapped(lpa)) << "lpa " << lpa;
  }
  for (int b = 0; b < ftl.geometry().physical_blocks; ++b) {
    ASSERT_EQ(ftl.erase_count(b), ref.erase_count(b)) << "block " << b;
  }
  EXPECT_EQ(ftl.host_pages_written(), ref.host_pages_written());
  EXPECT_EQ(ftl.media_pages_written(), ref.media_pages_written());
  EXPECT_EQ(ftl.gc_runs(), ref.gc_runs());
  EXPECT_EQ(ftl.blocks_erased(), ref.blocks_erased());
  EXPECT_EQ(ftl.retired_blocks(), ref.retired_blocks());
  // Exact: both sides divide the same integers.
  EXPECT_EQ(ftl.write_amplification(), ref.write_amplification());
  // O(1) from blocks_erased() against the reference's per-block sums.
  EXPECT_EQ(ftl.mean_erase_count(), ref.mean_erase_count());
  EXPECT_EQ(ftl.wear_fraction(), ref.wear_fraction());
  EXPECT_EQ(ftl.max_erase_count(), ref.max_erase_count());
  EXPECT_EQ(ftl.min_erase_count(), ref.min_erase_count());
}

hw::NandGeometry random_geometry(u::Xoshiro256& rng) {
  hw::NandGeometry geo;
  geo.page_size = u::kib(16);
  geo.pages_per_block = 1 + static_cast<int>(rng.uniform_int(12));
  geo.physical_blocks = 4 + static_cast<int>(rng.uniform_int(29));
  geo.over_provisioning = rng.uniform(0.05, 0.35);
  geo.pe_cycle_limit = 2 + static_cast<int>(rng.uniform_int(12));
  return geo;
}

/// Per-run coverage tallies, so the test proves it reached the paths it
/// claims to check.
struct Coverage {
  int seeds_with_gc = 0;
  int seeds_with_retirement = 0;
  int seeds_worn_out = 0;
  int seeds_worn_out_in_relocation = 0;
};

/// Runs one seed: a partial fill, then random overwrite/trim batches until the device
/// wears out or the op budget runs out. Returns false on the first mismatch.
bool run_seed(std::uint64_t seed, Coverage& coverage) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  u::Xoshiro256 rng(seed);
  const hw::NandGeometry geo = random_geometry(rng);
  hw::Ftl ftl(geo);
  ReferenceFtl ref(geo);
  const std::int64_t lp = ftl.logical_pages();
  const auto random_lpa = [&] {
    return static_cast<hw::Lpa>(rng.uniform_int(static_cast<std::uint64_t>(lp)));
  };
  const auto random_run = [&](hw::Lpa first) {
    const std::int64_t max_len =
        std::min<std::int64_t>(lp - first, 3 * geo.pages_per_block);
    return 1 + static_cast<std::int64_t>(
                   rng.uniform_int(static_cast<std::uint64_t>(max_len)));
  };

  constexpr int kBatches = 120;
  constexpr int kOpsPerBatch = 25;
  bool worn_out = false;
  for (int batch = -1; batch < kBatches && !worn_out; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const int ops = batch < 0 ? 1 : kOpsPerBatch;
    for (int i = 0; i < ops && !worn_out; ++i) {
      Outcome got;
      Outcome want;
      if (batch < 0) {
        // Fill three quarters of the logical space sequentially.
        got = outcome_of([&] { ftl.write_extent(0, lp * 3 / 4); });
        want = outcome_of([&] { ref.write_extent(0, lp * 3 / 4); });
      } else {
        const auto pick = rng.uniform_int(100);
        const hw::Lpa lpa = random_lpa();
        if (pick < 45) {
          got = outcome_of([&] { ftl.write_page(lpa); });
          want = outcome_of([&] { ref.write_page(lpa); });
        } else if (pick < 65) {
          const auto len = random_run(lpa);
          got = outcome_of([&] { ftl.write_extent(lpa, len); });
          want = outcome_of([&] { ref.write_extent(lpa, len); });
        } else if (pick < 85) {
          got = outcome_of([&] { ftl.trim_page(lpa); });
          want = outcome_of([&] { ref.trim_page(lpa); });
        } else {
          const auto len = random_run(lpa);
          got = outcome_of([&] { ftl.trim_extent(lpa, len); });
          want = outcome_of([&] { ref.trim_extent(lpa, len); });
        }
      }
      EXPECT_EQ(got.kind, want.kind) << "op " << i;
      EXPECT_EQ(got.what, want.what) << "op " << i;
      EXPECT_NE(got.kind, "contract") << "op " << i;
      EXPECT_NE(got.kind, "other") << "op " << i;
      if (::testing::Test::HasFailure()) return false;
      worn_out = !got.kind.empty();
      if (got.what.find("GC relocation") != std::string::npos) {
        ++coverage.seeds_worn_out_in_relocation;
      }
    }
    expect_same_state(ftl, ref);
    if (::testing::Test::HasFailure()) return false;
  }
  if (ftl.gc_runs() > 0) ++coverage.seeds_with_gc;
  if (ftl.retired_blocks() > 0) ++coverage.seeds_with_retirement;
  if (worn_out) ++coverage.seeds_worn_out;
  return true;
}

TEST(FtlDifferential, MatchesLinearScanReferenceOnSeededWorkloads) {
  constexpr int kSeeds = 300;
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (!run_seed(seed, coverage)) return;
  }
  // The seeds must actually reach GC, retirement and wear-out, or the
  // agreement above proves little.
  EXPECT_GE(coverage.seeds_with_gc, kSeeds * 9 / 10);
  EXPECT_GE(coverage.seeds_with_retirement, kSeeds * 2 / 3);
  EXPECT_GE(coverage.seeds_worn_out, kSeeds * 3 / 4);
  EXPECT_GE(coverage.seeds_worn_out_in_relocation, kSeeds / 4);
}

TEST(FtlDifferential, OffloadPatternMatchesReference) {
  // The activation-offload shape: large sequential extents trimmed
  // wholesale, on a geometry with a realistic block count and no wear-out.
  hw::NandGeometry geo;
  geo.pages_per_block = 16;
  geo.physical_blocks = 2048;
  geo.over_provisioning = 0.07;
  geo.pe_cycle_limit = 1 << 20;
  hw::Ftl ftl(geo);
  ReferenceFtl ref(geo);
  u::Xoshiro256 rng(11);
  const std::int64_t extent = 96;
  const std::int64_t slots = ftl.logical_pages() / extent;
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 64; ++k) {
      const auto slot = static_cast<std::int64_t>(
          rng.uniform_int(static_cast<std::uint64_t>(slots)));
      ftl.write_extent(slot * extent, extent);
      ref.write_extent(slot * extent, extent);
      if (k % 3 == 0) {
        ftl.trim_extent(slot * extent, extent);
        ref.trim_extent(slot * extent, extent);
      }
    }
    expect_same_state(ftl, ref);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(ftl.gc_runs(), 0);
}

// 16 blocks of 8 pages with a 5-cycle PE budget under random overwrites: in
// most seeds the last GC victim retires on its erase while the free list is
// empty. That must be the documented "device worn out" runtime_error raised
// before the erase, with every mapped LPA still in a live block.
TEST(FtlWearOut, RetiringGcVictimReportsWornOutBeforeErase) {
  hw::NandGeometry geo;
  geo.pages_per_block = 8;
  geo.physical_blocks = 16;
  geo.over_provisioning = 0.25;
  geo.pe_cycle_limit = 5;
  int relocation_worn_out = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    hw::Ftl ftl(geo);
    const std::int64_t lp = ftl.logical_pages();
    u::Xoshiro256 rng(seed);
    std::string error;
    for (int i = 0; i < 100000 && error.empty(); ++i) {
      try {
        ftl.write_page(static_cast<hw::Lpa>(
            rng.uniform_int(static_cast<std::uint64_t>(lp))));
      } catch (const std::runtime_error& e) {
        error = e.what();
      } catch (const std::logic_error& e) {
        FAIL() << "wear-out surfaced as an invariant failure: " << e.what();
      }
    }
    ASSERT_NE(error.find("device worn out"), std::string::npos) << error;
    if (error.find("GC relocation") != std::string::npos) {
      ++relocation_worn_out;
    }
    for (hw::Lpa lpa = 0; lpa < lp; ++lpa) {
      if (!ftl.is_mapped(lpa)) continue;
      EXPECT_LT(ftl.erase_count(ftl.placement(lpa).block), geo.pe_cycle_limit)
          << "lpa " << lpa << " stranded in a retired block";
    }
    // A worn-out device stays worn out.
    EXPECT_THROW(
        ftl.write_page(static_cast<hw::Lpa>(
            rng.uniform_int(static_cast<std::uint64_t>(lp)))),
        std::runtime_error);
  }
  // The retiring-victim path is the common ending, not a corner case.
  EXPECT_GT(relocation_worn_out, 100);
}

TEST(FtlAllocation, WriteTrimAndGcAllocateNothing) {
  hw::NandGeometry geo;
  geo.pages_per_block = 16;
  geo.physical_blocks = 512;
  geo.over_provisioning = 0.1;
  geo.pe_cycle_limit = 1 << 20;
  hw::Ftl ftl(geo);
  const std::int64_t lp = ftl.logical_pages();
  ftl.write_extent(0, lp);
  u::Xoshiro256 rng(5);
  const auto before = g_allocs.load();
  for (int i = 0; i < 20000; ++i) {
    const auto lpa = static_cast<hw::Lpa>(
        rng.uniform_int(static_cast<std::uint64_t>(lp - 64)));
    if (i % 4 == 3) {
      ftl.trim_extent(lpa, 64);
    } else {
      ftl.write_page(lpa);
      ftl.write_extent(lpa, 8);
    }
  }
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_GT(ftl.gc_runs(), 0);
}

}  // namespace
