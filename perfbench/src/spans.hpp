#pragma once

// Host-time spans for the traced benchmark binary.
//
// perfbench_traced links spans_wrap.cpp, which interposes the public entry
// points of each simulator layer through the linker's --wrap option and
// times every call; perfbench links spans_off.cpp, whose functions do
// nothing, so its end-to-end numbers carry no interposition at all.
//
// A span records its layer, start, end, parent and the id of the root step
// span it ran under. Self time is a span's duration minus the part its
// child spans cover.

#include <array>
#include <cstdint>
#include <string>

namespace perfbench::spans {

/// One entry per interposed boundary, plus the benchmark's own root spans.
enum Layer : int {
  kRoot,             ///< one run_step / setup call made by the benchmark
  kSim,              ///< Simulator::step, Simulator::run
  kNetStartFlow,     ///< BandwidthNetwork::start_flow
  kFtl,              ///< Ftl::write_extent, Ftl::trim_extent
  kFtlCtor,          ///< Ftl::Ftl
  kCache,            ///< TensorCache::replay_* (called from executor.cpp)
  kExecutorReplay,   ///< Executor::replay, Executor::replay_segment
  kExecutorRecord,   ///< Executor::record_step, Executor::exec_command
  kSerdesLookup,     ///< ProgramCache::lookup
  kSerdesDecode,     ///< deserialize_program
  kCkptWrite,        ///< CheckpointWriter::write
  kCkptRestore,      ///< CheckpointWriter::restore
  kLayerCount,
};

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "root",          "sim",           "net.start_flow",   "ftl",
    "ftl.ctor",      "cache",         "executor.replay",  "executor.record",
    "serdes.lookup", "serdes.decode", "ckpt.write",       "ckpt.restore",
};

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Cumulative per-layer totals since process start.
using Totals = std::array<LayerTotals, kLayerCount>;

/// True in the traced binary.
bool enabled();

/// Opens a root span (a run_step or a setup phase) named \p name; every
/// span opened before the matching close shares \p step_id.
void open_root(const char* name, std::int64_t step_id);
void close_root();

/// Snapshot of the cumulative totals; callers difference two snapshots.
Totals totals();

/// Writes every kept span as Chrome trace-event JSON to \p path.
void write(const std::string& path);

/// RAII wrapper for a root span.
class RootSpan {
 public:
  RootSpan(const char* name, std::int64_t step_id) { open_root(name, step_id); }
  ~RootSpan() { close_root(); }
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;
};

}  // namespace perfbench::spans
