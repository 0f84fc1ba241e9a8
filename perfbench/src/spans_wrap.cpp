// Traced build: link-time interposition of each layer's public entry points.
//
// The link line passes --wrap=<mangled symbol> for every function below, so
// each call into that function from another object file of libssdtrain.a
// (or from the benchmark) lands in __wrap_<symbol>, which opens a span and
// forwards to __real_<symbol>. Calls a layer makes to itself inside one
// object file are not interposed; that is what makes the spans one per
// layer boundary rather than one per internal call.
//
// Fine-grained spans (simulator events, flow starts, FTL extents, cache
// replay calls) are aggregated per (step, layer, parent layer) instead of
// kept one by one: a span record per simulator event would dominate the
// host time being measured.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "ssdtrain/ckpt/writer.hpp"
#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/hw/ssd/ftl.hpp"
#include "ssdtrain/runtime/executor.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/step_program.hpp"
#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/sim/simulator.hpp"

namespace perfbench::spans {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool is_fine(int layer) {
  return layer == kSim || layer == kNetStartFlow || layer == kFtl ||
         layer == kCache;
}

/// A kept span. `parent` indexes the enclosing kept span (-1 at the root).
struct Record {
  int layer = 0;
  const char* name = nullptr;
  std::int64_t step = -1;
  std::int64_t parent = -1;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t self = 0;
};

/// Fine-grained spans of one step, summed per (layer, parent layer).
struct Aggregate {
  std::int64_t step = -1;
  int layer = 0;
  int parent_layer = -1;
  std::uint64_t calls = 0;
  std::uint64_t total = 0;
  std::uint64_t self = 0;
};

struct Frame {
  int layer = 0;
  std::uint64_t start = 0;
  std::uint64_t child = 0;
  std::int64_t record = -1;  ///< index into records, -1 for fine spans
};

// Span storage is reserved up front and never grows, so tracing adds no
// heap allocations to the alloc.per_step count; spans beyond the cap still
// count toward the totals but are not kept.
constexpr std::size_t kMaxRecords = 1 << 17;
constexpr std::size_t kMaxAggregates = 1 << 17;
constexpr std::size_t kMaxDepth = 256;

struct State {
  State() {
    records.reserve(kMaxRecords);
    aggregates.reserve(kMaxAggregates);
  }
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth = 0;
  Totals totals{};
  std::vector<Record> records;
  std::vector<Aggregate> aggregates;
  std::int64_t step = -1;
  std::uint64_t epoch = now_ns();
  std::uint64_t dropped = 0;
};

State& state() {
  static thread_local State s;
  return s;
}

std::int64_t enclosing_record(const State& s) {
  for (std::size_t i = s.depth; i > 0; --i) {
    if (s.stack[i - 1].record >= 0) return s.stack[i - 1].record;
  }
  return -1;
}

void open(int layer, const char* name) {
  State& s = state();
  Frame f;
  f.layer = layer;
  if (!is_fine(layer)) {
    if (s.records.size() < kMaxRecords) {
      Record r;
      r.layer = layer;
      r.name = name;
      r.step = s.step;
      r.parent = enclosing_record(s);
      f.record = static_cast<std::int64_t>(s.records.size());
      s.records.push_back(r);
    } else {
      ++s.dropped;
    }
  }
  if (s.depth == kMaxDepth) std::abort();  // unbounded recursion: a bug
  f.start = now_ns();
  s.stack[s.depth++] = f;
  if (f.record >= 0) s.records[static_cast<std::size_t>(f.record)].start = f.start;
}

void close() {
  const std::uint64_t end = now_ns();
  State& s = state();
  const Frame f = s.stack[--s.depth];
  const std::uint64_t total = end - f.start;
  const std::uint64_t self = total > f.child ? total - f.child : 0;
  LayerTotals& t = s.totals[static_cast<std::size_t>(f.layer)];
  ++t.calls;
  t.total_ns += total;
  t.self_ns += self;
  const int parent_layer = s.depth > 0 ? s.stack[s.depth - 1].layer : -1;
  if (s.depth > 0) s.stack[s.depth - 1].child += total;
  if (f.record >= 0) {
    Record& r = s.records[static_cast<std::size_t>(f.record)];
    r.end = end;
    r.self = self;
    return;
  }
  // Fine span: fold into this step's aggregate for (layer, parent layer).
  for (auto it = s.aggregates.rbegin();
       it != s.aggregates.rend() && it->step == s.step; ++it) {
    if (it->layer == f.layer && it->parent_layer == parent_layer) {
      ++it->calls;
      it->total += total;
      it->self += self;
      return;
    }
  }
  if (s.aggregates.size() < kMaxAggregates) {
    s.aggregates.push_back({s.step, f.layer, parent_layer, 1, total, self});
  } else {
    ++s.dropped;
  }
}

struct Scope {
  explicit Scope(int layer, const char* name = nullptr) { open(layer, name); }
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

bool enabled() { return true; }

void open_root(const char* name, std::int64_t step_id) {
  state().step = step_id;
  open(kRoot, name);
}

void close_root() { close(); }

Totals totals() { return state().totals; }

void write(const std::string& path) {
  const State& s = state();
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const Record& r = s.records[i];
    if (r.end == 0) continue;  // still open (cannot happen at exit)
    out << (first ? "\n" : ",\n");
    first = false;
    const char* name =
        r.name != nullptr ? r.name : kLayerNames[static_cast<std::size_t>(r.layer)];
    out << "{\"name\":\"" << name << "\",\"cat\":\""
        << kLayerNames[static_cast<std::size_t>(r.layer)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << to_us(r.start - s.epoch) << ",\"dur\":" << to_us(r.end - r.start)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
        << ",\"step\":" << r.step << ",\"self_us\":" << to_us(r.self) << "}}";
  }
  out << "\n],\"aggregates\":[";
  first = true;
  for (const Aggregate& a : s.aggregates) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"step\":" << a.step << ",\"layer\":\""
        << kLayerNames[static_cast<std::size_t>(a.layer)] << "\",\"parent\":\""
        << (a.parent_layer >= 0
                ? kLayerNames[static_cast<std::size_t>(a.parent_layer)]
                : "none")
        << "\",\"calls\":" << a.calls << ",\"total_us\":" << to_us(a.total)
        << ",\"self_us\":" << to_us(a.self) << "}";
  }
  out << "\n],\"dropped\":" << s.dropped << "}\n";
}

}  // namespace perfbench::spans

// ---------------------------------------------------------------------------
// Interposed entry points. Each pair is __real_<mangled> (the original,
// resolved by the linker) and __wrap_<mangled> (what callers now reach).
// Member functions take `this` as their first argument (Itanium C++ ABI).
// ---------------------------------------------------------------------------

namespace ck = ssdtrain::ckpt;
namespace core = ssdtrain::core;
namespace hw = ssdtrain::hw;
namespace rt = ssdtrain::runtime;
namespace sim = ssdtrain::sim;
namespace util = ssdtrain::util;
using perfbench::spans::Scope;
using Commands = std::vector<ssdtrain::sched::Command>;

#define PERFBENCH_WRAP(ret, sym, layer, params, args) \
  ret __real_##sym params;                            \
  ret __wrap_##sym params {                           \
    Scope scope(perfbench::spans::layer);             \
    return __real_##sym args;                         \
  }

extern "C" {

// sim: Simulator::step(), Simulator::run()
PERFBENCH_WRAP(bool, _ZN8ssdtrain3sim9Simulator4stepEv, kSim,
               (sim::Simulator * self), (self))
PERFBENCH_WRAP(double, _ZN8ssdtrain3sim9Simulator3runEv, kSim,
               (sim::Simulator * self), (self))

// net: BandwidthNetwork::start_flow(Label, Bytes, vector<ResourceId>,
// EventFn, BytesPerSecond)
PERFBENCH_WRAP(
    sim::BandwidthNetwork::FlowId,
    _ZN8ssdtrain3sim16BandwidthNetwork10start_flowENS_4util5LabelElSt6vectorImSaImEENS2_14UniqueFunctionIFvvELm64EEEd,
    kNetStartFlow,
    (sim::BandwidthNetwork * self, util::Label label, util::Bytes bytes,
     std::vector<sim::BandwidthNetwork::ResourceId> path,
     sim::EventFn on_complete, util::BytesPerSecond rate_cap),
    (self, label, bytes, std::move(path), std::move(on_complete), rate_cap))

// ftl: Ftl::write_extent, Ftl::trim_extent, Ftl::Ftl
PERFBENCH_WRAP(void, _ZN8ssdtrain2hw3Ftl12write_extentEll, kFtl,
               (hw::Ftl * self, hw::Lpa first, std::int64_t count),
               (self, first, count))
PERFBENCH_WRAP(void, _ZN8ssdtrain2hw3Ftl11trim_extentEll, kFtl,
               (hw::Ftl * self, hw::Lpa first, std::int64_t count),
               (self, first, count))
PERFBENCH_WRAP(void, _ZN8ssdtrain2hw3FtlC1ENS0_12NandGeometryE, kFtlCtor,
               (hw::Ftl * self, hw::NandGeometry geometry), (self, geometry))

// cache: the TensorCache::replay_* calls executor.cpp makes
PERFBENCH_WRAP(
    void,
    _ZN8ssdtrain4core11TensorCache12replay_beginESt4spanIKNS1_15ReplayEntryInitELm18446744073709551615EE,
    kCache,
    (core::TensorCache * self,
     std::span<const core::TensorCache::ReplayEntryInit> inits),
    (self, inits))
PERFBENCH_WRAP(void,
               _ZN8ssdtrain4core11TensorCache23replay_pack_passthroughENS1_8PassKindE,
               kCache,
               (core::TensorCache * self, core::TensorCache::PassKind kind),
               (self, kind))
PERFBENCH_WRAP(void, _ZN8ssdtrain4core11TensorCache17replay_pack_dedupEv,
               kCache, (core::TensorCache * self), (self))
PERFBENCH_WRAP(
    void,
    _ZN8ssdtrain4core11TensorCache16replay_pack_keepEjRKNS_6tensor6TensorENS1_10KeepReasonE,
    kCache,
    (core::TensorCache * self, std::uint32_t index,
     const ssdtrain::tensor::Tensor& t, core::TensorCache::KeepReason reason),
    (self, index, t, reason))
PERFBENCH_WRAP(
    void, _ZN8ssdtrain4core11TensorCache17replay_pack_storeEjRKNS_6tensor6TensorE,
    kCache,
    (core::TensorCache * self, std::uint32_t index,
     const ssdtrain::tensor::Tensor& t),
    (self, index, t))
PERFBENCH_WRAP(void,
               _ZN8ssdtrain4core11TensorCache25replay_unpack_passthroughEv,
               kCache, (core::TensorCache * self), (self))
PERFBENCH_WRAP(ssdtrain::tensor::Tensor,
               _ZN8ssdtrain4core11TensorCache13replay_unpackEj, kCache,
               (core::TensorCache * self, std::uint32_t index), (self, index))
PERFBENCH_WRAP(
    void,
    _ZN8ssdtrain4core11TensorCache15replay_prefetchESt4spanIKjLm18446744073709551615EE,
    kCache,
    (core::TensorCache * self, std::span<const std::uint32_t> candidates),
    (self, candidates))
PERFBENCH_WRAP(void, _ZN8ssdtrain4core11TensorCache14replay_releaseEj, kCache,
               (core::TensorCache * self, std::uint32_t index), (self, index))

// executor: replay, replay_segment (cluster), record_step, exec_command
PERFBENCH_WRAP(
    rt::StepStats,
    _ZN8ssdtrain7runtime8Executor6replayERKNS0_11StepProgramERKSt6vectorINS_5sched7CommandESaIS7_EE,
    kExecutorReplay,
    (rt::Executor * self, const rt::StepProgram& program,
     const Commands& schedule),
    (self, program, schedule))
PERFBENCH_WRAP(
    void,
    _ZN8ssdtrain7runtime8Executor14replay_segmentERKNS0_11StepProgramEmRNS_3sim13CompletionPtrE,
    kExecutorReplay,
    (rt::Executor * self, const rt::StepProgram& program,
     std::size_t command_index, sim::CompletionPtr& pre_optimizer_marker),
    (self, program, command_index, pre_optimizer_marker))
PERFBENCH_WRAP(
    rt::StepStats,
    _ZN8ssdtrain7runtime8Executor11record_stepERNS_7modules5ModelERKSt6vectorINS_5sched7CommandESaIS7_EERNS0_11StepProgramE,
    kExecutorRecord,
    (rt::Executor * self, ssdtrain::modules::Model& model,
     const Commands& schedule, rt::StepProgram& program),
    (self, model, schedule, program))
PERFBENCH_WRAP(
    void,
    _ZN8ssdtrain7runtime8Executor12exec_commandERNS_7modules5ModelERKSt6vectorINS_5sched7CommandESaIS7_EEmRNS_3sim13CompletionPtrE,
    kExecutorRecord,
    (rt::Executor * self, ssdtrain::modules::Model& model,
     const Commands& schedule, std::size_t index,
     sim::CompletionPtr& pre_optimizer_marker),
    (self, model, schedule, index, pre_optimizer_marker))

// serdes: ProgramCache::lookup, deserialize_program
PERFBENCH_WRAP(std::shared_ptr<const rt::StepProgram>,
               _ZN8ssdtrain7runtime12ProgramCache6lookupERKNS0_10ProgramKeyE,
               kSerdesLookup,
               (rt::ProgramCache * self, const rt::ProgramKey& key),
               (self, key))
PERFBENCH_WRAP(
    bool,
    _ZN8ssdtrain7runtime19deserialize_programESt17basic_string_viewIcSt11char_traitsIcEES4_RNS0_11StepProgramEPNSt7__cxx1112basic_stringIcS3_SaIcEEE,
    kSerdesDecode,
    (std::string_view data, std::string_view expected_key_text,
     rt::StepProgram& out, std::string* error),
    (data, expected_key_text, out, error))

// ckpt: CheckpointWriter::write, CheckpointWriter::restore
PERFBENCH_WRAP(ck::CheckpointCommit, _ZN8ssdtrain4ckpt16CheckpointWriter5writeEm,
               kCkptWrite, (ck::CheckpointWriter * self, std::uint64_t step),
               (self, step))
PERFBENCH_WRAP(ck::RestoreResult,
               _ZN8ssdtrain4ckpt16CheckpointWriter7restoreERKSt6vectorIiSaIiEE,
               kCkptRestore,
               (ck::CheckpointWriter * self, const std::vector<int>& gpus),
               (self, gpus))

}  // extern "C"
