#pragma once

/// \file tensor_cache.hpp
/// The tensor cache (paper §III-B, §III-C) — SSDTrain's central data
/// structure. It interposes on the computational graph through the
/// pack/unpack saved-tensor hook pair (Alg. 1), maintains the module scope
/// stack through the four module hooks, keeps one record per micro-batch,
/// and coordinates the offloader.
///
/// Every tracked activation is one entry of a dense table, and one state
/// machine drives it: keep; store start and completion (a permanent store
/// failure keeps the tensor on GPU); unpack (data forwarding, §III-C2, or
/// with forwarding off a synchronous reload that consumers gate on);
/// load start and finish; the prefetch candidate check; release, which
/// counts wasted stores and trims the SSD extent. There are two ways of
/// finding an entry:
///
///   * the trace path — the pack/unpack hooks make Alg. 1's decisions:
///     weights / CPU tensors / small tensors pass through; tracked
///     activations are deduplicated by get_id in the micro-batch record's
///     TensorId → index map; tensors are kept once the planner's offload
///     budget is reached, while in backward propagation (recompute
///     interop), or inside designated keep scopes (the last module before
///     backward); everything else starts an asynchronous store. Entering
///     a module in backward prefetches the next module(s) in reverse
///     forward order, and when every scope that referenced an activation
///     has finished its backward the entry is released (Python GC
///     analogue).
///   * the replay path — the replay_* calls address the entry by the index
///     the recorded step resolved, with the decisions already made.
///
/// Both run the same transitions on the same table, so stats, forwarding,
/// refusal fallback and offloader traffic agree by construction.

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/graph/saved_tensors.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/modules/module.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/tensor/tensor.hpp"
#include "ssdtrain/tensor/tensor_id.hpp"

namespace ssdtrain::core {

struct TensorCacheConfig {
  /// Per-step activation bytes to offload; set by the adaptive planner
  /// (Fig. 3 "Set: offload size"). Tensors packed after the budget is
  /// exhausted stay in GPU memory (Alg. 1 line 5).
  util::Bytes offload_budget = std::numeric_limits<util::Bytes>::max();
  /// Alg. 1 line 2: tensors smaller than 2^20 elements pass through.
  std::int64_t min_offload_elements = 1 << 20;
  /// Data forwarding (§III-C2): serve backward from the in-flight store.
  bool forwarding = true;
  /// How many upcoming saved-tensor scopes (leaf modules, in reverse
  /// forward order) to prefetch when entering a module in backward. The
  /// paper notes any scheme that keeps the I/O queue busy is equivalent
  /// (§III-C2); a few modules of lookahead keeps the PCIe link fed without
  /// making reloaded activations resident long before use.
  int prefetch_lookahead = 4;
};

struct TensorCacheStats {
  std::uint64_t packs = 0;
  std::uint64_t unpacks = 0;
  std::uint64_t passthrough_weight = 0;
  std::uint64_t passthrough_cpu = 0;
  std::uint64_t passthrough_small = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t offload_started = 0;
  std::uint64_t kept_budget = 0;
  std::uint64_t kept_backward = 0;
  std::uint64_t kept_scope = 0;
  std::uint64_t kept_offloader_refused = 0;
  /// Store permanently failed under fault injection; tensor kept on GPU.
  std::uint64_t kept_store_failed = 0;
  std::uint64_t forwards = 0;
  std::uint64_t prefetch_loads = 0;
  std::uint64_t miss_loads = 0;
  std::uint64_t wasted_stores = 0;  ///< scope ended before the store finished
  std::uint64_t releases = 0;
  util::Bytes offloaded_bytes = 0;
  util::Bytes kept_bytes = 0;

  /// Field-wise sum (cluster totals).
  TensorCacheStats& operator+=(const TensorCacheStats& o) {
    packs += o.packs;
    unpacks += o.unpacks;
    passthrough_weight += o.passthrough_weight;
    passthrough_cpu += o.passthrough_cpu;
    passthrough_small += o.passthrough_small;
    dedup_hits += o.dedup_hits;
    offload_started += o.offload_started;
    kept_budget += o.kept_budget;
    kept_backward += o.kept_backward;
    kept_scope += o.kept_scope;
    kept_offloader_refused += o.kept_offloader_refused;
    kept_store_failed += o.kept_store_failed;
    forwards += o.forwards;
    prefetch_loads += o.prefetch_loads;
    miss_loads += o.miss_loads;
    wasted_stores += o.wasted_stores;
    releases += o.releases;
    offloaded_bytes += o.offloaded_bytes;
    kept_bytes += o.kept_bytes;
    return *this;
  }
};
// A new field changes the size: add it to operator+=, then bump the count.
static_assert(sizeof(TensorCacheStats) == 19 * 8,
              "TensorCacheStats gained a field: add it to operator+=");

class TensorCache {
 public:
  enum class EntryState : std::uint8_t {
    offloading,  ///< store in flight; strong reference held
    offloaded,   ///< on SSD/host only; weak reference kept
    loading,     ///< load in flight; consumers wait on its completion
    loaded,      ///< back in GPU memory
    kept,        ///< never offloaded (budget / keep scope / backward)
  };

  /// Which of Alg. 1's early-outs a pack took (line 2).
  enum class PassKind : std::uint8_t { weight, cpu, small };

  /// Why a pack kept the tensor in GPU memory (Alg. 1 lines 5-6).
  enum class KeepReason : std::uint8_t { budget, backward, scope };

  /// Constants of one entry: everything the state machine needs besides
  /// the live tensor (interned label, byte/shape metadata, the stable
  /// TensorId the offloader files the extent under). The trace path fills
  /// the cache's own table as it packs; a recorded step keeps a copy that
  /// replay_begin points the cache at.
  struct ReplayEntryInit {
    tensor::TensorId id;
    util::Label label;
    tensor::TensorShape shape;
    tensor::DType dtype = tensor::DType::fp16;
    util::Bytes bytes = 0;
  };

  /// Observer for the step recorder: every pack/unpack/prefetch/release
  /// decision the cache makes during the recorded step is reported here,
  /// with the entry's table index, so runtime::StepRecorder can compile it
  /// into a StepProgram op. Pure observation — the trace path behaves
  /// identically with or without it.
  class TraceRecorder {
   public:
    virtual ~TraceRecorder() = default;
    virtual void cache_pack_passthrough(PassKind kind) = 0;
    virtual void cache_pack_dedup() = 0;
    /// A new entry at table index \p entry (indices count up from 0 each
    /// step), reported before the keep or store that arms it.
    virtual void cache_new_entry(std::uint32_t entry,
                                 const ReplayEntryInit& init) = 0;
    virtual void cache_pack_keep(const tensor::Tensor& t, std::uint32_t entry,
                                 KeepReason reason) = 0;
    /// A store *attempt* (replay re-attempts and handles refusal itself).
    virtual void cache_pack_store(const tensor::Tensor& t,
                                  std::uint32_t entry) = 0;
    virtual void cache_unpack_passthrough() = 0;
    virtual void cache_unpack_entry(std::uint32_t entry,
                                    const tensor::Tensor& result) = 0;
    /// Prefetch window candidates, in trace iteration order (replay
    /// re-checks each candidate's live state, exactly as the trace does).
    virtual void cache_prefetch(std::span<const std::uint32_t> candidates) = 0;
    virtual void cache_release(std::uint32_t entry) = 0;
  };

  TensorCache(sim::Simulator& sim, Offloader& offloader,
              TensorCacheConfig config);
  TensorCache(const TensorCache&) = delete;
  TensorCache& operator=(const TensorCache&) = delete;

  // -- setup (the "few lines added to the training script", §III-A) --------
  /// Records a weight's identifier — and its transpose's — so pack passes
  /// them through (§III-C1).
  void register_weight(const tensor::Tensor& weight);

  /// Installs the four module hooks on every module of \p model and learns
  /// the transformer-layer scopes used for prefetch ordering.
  void install_hooks(modules::Model& model);

  /// The pack/unpack pair to install on the executor.
  [[nodiscard]] const graph::SavedTensorHooks& hooks() const {
    return hooks_;
  }

  // -- scheduler hints (paper Fig. 2 ③④) -----------------------------------
  void on_step_begin();
  void on_micro_batch(int index);
  void on_forward_begin();
  void on_backward_begin();
  /// Module scopes whose activations must stay in GPU memory (the last
  /// module when backward follows immediately, Fig. 2 ④).
  void set_keep_scopes(std::vector<const modules::Module*> scopes);

  // -- record/replay ---------------------------------------------------------
  /// Attaches (or detaches, with nullptr) the step recorder. Active only
  /// while runtime::Executor records a step.
  void set_trace_recorder(TraceRecorder* recorder) { recorder_ = recorder; }

  /// The replay path: the recorded step's decisions, applied to entries by
  /// index into \p inits, which must outlive the replay (the StepProgram
  /// owns it). Each call runs the transition the matching hook would.
  void replay_begin(std::span<const ReplayEntryInit> inits);
  void replay_pack_passthrough(PassKind kind);
  void replay_pack_dedup();
  void replay_pack_keep(std::uint32_t index, const tensor::Tensor& t,
                        KeepReason reason);
  void replay_pack_store(std::uint32_t index, const tensor::Tensor& t);
  void replay_unpack_passthrough();
  [[nodiscard]] tensor::Tensor replay_unpack(std::uint32_t index);
  void replay_prefetch(std::span<const std::uint32_t> candidates);
  void replay_release(std::uint32_t index);

  /// Live state of entry \p index of this step's table (tests).
  [[nodiscard]] EntryState replay_entry_state(std::uint32_t index) const;

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] const TensorCacheStats& stats() const { return stats_; }
  [[nodiscard]] bool is_weight(const tensor::Tensor& t) const;
  [[nodiscard]] bool in_backward() const { return in_backward_; }
  [[nodiscard]] int current_micro_batch() const { return current_mb_; }
  /// Entries packed this step and not yet released.
  [[nodiscard]] std::size_t tracked_entries() const;
  [[nodiscard]] const TensorCacheConfig& config() const { return config_; }

  /// Rebalances the offload budget mid-run (sessions call this after a
  /// structural fault degrades the SSD array's sustainable bandwidth).
  /// Takes effect from the next pack decision.
  void set_offload_budget(util::Bytes budget) {
    config_.offload_budget = budget;
  }
  /// Live state of a tracked tensor (tests).
  [[nodiscard]] EntryState entry_state(const tensor::TensorId& id) const;

 private:
  /// The live state of one entry; its constants sit at the same index of
  /// inits_. A released entry is default-constructed, so re-arming it on
  /// the next step needs no reset.
  struct Entry {
    EntryState state = EntryState::kept;
    tensor::Tensor strong;
    tensor::WeakTensor weak;
    sim::CompletionPtr store_done;
    bool forwarded = false;
    bool stored = false;  ///< an offloaded copy exists (or is being written)
    bool released = true;  ///< not packed yet this step, or released
  };

  /// The trace path's handle on a live entry: its table index and the
  /// module scopes that saved it (Alg. 1 line 4); the entry is released
  /// once all of them have finished their backward.
  struct Tracked {
    std::uint32_t index = 0;
    std::set<const modules::Module*> scopes;
  };

  /// One leaf scope's saves, in forward order — the prefetch unit.
  struct SequenceSlot {
    const modules::Module* scope = nullptr;
    std::vector<std::uint32_t> entries;
  };

  struct Record {
    std::map<tensor::TensorId, Tracked> entries;  ///< live entries only
    std::vector<SequenceSlot> sequence;  ///< leaf scopes in forward order
    /// Remaining forward occurrences per scope; backward consumes them in
    /// reverse to locate its position in the sequence.
    std::map<const modules::Module*, std::vector<std::size_t>> positions;
    util::Bytes offloaded_bytes = 0;
  };

  graph::PackedValue pack(const tensor::Tensor& t);
  tensor::Tensor unpack(const graph::PackedValue& value);

  void on_forward_pre(modules::Module& m);
  void on_forward_post(modules::Module& m);
  void on_backward_pre(modules::Module& m);
  void on_backward_post(modules::Module& m);

  Record& record();
  /// Prefetches the slots preceding sequence position \p position.
  void prefetch_before(std::size_t position);
  /// Removes \p m from every entry's scope set; releases drained entries.
  void retire_scope(const modules::Module& m);
  [[nodiscard]] bool in_keep_scope() const;

  // -- the entry state machine, shared by both paths ------------------------
  /// Appends a trace-path entry (constants and unarmed state).
  std::uint32_t add_entry(const tensor::Tensor& t, const tensor::TensorId& id);
  /// Entry \p index if packed this step and not released, else null. The
  /// store, reload and load closures look their entry up here: they may
  /// fire after it was released or its step retired the table. (Sessions
  /// drain a step's I/O before the next step packs, so an index never
  /// names a newer entry by then.)
  Entry* live_entry(std::uint32_t index);
  Entry& arm(std::uint32_t index);
  void count_passthrough(PassKind kind);
  void keep(std::uint32_t index, const tensor::Tensor& t, KeepReason reason);
  /// Starts the store; on refusal keeps the tensor and returns false.
  bool store(std::uint32_t index, const tensor::Tensor& t);
  void finish_store(std::uint32_t index);
  tensor::Tensor unpack_entry(std::uint32_t index);
  void start_load(std::uint32_t index);
  void prefetch(std::span<const std::uint32_t> candidates);
  void release(std::uint32_t index);

  sim::Simulator& sim_;
  Offloader& offloader_;
  TensorCacheConfig config_;
  graph::SavedTensorHooks hooks_;
  tensor::IdAssigner ids_;
  std::set<tensor::TensorId> weight_ids_;
  std::set<const modules::Module*> layer_set_;
  std::vector<const modules::Module*> scope_stack_;
  std::vector<const modules::Module*> layer_scope_stack_;
  std::set<const modules::Module*> keep_scopes_;
  std::map<int, Record> records_;
  int current_mb_ = 0;
  bool in_backward_ = false;
  TensorCacheStats stats_;

  TraceRecorder* recorder_ = nullptr;
  std::vector<std::uint32_t> prefetch_scratch_;
  /// The entry table: constants (the trace path's own, or the replayed
  /// program's) and live state, always the same length. inits_ is
  /// re-pointed after every append, as the vector may move.
  std::vector<ReplayEntryInit> traced_inits_;
  std::span<const ReplayEntryInit> inits_;
  std::vector<Entry> entries_;
};

}  // namespace ssdtrain::core
