#include "ssdtrain/core/tensor_cache.hpp"

#include <algorithm>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/logging.hpp"
#include "ssdtrain/util/unique_function.hpp"

namespace ssdtrain::core {

using tensor::Tensor;
using tensor::TensorId;

namespace {
/// Entries the table holds before it first regrows. A replayed step sizes
/// the table from its program; a traced step appends entry by entry, and
/// this keeps the paper's configurations (tens to a few hundred entries
/// per step) from reallocating it while the step runs.
constexpr std::size_t kTableCapacity = 1024;
}  // namespace

TensorCache::TensorCache(sim::Simulator& sim, Offloader& offloader,
                         TensorCacheConfig config)
    : sim_(sim), offloader_(offloader), config_(config) {
  hooks_.pack = [this](const Tensor& t) { return pack(t); };
  hooks_.unpack = [this](const graph::PackedValue& v) { return unpack(v); };
  traced_inits_.reserve(kTableCapacity);
  entries_.reserve(kTableCapacity);
}

void TensorCache::register_weight(const tensor::Tensor& weight) {
  util::expects(weight.defined(), "undefined weight");
  weight_ids_.insert(ids_.get_id(weight));
  // Linear layers register W^T on the graph (paper §III-C1): the transpose
  // shares the storage (and thus the stamp), so its id is stable too.
  if (weight.shape().rank() >= 2) {
    weight_ids_.insert(ids_.get_id(weight.transpose_view()));
  }
}

void TensorCache::install_hooks(modules::Model& model) {
  for (modules::Module* layer : model.transformer_layers()) {
    layer_set_.insert(layer);
  }
  model.visit_modules([this](modules::Module& m) {
    m.register_forward_pre_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_forward_pre(mod);
        });
    m.register_forward_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_forward_post(mod);
        });
    m.register_backward_pre_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_backward_pre(mod);
        });
    m.register_backward_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_backward_post(mod);
        });
  });
}

bool TensorCache::is_weight(const tensor::Tensor& t) const {
  if (!tensor::IdAssigner::is_stamped(t)) return false;
  // Reconstruct the id without stamping: storage already carries the stamp.
  const TensorId id{*t.storage()->id_stamp(), t.shape().hash()};
  return weight_ids_.contains(id);
}

void TensorCache::on_step_begin() {
  const std::size_t leaked = tracked_entries();
  if (leaked > 0) {
    util::log_warning("tensor cache: " + std::to_string(leaked) +
                      " entries leaked across step boundary");
  }
  records_.clear();
  entries_.clear();
  traced_inits_.clear();
  inits_ = traced_inits_;
  current_mb_ = 0;
  in_backward_ = false;
}

void TensorCache::on_micro_batch(int index) {
  // Fig. 2 ②: switch to the record of the new micro-batch.
  current_mb_ = index;
}

void TensorCache::on_forward_begin() { in_backward_ = false; }

void TensorCache::on_backward_begin() { in_backward_ = true; }

void TensorCache::set_keep_scopes(
    std::vector<const modules::Module*> scopes) {
  keep_scopes_.clear();
  for (const auto* m : scopes) keep_scopes_.insert(m);
}

std::size_t TensorCache::tracked_entries() const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(),
      [](const Entry& e) { return !e.released; }));
}

TensorCache::EntryState TensorCache::entry_state(const TensorId& id) const {
  auto rec_it = records_.find(current_mb_);
  util::expects(rec_it != records_.end(), "no record for micro-batch");
  auto it = rec_it->second.entries.find(id);
  util::expects(it != rec_it->second.entries.end(), "unknown entry");
  return entries_[it->second.index].state;
}

TensorCache::Record& TensorCache::record() { return records_[current_mb_]; }

bool TensorCache::in_keep_scope() const {
  // Keep scopes may sit at any level of the module tree (the paper keeps
  // the last module before backward — in practice the final MLP block).
  for (const auto* m : scope_stack_) {
    if (keep_scopes_.contains(m)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// pack (Alg. 1, lines 1-8)
// ---------------------------------------------------------------------------

graph::PackedValue TensorCache::pack(const Tensor& t) {
  ++stats_.packs;
  // Line 2: weights, CPU tensors, and small tensors are registered as-is.
  const bool weight = is_weight(t);
  if (weight || t.is_cpu() || t.numel() < config_.min_offload_elements) {
    const PassKind kind = weight       ? PassKind::weight
                          : t.is_cpu() ? PassKind::cpu
                                       : PassKind::small;
    count_passthrough(kind);
    if (recorder_ != nullptr) recorder_->cache_pack_passthrough(kind);
    return t;
  }

  const TensorId id = ids_.get_id(t);  // line 3
  Record& rec = record();
  const modules::Module* scope =
      scope_stack_.empty() ? nullptr : scope_stack_.back();

  if (auto it = rec.entries.find(id); it != rec.entries.end()) {
    // Duplicate registration of the same tensor (e.g. the attention output
    // saved by both the flash core and the projection): extend the scope
    // list, do not issue more I/O (§III-C1).
    ++stats_.dedup_hits;
    if (scope != nullptr) it->second.scopes.insert(scope);  // line 4
    if (recorder_ != nullptr) recorder_->cache_pack_dedup();
    return id;
  }

  const std::uint32_t index = add_entry(t, id);
  Tracked& tracked = rec.entries[id];
  tracked.index = index;
  if (scope != nullptr) {
    tracked.scopes.insert(scope);
    // Record the save in the forward scope sequence (prefetch order).
    if (rec.sequence.empty() || rec.sequence.back().scope != scope) {
      rec.positions[scope].push_back(rec.sequence.size());
      rec.sequence.push_back(SequenceSlot{scope, {}});
    }
    rec.sequence.back().entries.push_back(index);
  }

  const bool budget_reached =
      rec.offloaded_bytes + t.bytes() > config_.offload_budget;  // line 5
  if (budget_reached || in_backward_ || in_keep_scope()) {
    const KeepReason reason = budget_reached ? KeepReason::budget
                              : in_backward_ ? KeepReason::backward
                                             : KeepReason::scope;
    keep(index, t, reason);  // line 6
    if (recorder_ != nullptr) recorder_->cache_pack_keep(t, index, reason);
    return id;
  }

  // Line 7: offload. The recorder sees the *attempt*: replay re-attempts
  // and takes whichever branch the offloader's live state dictates.
  if (recorder_ != nullptr) recorder_->cache_pack_store(t, index);
  if (store(index, t)) rec.offloaded_bytes += t.bytes();
  return id;  // line 8
}

// ---------------------------------------------------------------------------
// unpack (Alg. 1, lines 9-12)
// ---------------------------------------------------------------------------

Tensor TensorCache::unpack(const graph::PackedValue& value) {
  ++stats_.unpacks;
  if (std::holds_alternative<Tensor>(value)) {
    if (recorder_ != nullptr) recorder_->cache_unpack_passthrough();
    return std::get<Tensor>(value);  // line 10
  }
  const Record& rec = record();
  auto it = rec.entries.find(std::get<TensorId>(value));
  util::expects(it != rec.entries.end(),
                "unpack of unknown tensor id (record mismatch?)");
  const std::uint32_t index = it->second.index;
  Tensor result = unpack_entry(index);  // line 11
  if (recorder_ != nullptr) recorder_->cache_unpack_entry(index, result);
  return result;
}

// ---------------------------------------------------------------------------
// module hooks
// ---------------------------------------------------------------------------

void TensorCache::on_forward_pre(modules::Module& m) {
  scope_stack_.push_back(&m);
  if (layer_set_.contains(&m)) {
    layer_scope_stack_.push_back(&m);
  }
}

void TensorCache::on_forward_post(modules::Module& m) {
  util::expects(!scope_stack_.empty() && scope_stack_.back() == &m,
                "scope stack corrupted in forward");
  scope_stack_.pop_back();
  if (!layer_scope_stack_.empty() && layer_scope_stack_.back() == &m) {
    layer_scope_stack_.pop_back();
  }
}

void TensorCache::on_backward_pre(modules::Module& m) {
  scope_stack_.push_back(&m);
  if (layer_set_.contains(&m)) {
    layer_scope_stack_.push_back(&m);
  }
  // Entering a module in backward: prefetch activations of upcoming modules
  // (reverse of the recorded forward order), §III-C2. Backward visits
  // scopes in reverse, so each visit consumes this scope's last remaining
  // forward position.
  Record& rec = record();
  auto pos_it = rec.positions.find(&m);
  if (pos_it != rec.positions.end() && !pos_it->second.empty()) {
    const std::size_t position = pos_it->second.back();
    pos_it->second.pop_back();
    prefetch_before(position);
  }
}

void TensorCache::on_backward_post(modules::Module& m) {
  util::expects(!scope_stack_.empty() && scope_stack_.back() == &m,
                "scope stack corrupted in backward");
  scope_stack_.pop_back();
  if (!layer_scope_stack_.empty() && layer_scope_stack_.back() == &m) {
    layer_scope_stack_.pop_back();
  }
  retire_scope(m);
}

void TensorCache::prefetch_before(std::size_t position) {
  const Record& rec = record();
  // The recorder gets the whole candidate window (replay re-applies the
  // released/offloaded checks per candidate, so the op carries candidates,
  // not the loads the recorded step happened to take). Loads emit no ops,
  // so reporting the window after them lands the prefetch op at the same
  // op-stream position.
  prefetch_scratch_.clear();
  std::size_t index = position;
  for (int depth = 0; depth < config_.prefetch_lookahead && index > 0;
       ++depth) {
    --index;
    const auto& entries = rec.sequence[index].entries;
    prefetch_scratch_.insert(prefetch_scratch_.end(), entries.begin(),
                             entries.end());
  }
  prefetch(prefetch_scratch_);
  if (recorder_ != nullptr && !prefetch_scratch_.empty()) {
    recorder_->cache_prefetch(prefetch_scratch_);
  }
}

void TensorCache::retire_scope(const modules::Module& m) {
  Record& rec = record();
  for (auto it = rec.entries.begin(); it != rec.entries.end();) {
    it->second.scopes.erase(&m);
    if (!it->second.scopes.empty()) {
      ++it;
      continue;
    }
    const std::uint32_t index = it->second.index;
    it = rec.entries.erase(it);
    if (recorder_ != nullptr) recorder_->cache_release(index);
    release(index);
  }
}

// ---------------------------------------------------------------------------
// replay — the recorded decisions, applied by entry index
// ---------------------------------------------------------------------------

void TensorCache::replay_begin(std::span<const ReplayEntryInit> inits) {
  on_step_begin();
  inits_ = inits;
  entries_.resize(inits.size());
}

void TensorCache::replay_pack_passthrough(PassKind kind) {
  ++stats_.packs;
  count_passthrough(kind);
}

void TensorCache::replay_pack_dedup() {
  ++stats_.packs;
  ++stats_.dedup_hits;
}

void TensorCache::replay_pack_keep(std::uint32_t index, const Tensor& t,
                                   KeepReason reason) {
  ++stats_.packs;
  keep(index, t, reason);
}

void TensorCache::replay_pack_store(std::uint32_t index, const Tensor& t) {
  ++stats_.packs;
  store(index, t);
}

void TensorCache::replay_unpack_passthrough() { ++stats_.unpacks; }

Tensor TensorCache::replay_unpack(std::uint32_t index) {
  ++stats_.unpacks;
  return unpack_entry(index);
}

void TensorCache::replay_prefetch(std::span<const std::uint32_t> candidates) {
  prefetch(candidates);
}

void TensorCache::replay_release(std::uint32_t index) { release(index); }

TensorCache::EntryState TensorCache::replay_entry_state(
    std::uint32_t index) const {
  util::expects(index < entries_.size(), "cache entry out of range");
  return entries_[index].state;
}

// ---------------------------------------------------------------------------
// the entry state machine
// ---------------------------------------------------------------------------

std::uint32_t TensorCache::add_entry(const Tensor& t, const TensorId& id) {
  const auto index = static_cast<std::uint32_t>(entries_.size());
  traced_inits_.push_back(
      ReplayEntryInit{id, t.label(), t.shape(), t.dtype(), t.bytes()});
  inits_ = traced_inits_;
  entries_.emplace_back();
  if (recorder_ != nullptr) recorder_->cache_new_entry(index, inits_[index]);
  return index;
}

TensorCache::Entry* TensorCache::live_entry(std::uint32_t index) {
  if (index >= entries_.size() || entries_[index].released) return nullptr;
  return &entries_[index];
}

TensorCache::Entry& TensorCache::arm(std::uint32_t index) {
  Entry& e = entries_[index];
  util::expects(e.released, "cache entry packed twice");
  e.released = false;
  return e;
}

void TensorCache::count_passthrough(PassKind kind) {
  switch (kind) {
    case PassKind::weight:
      ++stats_.passthrough_weight;
      break;
    case PassKind::cpu:
      ++stats_.passthrough_cpu;
      break;
    case PassKind::small:
      ++stats_.passthrough_small;
      break;
  }
}

void TensorCache::keep(std::uint32_t index, const Tensor& t,
                       KeepReason reason) {
  switch (reason) {
    case KeepReason::budget:
      ++stats_.kept_budget;
      break;
    case KeepReason::backward:
      ++stats_.kept_backward;
      break;
    case KeepReason::scope:
      ++stats_.kept_scope;
      break;
  }
  stats_.kept_bytes += inits_[index].bytes;
  Entry& e = arm(index);
  e.state = EntryState::kept;
  e.strong = t;
}

bool TensorCache::store(std::uint32_t index, const Tensor& t) {
  const ReplayEntryInit& init = inits_[index];
  Entry& e = arm(index);
  auto store_done = offloader_.store(init.id, t, t.storage()->ready_event());
  if (!store_done) {
    // Offloader refused (e.g. pinned pool exhausted): fall back to keeping.
    ++stats_.kept_offloader_refused;
    stats_.kept_bytes += init.bytes;
    e.state = EntryState::kept;
    e.strong = t;
    return false;
  }

  ++stats_.offload_started;
  stats_.offloaded_bytes += init.bytes;
  e.state = EntryState::offloading;
  e.stored = true;
  e.strong = t;  // held until the store completes
  e.weak = tensor::WeakTensor(t);
  e.store_done = *store_done;
  (*store_done)->add_waiter([this, index]() { finish_store(index); });
  return true;
}

void TensorCache::finish_store(std::uint32_t index) {
  Entry* e = live_entry(index);
  if (e == nullptr) return;  // released mid-store, or its step retired
  if (e->state != EntryState::offloading) return;
  const ReplayEntryInit& init = inits_[index];
  if (offloader_.store_status(init.id)) {
    // Store permanently failed (degradation ladder: keep on GPU). The
    // strong reference was never dropped, so the tensor is still resident;
    // reclaim the dead offloader slot now so the same id can be stored
    // again on a later step, and clear `stored` so release doesn't release
    // it a second time.
    ++stats_.kept_store_failed;
    stats_.kept_bytes += init.bytes;
    e->state = EntryState::loaded;
    e->stored = false;
    offloader_.release(init.id);
    return;
  }
  if (e->forwarded) {
    // Data forwarding already handed the in-memory reference to backward;
    // the tensor is both resident and on SSD.
    e->state = EntryState::loaded;
  } else {
    // The paper's GC point: once offloading finishes the cache no longer
    // holds a reference, so Python (here: shared_ptr) reclaims the GPU
    // memory.
    e->state = EntryState::offloaded;
    e->strong.reset();
  }
}

Tensor TensorCache::unpack_entry(std::uint32_t index) {
  Entry& e = entries_[index];
  util::expects(!e.released, "unpack of a released cache entry");
  switch (e.state) {
    case EntryState::kept:
    case EntryState::loaded:
      util::check(e.strong.defined(), "kept entry lost its tensor");
      return e.strong;

    case EntryState::offloading: {
      // Data forwarding (§III-C2): the tensor is still in GPU memory while
      // the store drains; hand back the in-memory reference instead of
      // waiting for a round trip. The reference recovered from the weak
      // reference is stored for use by other scopes.
      if (config_.forwarding) {
        ++stats_.forwards;
        e.forwarded = true;
        Tensor strong = e.weak.lock();
        util::check(strong.defined(), "in-flight store lost its tensor");
        e.strong = strong;
        return strong;
      }
      // Forwarding disabled (ablation): serialise — wait for the store,
      // then read the data back; consumers gate on the reload completion.
      static const util::Label kSyncReload("sync-reload");
      const TensorId& id = inits_[index].id;
      auto reloaded = sim::Completion::create(
          sim_, util::Label::tagged(kSyncReload, id.stamp, id.shape_key));
      // The closure captures a CompletionPtr; relocatable() keeps it on the
      // memcpy lane through the waiter chain and event ring.
      e.store_done->add_waiter(util::relocatable([this, index, reloaded]() {
        // The consuming scope may already have retired the entry by the
        // time the store drains (its kernels are gated regardless); in that
        // case the reload is moot — just unblock the consumers.
        Entry* entry = live_entry(index);
        if (entry == nullptr) {
          reloaded->fire();
          return;
        }
        const ReplayEntryInit& init = inits_[index];
        auto ticket = offloader_.load(
            init.id, util::Label::suffixed(init.label, ".reload"), init.shape,
            init.dtype);
        entry->strong = ticket.tensor;  // keep the reloaded copy alive
        ticket.done->add_waiter(
            util::relocatable([reloaded]() { reloaded->fire(); }));
      }));
      ++stats_.miss_loads;
      Tensor gated = e.weak.lock();
      util::check(gated.defined(), "in-flight store lost its tensor");
      gated.storage()->set_ready_event(reloaded);
      e.strong = gated;
      return gated;
    }

    case EntryState::offloaded:
      // Prefetch miss: start the load now; the consumer kernels wait on the
      // load completion through the tensor's ready event (line 11,
      // load_or_wait_load).
      ++stats_.miss_loads;
      start_load(index);
      return e.strong;

    case EntryState::loading:
      util::check(e.strong.defined(), "loading entry lost its tensor");
      return e.strong;  // ready event still pending: consumers wait
  }
  util::unreachable("corrupt entry state");
}

void TensorCache::start_load(std::uint32_t index) {
  const ReplayEntryInit& init = inits_[index];
  auto ticket =
      offloader_.load(init.id, util::Label::suffixed(init.label, ".reload"),
                      init.shape, init.dtype);
  Entry& e = entries_[index];
  e.state = EntryState::loading;
  e.strong = ticket.tensor;
  ticket.done->add_waiter([this, index]() {
    Entry* entry = live_entry(index);
    if (entry != nullptr && entry->state == EntryState::loading) {
      entry->state = EntryState::loaded;
    }
  });
}

void TensorCache::prefetch(std::span<const std::uint32_t> candidates) {
  for (std::uint32_t index : candidates) {
    const Entry& e = entries_[index];
    if (e.released) continue;  // scope retired before this prefetch point
    if (e.state == EntryState::offloaded) {
      ++stats_.prefetch_loads;
      start_load(index);
    }
  }
}

void TensorCache::release(std::uint32_t index) {
  Entry& e = entries_[index];
  util::expects(!e.released, "cache entry released twice");
  ++stats_.releases;
  if (e.state == EntryState::offloading) {
    ++stats_.wasted_stores;
  }
  if (e.stored) {
    // Deferred internally if a store is in flight.
    offloader_.release(inits_[index].id);
  }
  e = Entry{};  // last cache reference: GPU memory reclaimable
}

}  // namespace ssdtrain::core
