#include "ssdtrain/runtime/program_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/program_serdes.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/util/logging.hpp"

namespace ssdtrain::runtime {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = kFnvBasis;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Canonical key-text builder. Doubles are rendered as C hexfloats ("%a"),
/// which round-trip exactly — two configs differing in the 17th significant
/// digit of a bandwidth must not share a key.
class KeyText {
 public:
  void field(std::string_view name, std::string_view value) {
    out_ << name << '=' << value << ';';
  }
  void field(std::string_view name, const std::string& value) {
    out_ << name << '=' << value << ';';
  }
  void field(std::string_view name, const char* value) {
    out_ << name << '=' << value << ';';
  }
  void field(std::string_view name, bool value) {
    out_ << name << '=' << (value ? 1 : 0) << ';';
  }
  void field(std::string_view name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    out_ << name << '=' << buf << ';';
  }
  template <typename Int>
    requires std::is_integral_v<Int>
  void field(std::string_view name, Int value) {
    out_ << name << '=' << static_cast<long long>(value) << ';';
  }
  void open(std::string_view name) { out_ << name << '{'; }
  void close() { out_ << '}'; }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

void append_workload(KeyText& key, const workload::WorkloadSpec& spec) {
  key.open("workload");
  key.field("decoder_only", spec.decoder_only);
  key.field("stage_slice", spec.stage_slice);
  for (const workload::LayerSpec& group : spec.layers) {
    key.open("group");
    key.field("label", group.label);
    key.field("count", group.count);
    key.field("causal", group.attention.causal);
    key.field("kv_heads", group.attention.kv_heads);
    key.field("cross", group.attention.cross_attention);
    key.field("flash",
              group.attention.flash.has_value()
                  ? (*group.attention.flash ? "1" : "0")
                  : "inherit");
    key.field("experts", group.ffn.num_experts);
    key.field("top_k", group.ffn.top_k);
    key.field("capacity", group.ffn.capacity_factor);
    key.field("ep", group.ffn.expert_parallel);
    key.close();
  }
  key.close();
}

void append_model(KeyText& key, const modules::ModelConfig& model) {
  key.open("model");
  key.field("name", model.name);
  key.field("hidden", model.hidden);
  key.field("layers", model.layers);
  key.field("heads", model.heads);
  key.field("seq", model.seq);
  key.field("vocab", model.vocab);
  key.field("micro_batch", model.micro_batch);
  key.field("flash", model.flash_attention);
  key.field("dropout", model.dropout);
  append_workload(key, model.workload);
  key.close();
}

void append_parallel(KeyText& key, const parallel::ParallelConfig& parallel) {
  key.open("parallel");
  key.field("tp", parallel.tensor_parallel);
  key.field("pp", parallel.pipeline_parallel);
  key.field("dp", parallel.data_parallel);
  key.field("zero", static_cast<int>(parallel.zero));
  key.field("seq_par", parallel.sequence_parallel);
  key.close();
}

void append_node(KeyText& key, const hw::NodeConfig& node) {
  key.open("node");
  key.open("gpu");
  key.field("name", node.gpu.name);
  key.field("fp16_peak", node.gpu.fp16_peak);
  key.field("hbm_bw", node.gpu.hbm_bandwidth);
  key.field("hbm_eff", node.gpu.hbm_efficiency);
  key.field("memory", node.gpu.memory_capacity);
  key.field("launch", node.gpu.kernel_launch_latency);
  key.field("max_eff", node.gpu.max_efficiency);
  key.field("half_eff_flops", node.gpu.half_efficiency_flops);
  key.close();
  key.field("gpu_count", node.gpu_count);
  key.open("pcie");
  key.field("gen", static_cast<int>(node.pcie.generation));
  key.field("lanes", node.pcie.lanes);
  key.field("eff", node.pcie.protocol_efficiency);
  key.close();
  key.field("host_memory", node.host_memory);
  key.field("dram_bw", node.dram_bandwidth);
  key.field("nvlink_bw", node.nvlink_bandwidth);
  key.field("pinned_pool", node.pinned_pool_size);
  for (const std::vector<hw::SsdSpec>& array : node.arrays) {
    key.open("array");
    for (const hw::SsdSpec& ssd : array) {
      key.open("ssd");
      key.field("name", ssd.name);
      key.field("capacity", ssd.capacity);
      key.field("write_bw", ssd.seq_write_bandwidth);
      key.field("read_bw", ssd.seq_read_bandwidth);
      key.field("dwpd", ssd.dwpd);
      key.field("warranty", ssd.warranty_years);
      key.field("cell", static_cast<int>(ssd.cell_type));
      key.field("op", ssd.over_provisioning);
      key.field("page", ssd.sim_page_size);
      key.field("ppb", ssd.pages_per_block);
      key.close();
    }
    key.close();
  }
  key.close();
}

void append_faults(KeyText& key, const fault::FaultConfig& faults,
                   const core::OffloadFaultPolicy& policy) {
  key.open("faults");
  key.field("seed", faults.seed);
  for (const fault::FaultSpec& spec : faults.specs) {
    key.field("spec", spec.to_text());
  }
  key.close();
  key.open("fault_policy");
  key.field("attempts", policy.max_attempts);
  key.field("backoff", policy.initial_backoff);
  key.field("multiplier", policy.backoff_multiplier);
  key.field("timeout", policy.attempt_timeout);
  key.field("recompute", policy.recompute_seconds_per_byte);
  key.close();
}

void append_schedule(KeyText& key,
                     const std::vector<sched::Command>& schedule) {
  key.open("schedule");
  for (const sched::Command& command : schedule) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%d:%d:%d", static_cast<int>(command.kind),
                  command.micro_batch, command.chunk);
    key.field("cmd", buf);
  }
  key.close();
}

// The SSDTrain knobs SessionConfig and ClusterConfig share.
void append_knobs(KeyText& key, const TrainingConfig& config) {
  key.open("knobs");
  key.field("use_gds", config.use_gds);
  key.field("forwarding", config.forwarding);
  key.field("lookahead", config.prefetch_lookahead);
  key.field("malloc_hook", config.install_malloc_hook);
  key.field("store_workers", config.store_workers);
  key.field("load_workers", config.load_workers);
  key.field("budget", config.budget_override.has_value()
                          ? std::to_string(*config.budget_override)
                          : std::string("auto"));
  key.close();
}

}  // namespace

ProgramKey ProgramKey::from_text(std::string text) {
  ProgramKey key;
  key.hash = fnv1a(text);
  key.text = std::move(text);
  return key;
}

ProgramKey session_program_key(const SessionConfig& config) {
  KeyText key;
  key.open("session");
  append_model(key, config.model);
  append_parallel(key, config.parallel);
  append_node(key, config.node);
  key.field("gpu_index", config.gpu_index);
  key.field("strategy", to_string(config.strategy));
  key.field("micro_batches", config.micro_batches);
  append_knobs(key, config);
  append_faults(key, config.faults, config.fault_policy);
  key.close();
  return ProgramKey::from_text(key.str());
}

ProgramKey stage_program_key(
    const ClusterConfig& config, const hw::NodeConfig& node, int virtual_stage,
    const std::vector<sched::Command>& compute_schedule) {
  KeyText key;
  key.open("cluster_stage");
  append_model(key, config.model);
  append_parallel(key, config.parallel);
  append_node(key, node);
  key.field("ssds_per_gpu", config.ssds_per_gpu);
  key.field("strategy", to_string(config.strategy));
  key.field("micro_batches", config.micro_batches);
  key.field("pipeline", static_cast<int>(config.schedule));
  key.field("virtual_stages", config.virtual_stages);
  key.field("virtual_stage", virtual_stage);
  key.field("hop_latency", config.fabric_hop_latency);
  key.field("dp_fabric_bw", config.dp_fabric_bandwidth);
  key.field("zero_offload_opt", config.zero_offload_optimizer);
  append_schedule(key, compute_schedule);
  append_knobs(key, config);
  append_faults(key, config.faults, config.fault_policy);
  key.close();
  return ProgramKey::from_text(key.str());
}

ProgramCache::ProgramCache(ProgramCacheConfig config)
    : directory_(std::move(config.directory)) {}

std::string ProgramCache::entry_path(const ProgramKey& key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "prog-%016llx.sprog",
                static_cast<unsigned long long>(key.hash));
  return directory_ + "/" + name;
}

std::shared_ptr<const StepProgram> ProgramCache::lookup(
    const ProgramKey& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = memory_.find(key.text);
    if (it != memory_.end()) {
      ++stats_.memory_hits;
      return it->second;
    }
  }
  if (!directory_.empty()) {
    std::ifstream in(entry_path(key), std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string data = buffer.str();
      auto program = std::make_shared<StepProgram>();
      std::string reason;
      if (deserialize_program(data, key.text, *program, &reason)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_hits;
        // Another thread may have raced a store in; the deserialized copy
        // is equivalent, keep whichever landed first.
        auto [it, inserted] = memory_.emplace(key.text, std::move(program));
        return it->second;
      }
      util::log_warning("program cache: ignoring " + entry_path(key) + " (" +
                        reason + "); re-tracing");
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.disk_rejects;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  return nullptr;
}

void ProgramCache::store(const ProgramKey& key,
                         std::shared_ptr<const StepProgram> program) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    memory_[key.text] = program;
    ++stats_.stores;
  }
  if (directory_.empty()) return;
  static std::atomic<std::uint64_t> counter{0};
  const std::string path = entry_path(key);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "/tmp-%016llx-%lld-%llu",
                static_cast<unsigned long long>(key.hash),
                static_cast<long long>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  const std::string tmp_path = directory_ + suffix;
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  const std::string data = serialize_program(*program, key.text);
  bool written = false;
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (out) {
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
      out.flush();
      written = out.good();
    }
  }
  if (written) {
    // Atomic publish: readers see either no file or the complete file.
    std::filesystem::rename(tmp_path, path, ec);
    if (ec) written = false;
  }
  if (!written) {
    std::filesystem::remove(tmp_path, ec);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_errors;
  }
}

ProgramCacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace ssdtrain::runtime
