// perfbench: the repository benchmark.
//
// Runs one named workload as a closed loop — one session on one thread,
// each run_step() issued only after the previous one returned — for a
// host-time budget, checks every simulated step against the reference
// recorded from this code, and prints the end-to-end metrics (untraced
// binary) or the per-layer metrics (traced binary, see spans.hpp). The last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Work is organised in rounds. A round builds a fresh session, runs its
// first step (the trace/record step, or the program-cache load), then a
// fixed number of measured steps. A round's simulated work is therefore
// fixed in steps — the SSDs' fill state never depends on host speed — and
// every round of one run must reproduce round 0 bit for bit. Rounds repeat
// until the next one would overrun --seconds.
//
//   perfbench --workload W --seed N --seconds S --reference FILE
//             [--work-dir DIR] [--trace-out FILE] [--baseline-sps X]
//   perfbench --workload W --write-reference FILE [--work-dir DIR]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "spans.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/session.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Counting overrides for alloc.per_step (the technique bench_step_replay
// uses): every heap allocation in the process ticks g_allocs.
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

namespace f = ssdtrain::fault;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sp = perfbench::spans;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { ssd_offload, keep_replay, pp4_ckpt };

struct Workload {
  Kind kind;
  const char* name;
  /// Measured run_step calls per round, after the setup step.
  int measured_steps;
};

// ssd-offload: 24 steps write ~240 GiB per round, far from the ~650 steps
// after which garbage collection starts on fresh drives.
// keep-replay: ~0.7 s of replay per round on a 4-core host.
// pp4-ckpt: 58 calls hold two crashes, one per 29 steps (see CrashPlan).
constexpr std::array<Workload, 3> kWorkloads = {{
    {Kind::ssd_offload, "ssd-offload", 24},
    {Kind::keep_replay, "keep-replay", 20000},
    {Kind::pp4_ckpt, "pp4-ckpt", 58},
}};

constexpr int kCheckpointEvery = 8;
/// Setups measured per run even when few rounds fit (setup_s is a median).
constexpr int kMinSetups = 5;

rt::SessionConfig single_config(Kind kind) {
  rt::SessionConfig config;
  config.parallel.tensor_parallel = 2;
  if (kind == Kind::ssd_offload) {
    config.model = m::bert_config(8192, 4, 16);
    config.strategy = rt::Strategy::ssdtrain;
  } else {
    config.model = m::bert_config(4096, 4, 4);
    config.strategy = rt::Strategy::keep_in_gpu;
  }
  return config;
}

/// Inert arming spec, as in bench_checkpoint: the injector must exist for
/// trigger(), and a window that closes at 1 ns perturbs nothing.
f::FaultSpec inert_arming_spec() {
  f::FaultSpec arm;
  arm.kind = f::FaultKind::ssd_latency;
  arm.latency = 1e-9;
  arm.at = 0.0;
  arm.duration = 1e-9;
  return arm;
}

rt::ClusterConfig cluster_config(std::uint64_t fault_seed) {
  rt::ClusterConfig config;
  config.model = m::bert_config(2048, 8, 4);
  config.parallel.pipeline_parallel = 4;
  config.parallel.tensor_parallel = 2;
  config.parallel.data_parallel = 2;
  config.parallel.zero = ssdtrain::parallel::ZeroStage::stage2;
  config.micro_batches = 8;
  config.schedule = ssdtrain::sched::PipelineKind::one_f_one_b;
  config.strategy = rt::Strategy::ssdtrain;
  config.checkpoint.every_steps = kCheckpointEvery;
  config.faults.specs = {inert_arming_spec()};
  config.faults.seed = fault_seed;
  return config;
}

/// pp4-ckpt's seeded input: two destructive (lose=state) stage crashes per
/// round, each triggered at the step boundary where the logical step count
/// reaches `logical`. A crash there rolls back `(logical % 8) + 1` steps.
/// The two crashes are antithetic — their rollbacks sum to 9 — so the seed
/// moves where crashes land and which stage dies, while the rolled-back
/// work per round, and with it sim_goodput, stays comparable across seeds.
struct Crash {
  std::int64_t logical = 0;
  int gpu = 0;
  std::int64_t rollback = 0;
};

struct CrashPlan {
  std::uint64_t fault_seed = 0;
  std::vector<Crash> crashes;
};

CrashPlan plan_crashes(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  CrashPlan plan;
  plan.fault_seed = rng();
  const auto draw = [&rng](std::uint64_t n) {
    return static_cast<std::int64_t>(rng() % n);
  };
  const std::int64_t r1 = 1 + draw(kCheckpointEvery);
  const std::int64_t r2 = kCheckpointEvery + 1 - r1;
  // Commit intervals 1-2 for the first crash, 3-5 for the second: the
  // second lands after the first's replay, and both fit in 58 calls.
  const std::int64_t a1 = 1 + draw(2);
  const std::int64_t a2 = 3 + draw(3);
  const int g1 = static_cast<int>(draw(4));
  const int g2 = static_cast<int>(draw(4));
  plan.crashes = {{kCheckpointEvery * a1 + r1 - 1, g1, r1},
                  {kCheckpointEvery * a2 + r2 - 1, g2, r2}};
  return plan;
}

// ---------------------------------------------------------------------------
// Per-step record: the simulated quantities checked against the reference
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 10> kRealFields = {
    "step_time",       "drain_time",    "optimizer_time", "compute_busy",
    "checkpoint_time", "restore_time",  "lost_work_time", "pipeline_time",
    "measured_bubble", "executed_flops"};
constexpr std::array<const char*, 16> kCountFields = {
    "activation_peak", "total_peak",       "weights_live", "offloaded_bytes",
    "ssd_host_written", "checkpoint_bytes", "rollback_steps", "p2p_bytes",
    "dp_bytes",        "packs",            "unpacks",      "stores",
    "loads",           "bytes_stored",     "bytes_loaded", "io_retries"};

struct StepRecord {
  std::array<double, kRealFields.size()> real{};
  std::array<std::int64_t, kCountFields.size()> count{};
  bool operator==(const StepRecord&) const = default;
};

/// Cumulative counters StepStats reports as snapshots; records hold deltas.
struct Snapshot {
  std::int64_t packs = 0, unpacks = 0, stores = 0, loads = 0;
  std::int64_t bytes_stored = 0, bytes_loaded = 0;
};

Snapshot snapshot_of(const rt::StepStats& s) {
  return {static_cast<std::int64_t>(s.cache.packs),
          static_cast<std::int64_t>(s.cache.unpacks),
          static_cast<std::int64_t>(s.offloader_totals.stores),
          static_cast<std::int64_t>(s.offloader_totals.loads),
          s.offloader_totals.bytes_stored, s.offloader_totals.bytes_loaded};
}

StepRecord make_record(const rt::StepStats& s, const Snapshot& before,
                       double pipeline_time, double bubble,
                       std::int64_t p2p_bytes, std::int64_t dp_bytes) {
  const Snapshot now = snapshot_of(s);
  StepRecord r;
  r.real = {s.step_time,      s.drain_time,    s.optimizer_time,
            s.compute_busy,   s.checkpoint_time, s.restore_time,
            s.lost_work_time, pipeline_time,   bubble,
            s.executed_flops};
  r.count = {s.activation_peak,
             s.total_peak,
             s.weights_live,
             s.offloaded_bytes,
             s.ssd_host_written,
             s.checkpoint_bytes,
             static_cast<std::int64_t>(s.rollback_steps),
             p2p_bytes,
             dp_bytes,
             now.packs - before.packs,
             now.unpacks - before.unpacks,
             now.stores - before.stores,
             now.loads - before.loads,
             now.bytes_stored - before.bytes_stored,
             now.bytes_loaded - before.bytes_loaded,
             static_cast<std::int64_t>(s.io_retries)};
  return r;
}

std::string format_record(const StepRecord& r) {
  std::ostringstream out;
  char buf[64];
  for (const double v : r.real) {
    std::snprintf(buf, sizeof(buf), " %a", v);
    out << buf;
  }
  for (const std::int64_t v : r.count) out << ' ' << v;
  return out.str();
}

StepRecord parse_record(std::istringstream& in) {
  StepRecord r;
  for (double& v : r.real) {
    std::string token;
    in >> token;
    v = std::strtod(token.c_str(), nullptr);
  }
  for (std::int64_t& v : r.count) in >> v;
  if (!in) throw std::runtime_error("truncated reference record");
  return r;
}

/// Relative tolerance on durations wherever two steps are compared that ran
/// at different simulated instants. Step durations are differences of
/// absolute timestamps, so they drift in the last bits as the clock grows
/// (about 1e-15 relative per step); counts always compare exactly. Steps
/// that ran at the same instant — step i of two rounds, or a crashed run
/// before its first crash against the uninterrupted run — compare bit for
/// bit.
constexpr double kDurationTolerance = 1e-9;

/// Empty when equal; otherwise names the first differing field. \p rel is
/// the relative tolerance on real fields (0 = bit-identical).
std::string diff_records(const StepRecord& got, const StepRecord& want,
                         double rel) {
  for (std::size_t i = 0; i < got.real.size(); ++i) {
    const double a = got.real[i];
    const double b = want.real[i];
    const bool same = rel == 0.0 ? a == b
                                 : std::abs(a - b) <=
                                       rel * std::max(std::abs(a), std::abs(b));
    if (!same) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: got %.17g, want %.17g",
                    kRealFields[i], a, b);
      return buf;
    }
  }
  for (std::size_t i = 0; i < got.count.size(); ++i) {
    if (got.count[i] != want.count[i]) {
      return std::string(kCountFields[i]) + ": got " +
             std::to_string(got.count[i]) + ", want " +
             std::to_string(want.count[i]);
    }
  }
  return {};
}

/// The reference: the setup step, then either the one steady-state step
/// (single-GPU workloads) or every logical step of an uninterrupted run
/// (pp4-ckpt).
struct Reference {
  StepRecord setup;
  std::optional<StepRecord> steady;
  std::map<std::int64_t, StepRecord> logical;
};

Reference read_reference(const std::string& path, const Workload& w) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  bool have_setup = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "setup") {
      ref.setup = parse_record(fields);
      have_setup = true;
    } else if (tag == "steady") {
      ref.steady = parse_record(fields);
    } else if (tag == "step") {
      std::int64_t logical = 0;
      fields >> logical;
      ref.logical[logical] = parse_record(fields);
    } else {
      throw std::runtime_error("bad reference line: " + line);
    }
  }
  const bool complete = w.kind == Kind::pp4_ckpt ? !ref.logical.empty()
                                                 : ref.steady.has_value();
  if (!have_setup || !complete) {
    throw std::runtime_error("incomplete reference " + path);
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Per-layer counts, read from the public accessors around each window
// ---------------------------------------------------------------------------

struct NetSample {
  double pcie = 0.0, pcie_cap = 0.0;
  double ssd_write = 0.0, ssd_write_cap = 0.0;
  double ssd_read = 0.0, ssd_read_cap = 0.0;
};

struct LayerSample {
  double sim_now = 0.0;
  std::uint64_t events = 0;
  std::uint64_t filling_passes = 0;
  std::uint64_t flows_refilled = 0;
  NetSample net;
  std::int64_t ftl_host_pages = 0;
  std::int64_t ftl_media_pages = 0;
  std::int64_t ftl_gc_runs = 0;
  std::int64_t ftl_blocks_erased = 0;
  std::int64_t ftl_erase_spread = 0;
};

LayerSample sample_layers(ssdtrain::hw::TrainingNode& node,
                          const std::vector<int>& gpus) {
  LayerSample s;
  s.sim_now = node.simulator().now();
  s.events = node.simulator().events_executed();
  auto& net = node.network();
  s.filling_passes = net.filling_passes();
  s.flows_refilled = net.flows_refilled();
  for (const int g : gpus) {
    const auto& ctx = node.gpu(g);
    s.net.pcie += net.resource_delivered(ctx.pcie_tx) +
                  net.resource_delivered(ctx.pcie_rx);
    s.net.pcie_cap += net.capacity(ctx.pcie_tx) + net.capacity(ctx.pcie_rx);
    if (!node.has_array(g)) continue;
    auto& array = node.array(g);
    s.net.ssd_write += net.resource_delivered(array.write_resource());
    s.net.ssd_write_cap += net.capacity(array.write_resource());
    s.net.ssd_read += net.resource_delivered(array.read_resource());
    s.net.ssd_read_cap += net.capacity(array.read_resource());
    for (std::size_t i = 0; i < array.member_count(); ++i) {
      const auto& ftl = array.member(i).ftl();
      s.ftl_host_pages += ftl.host_pages_written();
      s.ftl_media_pages += ftl.media_pages_written();
      s.ftl_gc_runs += ftl.gc_runs();
      s.ftl_blocks_erased += ftl.blocks_erased();
      s.ftl_erase_spread =
          std::max<std::int64_t>(s.ftl_erase_spread,
                                 ftl.max_erase_count() - ftl.min_erase_count());
    }
  }
  return s;
}

/// One round's deterministic counts over its measured window (and setup),
/// compared across rounds for the determinism self-check.
using Counts = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

struct RoundResult {
  double setup_s = 0.0;
  std::vector<double> step_s;          ///< host seconds per measured step
  std::vector<StepRecord> records;     ///< setup step first, then measured
  std::vector<std::int64_t> logical;   ///< logical step after each record
  std::vector<std::uint8_t> crashed;   ///< the call that took a crash
  Counts counts;
  sp::Totals setup_spans{};            ///< span totals over the setup
  sp::Totals step_spans{};             ///< span totals over measured steps
  std::uint64_t allocs = 0;            ///< heap allocations, measured steps
  int failed_steps = 0;
  std::string failure;

  /// Sizes the per-step vectors up front, so that filling them between
  /// steps adds no heap allocations to alloc.per_step.
  void reserve(int measured) {
    const auto n = static_cast<std::size_t>(measured) + 1;
    step_s.reserve(n);
    records.reserve(n);
    logical.reserve(n);
    crashed.reserve(n);
  }
};

sp::Totals diff(const sp::Totals& after, const sp::Totals& before) {
  sp::Totals d{};
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i].calls = after[i].calls - before[i].calls;
    d[i].total_ns = after[i].total_ns - before[i].total_ns;
    d[i].self_ns = after[i].self_ns - before[i].self_ns;
  }
  return d;
}

void add_window_counts(Counts& c, const LayerSample& a, const LayerSample& b,
                       int steps) {
  const double n = std::max(steps, 1);
  const double window = b.sim_now - a.sim_now;
  const auto util = [window](double delivered, double cap) {
    return cap > 0.0 && window > 0.0 ? delivered / (cap * window) : 0.0;
  };
  c["sim.events_per_step"] = static_cast<double>(b.events - a.events) / n;
  c["net.filling_passes_per_step"] =
      static_cast<double>(b.filling_passes - a.filling_passes) / n;
  c["net.flows_refilled_per_step"] =
      static_cast<double>(b.flows_refilled - a.flows_refilled) / n;
  c["net.util.pcie"] = util(b.net.pcie - a.net.pcie, b.net.pcie_cap);
  c["net.util.ssd_write"] =
      util(b.net.ssd_write - a.net.ssd_write, b.net.ssd_write_cap);
  c["net.util.ssd_read"] =
      util(b.net.ssd_read - a.net.ssd_read, b.net.ssd_read_cap);
  const auto host = b.ftl_host_pages - a.ftl_host_pages;
  const auto media = b.ftl_media_pages - a.ftl_media_pages;
  c["ftl.host_pages_per_step"] = static_cast<double>(host) / n;
  c["ftl.media_pages_per_step"] = static_cast<double>(media) / n;
  c["ftl.waf"] =
      host > 0 ? static_cast<double>(media) / static_cast<double>(host) : 1.0;
  c["ftl.gc_runs"] = static_cast<double>(b.ftl_gc_runs);
  c["ftl.blocks_erased"] = static_cast<double>(b.ftl_blocks_erased);
  c["ftl.erase_spread"] = static_cast<double>(b.ftl_erase_spread);
  c["sim.window_s"] = window;
}

void add_step_counts(Counts& c, const rt::StepStats& first,
                     const rt::StepStats& last, int steps) {
  const double n = std::max(steps, 1);
  const auto& a = first.cache;
  const auto& b = last.cache;
  c["cache.packs_per_step"] = static_cast<double>(b.packs - a.packs) / n;
  c["cache.unpacks_per_step"] =
      static_cast<double>(b.unpacks - a.unpacks) / n;
  c["cache.offloaded_mib_per_step"] =
      static_cast<double>(b.offloaded_bytes - a.offloaded_bytes) / kMiB / n;
  c["cache.dedup_hits"] = static_cast<double>(b.dedup_hits - a.dedup_hits);
  c["cache.forwards"] = static_cast<double>(b.forwards - a.forwards);
  c["cache.wasted_stores"] =
      static_cast<double>(b.wasted_stores - a.wasted_stores);
  const double prefetch = static_cast<double>(b.prefetch_loads - a.prefetch_loads);
  const double miss = static_cast<double>(b.miss_loads - a.miss_loads);
  c["cache.prefetch_hit_ratio"] =
      prefetch + miss > 0.0 ? prefetch / (prefetch + miss) : 0.0;
  const auto& oa = first.offloader_totals;
  const auto& ob = last.offloader_totals;
  c["offload.stores_per_step"] =
      static_cast<double>(ob.stores - oa.stores) / n;
  c["offload.loads_per_step"] =
      static_cast<double>(ob.loads - oa.loads) / n;
  c["offload.mib_stored_per_step"] =
      static_cast<double>(ob.bytes_stored - oa.bytes_stored) / kMiB / n;
  c["offload.io_retries"] =
      static_cast<double>(ob.io_retries - oa.io_retries);
}

void add_goodput_counts(Counts& c, const ssdtrain::ckpt::GoodputReport& g) {
  c["sim_goodput"] = g.goodput();
  c["ckpt.commits"] = static_cast<double>(g.checkpoints);
  c["ckpt.restores"] = static_cast<double>(g.restores);
  c["ckpt.rollback_steps"] = static_cast<double>(g.rollback_steps);
  c["ckpt.mib_per_commit"] =
      g.checkpoints > 0 ? static_cast<double>(g.checkpoint_bytes) / kMiB /
                              static_cast<double>(g.checkpoints)
                        : 0.0;
  c["ckpt.sim_commit_ms"] =
      g.checkpoints > 0
          ? g.checkpoint_time * 1e3 / static_cast<double>(g.checkpoints)
          : 0.0;
  c["ckpt.sim_restore_ms"] =
      g.restores > 0 ? g.restore_time * 1e3 / static_cast<double>(g.restores)
                     : 0.0;
}

/// Span call counts over the measured steps (all zero in the untraced
/// build). They are deterministic, so they join the determinism check.
void add_span_counts(Counts& c, const sp::Totals& t) {
  for (std::size_t l = 0; l < t.size(); ++l) {
    c[std::string("calls.") + sp::kLayerNames[l]] =
        static_cast<double>(t[l].calls);
  }
}

/// The sim_* metrics over the measured steps (records[0] is the setup
/// step). Compute utilisation is busy time over step time per GPU: cluster
/// StepStats sum compute_busy over the stage GPUs.
void add_sim_counts(Counts& c, const std::vector<StepRecord>& records,
                    int gpus) {
  std::vector<double> times;
  double busy = 0.0;
  double total = 0.0;
  std::int64_t peak = 0;
  for (std::size_t i = 1; i < records.size(); ++i) {
    times.push_back(records[i].real[0]);
    total += records[i].real[0];
    busy += records[i].real[3];
    peak = std::max(peak, records[i].count[0]);
  }
  std::sort(times.begin(), times.end());
  c["sim_step_ms"] = times.empty() ? 0.0 : times[times.size() / 2] * 1e3;
  c["sim_compute_util"] =
      total > 0.0 ? busy / (total * static_cast<double>(gpus)) : 0.0;
  c["sim_act_peak_mib"] = static_cast<double>(peak) / kMiB;
}

/// Runs one single-GPU round: ssd-offload or keep-replay. \p cache_dir is
/// the filled program-cache directory (keep-replay only).
RoundResult run_single_round(const Workload& w, int measured,
                             const std::string& cache_dir) {
  RoundResult r;
  r.reserve(measured);
  const sp::Totals spans0 = sp::totals();
  const auto t0 = Clock::now();
  std::unique_ptr<rt::ProgramCache> cache;
  rt::SessionConfig config = single_config(w.kind);
  if (w.kind == Kind::keep_replay) {
    // A fresh cache object per round: its in-memory tier is empty, so the
    // setup step reads and deserializes the file from disk.
    cache = std::make_unique<rt::ProgramCache>(
        rt::ProgramCacheConfig{cache_dir});
    config.program_cache = cache.get();
  }
  std::optional<rt::TrainingSession> session;
  rt::StepStats first;
  {
    sp::RootSpan span("setup", 0);
    session.emplace(std::move(config));
    first = session->run_step();
  }
  r.setup_s = seconds_since(t0);
  r.setup_spans = diff(sp::totals(), spans0);
  if (w.kind == Kind::keep_replay) {
    ssdtrain::util::check(session->program_from_cache(),
                          "keep-replay setup traced instead of loading the "
                          "cached program");
  }
  r.records.push_back(make_record(first, Snapshot{}, 0.0, 0.0, 0, 0));
  r.logical.push_back(1);
  r.crashed.push_back(0);

  const std::vector<int> gpus = {session->config().gpu_index};
  const LayerSample before = sample_layers(session->node(), gpus);
  const sp::Totals spans1 = sp::totals();
  const auto allocs0 = g_allocs.load(std::memory_order_relaxed);
  rt::StepStats prev = first;
  for (int i = 0; i < measured; ++i) {
    const auto t = Clock::now();
    rt::StepStats stats;
    {
      sp::RootSpan span("run_step", i + 1);
      stats = session->run_step();
    }
    r.step_s.push_back(seconds_since(t));
    r.records.push_back(
        make_record(stats, snapshot_of(prev), 0.0, 0.0, 0, 0));
    r.logical.push_back(static_cast<std::int64_t>(session->logical_step()));
    r.crashed.push_back(0);
    prev = stats;
  }
  r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.step_spans = diff(sp::totals(), spans1);
  add_span_counts(r.counts, r.step_spans);
  const LayerSample after = sample_layers(session->node(), gpus);

  add_window_counts(r.counts, before, after, measured);
  add_step_counts(r.counts, first, prev, measured);
  add_goodput_counts(r.counts, session->goodput());
  add_sim_counts(r.counts, r.records, 1);
  const rt::StepProgram* program = session->program();
  r.counts["executor.ops_per_step"] =
      program != nullptr ? static_cast<double>(program->ops.size()) : 0.0;
  return r;
}

RoundResult run_cluster_round(int measured, const CrashPlan& plan) {
  RoundResult r;
  r.reserve(measured);
  const sp::Totals spans0 = sp::totals();
  const auto t0 = Clock::now();
  std::optional<rt::ClusterSession> session;
  rt::ClusterStepStats first;
  {
    sp::RootSpan span("setup", 0);
    session.emplace(cluster_config(plan.fault_seed));
    first = session->run_step();
  }
  r.setup_s = seconds_since(t0);
  r.setup_spans = diff(sp::totals(), spans0);
  r.records.push_back(make_record(first.combined, Snapshot{},
                                  first.pipeline_time, first.measured_bubble,
                                  first.p2p_bytes, first.dp_bytes));
  r.logical.push_back(static_cast<std::int64_t>(session->logical_step()));
  r.crashed.push_back(0);

  std::vector<int> gpus;
  for (int g = 0; g < session->gpu_count(); ++g) gpus.push_back(g);
  const LayerSample before = sample_layers(session->node(), gpus);
  const sp::Totals spans1 = sp::totals();
  const auto allocs0 = g_allocs.load(std::memory_order_relaxed);
  std::size_t next_crash = 0;
  double p2p = 0.0;
  double dp = 0.0;
  double bubble = 0.0;
  rt::ClusterStepStats prev = first;
  for (int i = 0; i < measured; ++i) {
    bool crash = false;
    if (next_crash < plan.crashes.size() &&
        static_cast<std::int64_t>(session->logical_step()) ==
            plan.crashes[next_crash].logical) {
      f::FaultSpec spec;
      spec.kind = f::FaultKind::stage_crash;
      spec.gpu = plan.crashes[next_crash].gpu;
      spec.duration = 0.25;  // node restart stall before the restore
      spec.lose = f::CrashLoss::state;
      session->injector()->trigger(spec);
      ++next_crash;
      crash = true;
    }
    const auto t = Clock::now();
    rt::ClusterStepStats stats;
    {
      sp::RootSpan span("run_step", i + 1);
      stats = session->run_step();
    }
    r.step_s.push_back(seconds_since(t));
    r.records.push_back(make_record(stats.combined, snapshot_of(prev.combined),
                                    stats.pipeline_time,
                                    stats.measured_bubble, stats.p2p_bytes,
                                    stats.dp_bytes));
    r.logical.push_back(static_cast<std::int64_t>(session->logical_step()));
    r.crashed.push_back(crash ? 1 : 0);
    p2p += static_cast<double>(stats.p2p_bytes);
    dp += static_cast<double>(stats.dp_bytes);
    bubble += stats.measured_bubble;
    prev = std::move(stats);
  }
  if (next_crash != plan.crashes.size()) {
    r.failure = "crash plan not exhausted within the round";
  }
  r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.step_spans = diff(sp::totals(), spans1);
  add_span_counts(r.counts, r.step_spans);
  const LayerSample after = sample_layers(session->node(), gpus);

  const double n = std::max(measured, 1);
  add_window_counts(r.counts, before, after, measured);
  add_step_counts(r.counts, first.combined, prev.combined, measured);
  add_goodput_counts(r.counts, session->goodput());
  add_sim_counts(r.counts, r.records, static_cast<int>(gpus.size()));
  r.counts["cluster.p2p_mib_per_step"] = p2p / kMiB / n;
  r.counts["cluster.dp_mib_per_step"] = dp / kMiB / n;
  r.counts["cluster.bubble"] = bubble / n;
  const double window = r.counts["sim.window_s"];
  const double dp_capacity = session->config().dp_fabric_bandwidth *
                             static_cast<double>(gpus.size()) * window;
  r.counts["net.util.dp"] = dp_capacity > 0.0 ? dp / dp_capacity : 0.0;
  double ops = 0.0;
  for (int v = 0; v < session->virtual_stage_count(); ++v) {
    if (const rt::StepProgram* p = session->program(v)) {
      ops += static_cast<double>(p->ops.size());
    }
  }
  r.counts["executor.ops_per_step"] = ops;
  return r;
}

RoundResult run_round(const Workload& w, int measured, const CrashPlan& plan,
                      const std::string& cache_dir) {
  try {
    return w.kind == Kind::pp4_ckpt ? run_cluster_round(measured, plan)
                                    : run_single_round(w, measured, cache_dir);
  } catch (const std::exception& e) {
    RoundResult r;
    r.failure = std::string("round threw: ") + e.what();
    r.failed_steps = 1;
    return r;
  }
}

/// Checks a round against the reference; returns the failing step count
/// and fills \p why with the first failure.
int check_round(const Workload& w, const RoundResult& r, const Reference& ref,
                const CrashPlan& plan, std::string& why) {
  int failed = 0;
  const auto fail = [&](std::size_t i, const std::string& what) {
    ++failed;
    if (why.empty()) why = "step " + std::to_string(i) + ": " + what;
  };
  if (r.records.empty()) return 0;
  if (std::string d = diff_records(r.records[0], ref.setup, 0.0); !d.empty()) {
    fail(0, "setup step differs from the reference: " + d);
  }
  if (w.kind != Kind::pp4_ckpt) {
    for (std::size_t i = 1; i < r.records.size(); ++i) {
      // Steady state: every replayed step equals the reference step, and so
      // each other.
      std::string d = diff_records(r.records[i], *ref.steady,
                                   kDurationTolerance);
      if (!d.empty()) fail(i, "steady-state step differs: " + d);
    }
    return failed;
  }
  // pp4-ckpt: before the first crash, steps match the uninterrupted run
  // bit for bit; steps replayed after a rollback match it exactly on counts
  // and within the duration tolerance.
  bool rolled_back = false;
  std::size_t crash_index = 0;
  for (std::size_t i = 1; i < r.records.size(); ++i) {
    const StepRecord& rec = r.records[i];
    if (r.crashed[i] != 0) {
      const Crash& c = plan.crashes[crash_index++];
      const std::int64_t rollback = rec.count[6];
      const std::int64_t expect_logical = c.logical + 1 - c.rollback;
      if (rollback != c.rollback || r.logical[i] != expect_logical ||
          !(rec.real[5] > 0.0)) {
        fail(i, "crash step rolled back " + std::to_string(rollback) +
                    " steps to logical " + std::to_string(r.logical[i]) +
                    ", want " + std::to_string(c.rollback) + " to " +
                    std::to_string(expect_logical) + " with a restore");
      }
      rolled_back = true;
      continue;
    }
    const auto it = ref.logical.find(r.logical[i]);
    if (it == ref.logical.end()) {
      fail(i, "no reference for logical step " + std::to_string(r.logical[i]));
      continue;
    }
    std::string d =
        diff_records(rec, it->second, rolled_back ? kDurationTolerance : 0.0);
    if (!d.empty()) {
      fail(i, "logical step " + std::to_string(r.logical[i]) +
                  " differs from the uninterrupted run: " + d);
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest of every simulated record and count of a round: equal digests
/// across runs of one build and seed are the determinism contract.
std::uint64_t digest(const RoundResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const StepRecord& rec : r.records) {
    h = fnv1a(h, rec.real.data(), sizeof(rec.real));
    h = fnv1a(h, rec.count.data(), sizeof(rec.count));
  }
  for (const auto& [name, value] : r.counts) {
    h = fnv1a(h, name.data(), name.size());
    h = fnv1a(h, &value, sizeof(value));
  }
  return h;
}

/// Hash of this executable: digests are only comparable within one build.
std::uint64_t build_id() {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 14695981039346656037ull;
  char buf[1 << 16];
  while (exe.read(buf, sizeof(buf)) || exe.gcount() > 0) {
    h = fnv1a(h, buf, static_cast<std::size_t>(exe.gcount()));
  }
  return h;
}

/// Cross-run determinism: the first run of a build records round 0's
/// digest under \p dir; every later run of the same build, workload and
/// input must reproduce it. Returns an error message, or empty.
std::string check_digest(const std::string& dir, const std::string& key,
                         std::uint64_t value) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(value));
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + key;
  std::ifstream in(path);
  std::string recorded;
  if (in >> recorded) {
    return recorded == hex ? std::string()
                           : "simulated results differ from an earlier run of "
                             "this build (digest " +
                                 std::string(hex) + ", recorded " + recorded +
                                 ")";
  }
  // First run: publish atomically so concurrent runs never read a torn file.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  std::ofstream(tmp) << hex << "\n";
  std::filesystem::rename(tmp, path);
  return {};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string reference;
  std::string write_reference;
  std::string work_dir = ".";
  std::string digest_dir;
  std::string trace_out;
  double baseline_sps = 0.0;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--reference") {
      o.reference = value;
    } else if (arg == "--write-reference") {
      o.write_reference = value;
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else if (arg == "--digest-dir") {
      o.digest_dir = value;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--baseline-sps") {
      o.baseline_sps = std::stod(value);
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + name +
                           "' (ssd-offload, keep-replay, pp4-ckpt)");
}

/// keep-replay's setup reads its program from disk: record it once, before
/// anything is timed, into \p dir.
void fill_program_cache(const std::string& dir) {
  std::filesystem::remove_all(dir);
  rt::ProgramCache cache(rt::ProgramCacheConfig{dir});
  rt::SessionConfig config = single_config(Kind::keep_replay);
  config.program_cache = &cache;
  rt::TrainingSession session(std::move(config));
  session.run_step();
  ssdtrain::util::check(cache.stats().stores == 1,
                        "program cache was not filled");
}

double directory_bytes(const std::string& dir) {
  double total = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += static_cast<double>(entry.file_size());
    }
  }
  return total;
}

int write_reference(const Workload& w, const Options& o) {
  const std::string cache_dir = o.work_dir + "/program-cache";
  if (w.kind == Kind::keep_replay) fill_program_cache(cache_dir);
  // pp4-ckpt's reference is the uninterrupted run: no crashes planned.
  const RoundResult r =
      run_round(w, w.kind == Kind::pp4_ckpt ? w.measured_steps + 1 : 8,
                CrashPlan{}, cache_dir);
  if (!r.failure.empty()) throw std::runtime_error(r.failure);
  std::ofstream out(o.write_reference);
  out << "# perfbench reference for " << w.name
      << ": per-step StepStats fields (reals as hex floats, then counts)\n# reals:";
  for (const char* name : kRealFields) out << ' ' << name;
  out << "\n# counts:";
  for (const char* name : kCountFields) out << ' ' << name;
  out << "\nsetup" << format_record(r.records[0]) << "\n";
  if (w.kind == Kind::pp4_ckpt) {
    for (std::size_t i = 1; i < r.records.size(); ++i) {
      out << "step " << r.logical[i] << format_record(r.records[i]) << "\n";
    }
  } else {
    for (std::size_t i = 2; i < r.records.size(); ++i) {
      const std::string d =
          diff_records(r.records[i], r.records[1], kDurationTolerance);
      if (!d.empty()) {
        throw std::runtime_error("replayed steps differ: step " +
                                 std::to_string(i) + ": " + d);
      }
    }
    out << "steady" << format_record(r.records[1]) << "\n";
  }
  return out ? 0 : 1;
}

int run(const Options& o) {
  const Workload& w = find_workload(o.workload);
  if (!o.write_reference.empty()) return write_reference(w, o);
  const Reference ref = read_reference(o.reference, w);
  const CrashPlan plan = w.kind == Kind::pp4_ckpt ? plan_crashes(o.seed)
                                                  : CrashPlan{};
  const std::string cache_dir = o.work_dir + "/program-cache";
  if (w.kind == Kind::keep_replay) fill_program_cache(cache_dir);

  // Every round is checked against the reference as soon as it ends, and
  // each measured round against round 0 (determinism within the run). Only
  // round 0 keeps its per-step records, so the peak RSS does not grow with
  // the number of rounds a fast host fits in.
  long attempted = 0;
  long failed = 0;
  std::string why;
  std::optional<RoundResult> first;
  int rounds = 0;
  std::vector<double> step_ms;
  double measured_s = 0.0;
  std::uint64_t allocs = 0;
  sp::Totals steps_spans{};
  std::vector<double> setups;
  std::vector<double> setup_span_values[sp::kLayerCount];
  const auto account = [&](RoundResult r) {
    attempted += static_cast<long>(std::max<std::size_t>(r.records.size(), 1));
    failed += r.failed_steps;
    if (!r.failure.empty() && why.empty()) why = r.failure;
    failed += check_round(w, r, ref, plan, why);
    setups.push_back(r.setup_s);
    for (std::size_t l = 0; l < sp::kLayerCount; ++l) {
      setup_span_values[l].push_back(
          static_cast<double>(r.setup_spans[l].total_ns) / 1e6);
    }
    if (r.step_s.empty() && first) return;  // a setup-only round
    for (const double s : r.step_s) {
      step_ms.push_back(s * 1e3);
      measured_s += s;
    }
    allocs += r.allocs;
    for (std::size_t l = 0; l < steps_spans.size(); ++l) {
      steps_spans[l].calls += r.step_spans[l].calls;
      steps_spans[l].total_ns += r.step_spans[l].total_ns;
      steps_spans[l].self_ns += r.step_spans[l].self_ns;
    }
    ++rounds;
    if (!first) {
      first = std::move(r);
    } else if (r.records != first->records || r.counts != first->counts) {
      failed += 1;
      if (why.empty()) {
        why = "round " + std::to_string(rounds - 1) +
              " is not bit-identical to round 0";
      }
    }
  };

  // Timed rounds: start another only while it is expected to fit.
  const auto start = Clock::now();
  double last_round_s = 0.0;
  while (rounds == 0 || seconds_since(start) + last_round_s <= o.seconds) {
    const auto t = Clock::now();
    account(run_round(w, w.measured_steps, plan, cache_dir));
    last_round_s = seconds_since(t);
    if (failed > 0) break;
  }
  // Extra setup-only rounds so setup_s is always a median of several.
  while (failed == 0 && static_cast<int>(setups.size()) < kMinSetups) {
    account(run_round(w, 0, plan, cache_dir));
  }

  const RoundResult& r0 = *first;
  const double steps = static_cast<double>(step_ms.size());
  std::sort(step_ms.begin(), step_ms.end());
  // Tail: the highest percentile with at least 10 samples beyond it.
  const std::size_t tail_index =
      step_ms.size() > 10 ? step_ms.size() - 11
                          : (step_ms.empty() ? 0 : step_ms.size() - 1);
  const double tail_pct = step_ms.size() > 1
                              ? 100.0 * static_cast<double>(tail_index) /
                                    static_cast<double>(step_ms.size() - 1)
                              : 100.0;
  const double step_ms_tail = step_ms.empty() ? 0.0 : step_ms[tail_index];
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double sps = measured_s > 0.0 ? steps / measured_s : 0.0;
  const auto& c = r0.counts;
  const auto count = [&c](const char* name) {
    const auto it = c.find(name);
    return it != c.end() ? it->second : 0.0;
  };

  std::cout << "perfbench " << w.name << " seed " << o.seed << ": "
            << rounds << " rounds x " << w.measured_steps
            << " measured steps, " << setups.size() << " setups\n";
  if (w.kind == Kind::pp4_ckpt) {
    for (const Crash& crash : plan.crashes) {
      std::cout << "  crash: gpu " << crash.gpu << " at logical step "
                << crash.logical << " (rolls back " << crash.rollback
                << ")\n";
    }
  }
  char line[256];
  const std::uint64_t run_digest = digest(r0);
  std::snprintf(line, sizeof(line), "  determinism digest %016llx\n",
                static_cast<unsigned long long>(run_digest));
  std::cout << line;
  if (!o.digest_dir.empty() && failed == 0) {
    char key[96];
    std::snprintf(key, sizeof(key), "%016llx-%s-%llu",
                  static_cast<unsigned long long>(build_id()), w.name,
                  static_cast<unsigned long long>(
                      w.kind == Kind::pp4_ckpt ? o.seed : 0));
    const std::string error = check_digest(o.digest_dir, key, run_digest);
    if (!error.empty()) {
      failed += 1;
      why = error;
    }
  }

  std::vector<Metric> metrics;
  if (!sp::enabled()) {
    metrics = {
        {"steps_per_s", sps, "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
        {"sim_step_ms", count("sim_step_ms"), "sim_ms"},
        {"sim_act_peak_mib", count("sim_act_peak_mib"), "MiB"},
        {"sim_compute_util", count("sim_compute_util"), "ratio"},
        {"sim_goodput", count("sim_goodput"), "ratio"},
    };
    // Printed, not in the JSON metrics. On a shared host a ~40 us
    // keep-replay step runs at one of two host speeds, so its percentiles
    // flip between them from run to run; steps_per_s, a mean, does not.
    // failed_step_share is 0 whenever the run passes (attempted/failed
    // carry it).
    std::snprintf(line, sizeof(line),
                  "  step_ms_p50 %.6f ms\n"
                  "  step_ms_tail %.6f ms (p%.3f of %zu samples, 10 beyond it)\n"
                  "  failed_step_share %.6g ratio\n",
                  median(step_ms), step_ms_tail, tail_pct, step_ms.size(),
                  attempted > 0 ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 0.0);
    std::cout << line;
  } else {
    const auto per_step_us = [&](int layer, bool self) {
      const auto& t = steps_spans[static_cast<std::size_t>(layer)];
      return steps > 0.0 ? static_cast<double>(self ? t.self_ns : t.total_ns) /
                               1e3 / steps
                         : 0.0;
    };
    const auto per_call_ms = [&](int layer) {
      const auto& t = steps_spans[static_cast<std::size_t>(layer)];
      return t.calls > 0 ? static_cast<double>(t.total_ns) / 1e6 /
                               static_cast<double>(t.calls)
                         : 0.0;
    };
    const double sim_self_ns =
        static_cast<double>(steps_spans[sp::kSim].self_ns);
    const double events = count("sim.events_per_step") * steps;
    const double program_bytes =
        w.kind == Kind::keep_replay ? directory_bytes(cache_dir) : 0.0;
    const double decode_ms = median(setup_span_values[sp::kSerdesDecode]);
    const double host_step_us = per_step_us(sp::kRoot, false);
    metrics = {
        {"host.step_us", host_step_us, "us"},
        {"trace.overhead",
         o.baseline_sps > 0.0 && sps > 0.0 ? 1.0 - sps / o.baseline_sps : 0.0,
         "ratio"},
        {"sim.events_per_step", count("sim.events_per_step"), "count/step"},
        {"sim.self_us_per_step", per_step_us(sp::kSim, true), "us"},
        {"sim.ns_per_event", events > 0.0 ? sim_self_ns / events : 0.0, "ns"},
        {"net.flows_per_step",
         steps > 0.0 ? static_cast<double>(
                           steps_spans[sp::kNetStartFlow].calls) / steps
                     : 0.0,
         "count/step"},
        {"net.filling_passes_per_step", count("net.filling_passes_per_step"),
         "count/step"},
        {"net.flows_refilled_per_step", count("net.flows_refilled_per_step"),
         "count/step"},
        {"net.start_flow_us_per_step", per_step_us(sp::kNetStartFlow, true),
         "us"},
        {"net.util.pcie", count("net.util.pcie"), "ratio"},
        {"net.util.ssd_write", count("net.util.ssd_write"), "ratio"},
        {"net.util.ssd_read", count("net.util.ssd_read"), "ratio"},
        {"net.util.dp", count("net.util.dp"), "ratio"},
        {"ftl.host_pages_per_step", count("ftl.host_pages_per_step"),
         "count/step"},
        {"ftl.media_pages_per_step", count("ftl.media_pages_per_step"),
         "count/step"},
        {"ftl.waf", count("ftl.waf"), "ratio"},
        {"ftl.gc_runs", count("ftl.gc_runs"), "count"},
        {"ftl.blocks_erased", count("ftl.blocks_erased"), "count"},
        {"ftl.erase_spread", count("ftl.erase_spread"), "count"},
        {"ftl.self_us_per_step", per_step_us(sp::kFtl, true), "us"},
        {"ftl.share_of_step",
         host_step_us > 0.0 ? per_step_us(sp::kFtl, true) / host_step_us : 0.0,
         "ratio"},
        {"ftl.ctor_ms", median(setup_span_values[sp::kFtlCtor]), "ms"},
        {"cache.packs_per_step", count("cache.packs_per_step"), "count/step"},
        {"cache.unpacks_per_step", count("cache.unpacks_per_step"),
         "count/step"},
        {"cache.offloaded_mib_per_step", count("cache.offloaded_mib_per_step"),
         "MiB"},
        {"cache.dedup_hits", count("cache.dedup_hits"), "count"},
        {"cache.forwards", count("cache.forwards"), "count"},
        {"cache.wasted_stores", count("cache.wasted_stores"), "count"},
        {"cache.prefetch_hit_ratio", count("cache.prefetch_hit_ratio"),
         "ratio"},
        {"cache.self_us_per_step", per_step_us(sp::kCache, true), "us"},
        {"offload.stores_per_step", count("offload.stores_per_step"),
         "count/step"},
        {"offload.loads_per_step", count("offload.loads_per_step"),
         "count/step"},
        {"offload.mib_stored_per_step", count("offload.mib_stored_per_step"),
         "MiB"},
        {"offload.io_retries", count("offload.io_retries"), "count"},
        {"executor.ops_per_step", count("executor.ops_per_step"),
         "count/step"},
        {"executor.replay_self_us_per_step",
         per_step_us(sp::kExecutorReplay, true), "us"},
        {"executor.record_ms", median(setup_span_values[sp::kExecutorRecord]),
         "ms"},
        {"alloc.per_step",
         steps > 0.0 ? static_cast<double>(allocs) / steps : 0.0,
         "count/step"},
        {"serdes.program_bytes", program_bytes, "B"},
        {"serdes.load_ms", median(setup_span_values[sp::kSerdesLookup]), "ms"},
        {"serdes.mb_per_s",
         decode_ms > 0.0 ? program_bytes / 1e6 / (decode_ms / 1e3) : 0.0,
         "MB/s"},
        {"cluster.self_us_per_step",
         w.kind == Kind::pp4_ckpt ? per_step_us(sp::kRoot, true) : 0.0, "us"},
        {"cluster.p2p_mib_per_step", count("cluster.p2p_mib_per_step"), "MiB"},
        {"cluster.dp_mib_per_step", count("cluster.dp_mib_per_step"), "MiB"},
        {"cluster.bubble", count("cluster.bubble"), "ratio"},
        {"ckpt.commits", count("ckpt.commits"), "count"},
        {"ckpt.restores", count("ckpt.restores"), "count"},
        {"ckpt.rollback_steps", count("ckpt.rollback_steps"), "count"},
        {"ckpt.mib_per_commit", count("ckpt.mib_per_commit"), "MiB"},
        {"ckpt.sim_commit_ms", count("ckpt.sim_commit_ms"), "sim_ms"},
        {"ckpt.sim_restore_ms", count("ckpt.sim_restore_ms"), "sim_ms"},
        {"ckpt.write_ms", per_call_ms(sp::kCkptWrite), "ms"},
        {"ckpt.restore_ms", per_call_ms(sp::kCkptRestore), "ms"},
    };
    if (!o.trace_out.empty()) sp::write(o.trace_out);
  }
  for (const Metric& metric : metrics) {
    std::cout << "  " << metric.name << " " << json_number(metric.value) << " "
              << metric.unit << "\n";
  }
  if (failed > 0) std::cerr << "perfbench: FAILED: " << why << "\n";
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
