#include "ssdtrain/sweep/cli.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/stage.hpp"
#include "ssdtrain/sweep/chaos_exec.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sweep {

namespace {

void parse_points_list(std::string_view list, CliOptions& options) {
  util::expects(!list.empty(), "--points requires a=1[,b=2...]");
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view item = list.substr(start, comma - start);
    const std::size_t eq = item.find('=');
    util::expects(eq != std::string_view::npos && eq > 0 &&
                      eq + 1 < item.size(),
                  "--points entries must look like axis=value, got '" +
                      std::string(item) + "'");
    options.point_filter.emplace_back(std::string(item.substr(0, eq)),
                                      std::string(item.substr(eq + 1)));
    start = comma + 1;
    if (comma == list.size()) break;
  }
}

// An integer flag value in [lo, hi].
int parse_int(std::string_view flag, const char* text, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(text, &end, 10);
  util::expects(end != text && *end == '\0' && errno != ERANGE && n >= lo &&
                    n <= hi,
                std::string(flag) + " expects an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "], got '" + std::string(text) + "'");
  return static_cast<int>(n);
}

// A duration flag value in seconds: non-negative, or positive unless
// \p allow_zero.
double parse_seconds(std::string_view flag, const char* text,
                     bool allow_zero) {
  char* end = nullptr;
  errno = 0;
  const double seconds = std::strtod(text, &end);
  util::expects(end != text && *end == '\0' && errno != ERANGE &&
                    (allow_zero ? seconds >= 0.0 : seconds > 0.0),
                std::string(flag) +
                    (allow_zero ? " expects a non-negative"
                                : " expects a positive") +
                    " number of seconds, got '" + std::string(text) + "'");
  return seconds;
}

parallel::ZeroStage parse_zero_stage(const char* text) {
  const std::string_view value = text;
  if (value == "none" || value == "0") return parallel::ZeroStage::none;
  if (value == "1" || value == "stage1") return parallel::ZeroStage::stage1;
  if (value == "2" || value == "stage2") return parallel::ZeroStage::stage2;
  if (value == "3" || value == "stage3") return parallel::ZeroStage::stage3;
  util::expects(false, "--zero expects none|1|2|3, got '" +
                           std::string(value) + "'");
  return parallel::ZeroStage::none;  // unreachable
}

// "I/N" with 0 <= I < N and N in [1, 4096].
void parse_shard(const char* text, CliOptions& options) {
  const std::string_view value = text;
  const std::size_t slash = value.find('/');
  util::expects(slash != std::string_view::npos && slash > 0 &&
                    slash + 1 < value.size(),
                "--shard expects I/N (e.g. 0/2), got '" + std::string(value) +
                    "'");
  const std::string index_text(value.substr(0, slash));
  const std::string count_text(value.substr(slash + 1));
  char* end = nullptr;
  errno = 0;
  const long index = std::strtol(index_text.c_str(), &end, 10);
  util::expects(end != index_text.c_str() && *end == '\0' &&
                    errno != ERANGE && index >= 0,
                "--shard index must be a non-negative integer, got '" +
                    index_text + "'");
  end = nullptr;
  errno = 0;
  const long count = std::strtol(count_text.c_str(), &end, 10);
  util::expects(end != count_text.c_str() && *end == '\0' &&
                    errno != ERANGE && count >= 1 && count <= 4096,
                "--shard count must be an integer in [1, 4096], got '" +
                    count_text + "'");
  util::expects(index < count, "--shard index " + index_text +
                                   " out of range for " + count_text +
                                   " shards");
  options.shard_index = static_cast<int>(index);
  options.shard_count = static_cast<int>(count);
}

// The flags that configure the sessions a binary builds.
constexpr std::array<std::string_view, 10> kSessionFlags = {
    "--pp", "--tp", "--dp", "--zero", "--faults", "--fault-seed",
    "--ckpt-interval", "--ckpt-auto", "--mtbf", "--program-cache"};

CliOptions parse(int argc, char** argv, bool builds_sessions) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    util::expects(builds_sessions ||
                      std::find(kSessionFlags.begin(), kSessionFlags.end(),
                                arg) == kSessionFlags.end(),
                  std::string(arg) +
                      " configures a session, and this binary builds none");
    if (arg == "--workers") {
      util::expects(i + 1 < argc, "--workers requires a value");
      // 4096 bounds even absurd machines; anything larger is a typo, not a
      // core count.
      options.workers =
          static_cast<std::size_t>(parse_int(arg, argv[++i], 0, 4096));
    } else if (arg == "--csv") {
      util::expects(i + 1 < argc, "--csv requires a path");
      options.csv_path = argv[++i];
      util::expects(!options.csv_path.empty(), "--csv path is empty");
    } else if (arg == "--points") {
      util::expects(i + 1 < argc, "--points requires a=1[,b=2...]");
      parse_points_list(argv[++i], options);
    } else if (arg == "--point-timeout") {
      util::expects(i + 1 < argc, "--point-timeout requires seconds");
      options.point_timeout = parse_seconds(arg, argv[++i], true);
    } else if (arg == "--pp") {
      util::expects(i + 1 < argc, "--pp requires a degree");
      options.pipeline_parallel = parse_int(arg, argv[++i], 1, 4096);
    } else if (arg == "--tp") {
      util::expects(i + 1 < argc, "--tp requires a degree");
      options.tensor_parallel = parse_int(arg, argv[++i], 1, 4096);
    } else if (arg == "--dp") {
      util::expects(i + 1 < argc, "--dp requires a degree");
      options.data_parallel = parse_int(arg, argv[++i], 1, 4096);
    } else if (arg == "--zero") {
      util::expects(i + 1 < argc, "--zero requires none|1|2|3");
      options.zero = parse_zero_stage(argv[++i]);
    } else if (arg == "--faults") {
      util::expects(i + 1 < argc, "--faults requires a spec list");
      options.faults = argv[++i];
      util::expects(!options.faults.empty(), "--faults spec list is empty");
      // Parse eagerly so grammar errors surface at startup.
      (void)fault::parse_faults(options.faults);
    } else if (arg == "--fault-seed") {
      util::expects(i + 1 < argc, "--fault-seed requires a value");
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(text, &end, 10);
      util::expects(end != text && *end == '\0' && errno != ERANGE,
                    "--fault-seed expects a non-negative integer, got '" +
                        std::string(text) + "'");
      options.fault_seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--ckpt-interval") {
      util::expects(i + 1 < argc, "--ckpt-interval requires a step count");
      options.ckpt_interval = parse_int(arg, argv[++i], 1, 1000000);
    } else if (arg == "--ckpt-auto") {
      options.ckpt_auto = true;
    } else if (arg == "--mtbf") {
      util::expects(i + 1 < argc, "--mtbf requires seconds");
      options.mtbf = parse_seconds(arg, argv[++i], false);
    } else if (arg == "--shard") {
      util::expects(i + 1 < argc, "--shard requires I/N");
      parse_shard(argv[++i], options);
    } else if (arg == "--program-cache") {
      util::expects(i + 1 < argc, "--program-cache requires a directory");
      options.program_cache_dir = argv[++i];
      util::expects(!options.program_cache_dir.empty(),
                    "--program-cache directory is empty");
    } else if (arg == "--chaos-exec") {
      util::expects(i + 1 < argc, "--chaos-exec requires a spec");
      options.chaos_exec = argv[++i];
      // Parse eagerly so grammar errors surface at startup.
      (void)ChaosExec::parse(options.chaos_exec);
    } else if (arg == "--retries") {
      util::expects(i + 1 < argc, "--retries requires a count");
      options.retries = parse_int(arg, argv[++i], 0, 100);
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      util::expects(false,
                    "unknown flag: " + std::string(arg) +
                        " (supported: --workers N, --csv PATH, "
                        "--points a=1,b=2, --point-timeout S, --retries N, "
                        "--pp N, --tp N, --dp N, "
                        "--zero none|1|2|3, --faults SPECS, "
                        "--fault-seed N, --ckpt-interval N, --ckpt-auto, "
                        "--mtbf SECONDS, --shard I/N, "
                        "--program-cache DIR, --chaos-exec SPEC)");
    } else {
      options.positional.emplace_back(arg);
    }
  }
  // Validate the checkpoint cadence eagerly so contradictions (both
  // cadences, --ckpt-auto without --mtbf) surface at startup.
  (void)options.checkpoint_policy();
  return options;
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options = parse(argc, argv, /*builds_sessions=*/true);
  options.program_cache_ = std::make_shared<runtime::ProgramCache>(
      runtime::ProgramCacheConfig{options.program_cache_dir});
  return options;
}

CliOptions parse_grid_cli(int argc, char** argv) {
  return parse(argc, argv, /*builds_sessions=*/false);
}

void reject_unused_selection(const CliOptions& options, bool selects_points,
                             bool streams_rows) {
  const auto reject = [](bool given, std::string_view flag) {
    util::expects(!given, std::string(flag) +
                              " selects grid points, and this binary runs "
                              "no selectable grid");
  };
  if (!selects_points) {
    reject(options.points_enabled(), "--points");
    reject(options.sharded(), "--shard");
  }
  util::expects(streams_rows || options.chaos_exec.empty(),
                "--chaos-exec acts on CSV rows streamed through --csv, and "
                "this run streams none");
}

void CliOptions::apply(runtime::TrainingConfig& config) const {
  parallel::ParallelConfig& parallel = config.parallel;
  if (pipeline_parallel > 0) parallel.pipeline_parallel = pipeline_parallel;
  if (tensor_parallel > 0) parallel.tensor_parallel = tensor_parallel;
  if (data_parallel > 0) parallel.data_parallel = data_parallel;
  if (zero) parallel.zero = *zero;
  if (faults_enabled()) config.faults.specs = fault::parse_faults(faults);
  if (fault_seed != 0) config.faults.seed = fault_seed;
  if (checkpoint_enabled()) config.checkpoint = checkpoint_policy();
  if (program_cache_) config.program_cache = program_cache_.get();
}

bool matches_point_filter(const CliOptions& options,
                          const SweepPoint& point) {
  for (const auto& [axis, expected] : options.point_filter) {
    // value() rejects unknown axis names (typo protection).
    if (to_string(point.value(axis)) != expected) return false;
  }
  return true;
}

std::vector<SweepPoint> select_points(const SweepSpec& spec,
                                      const CliOptions& options) {
  std::vector<SweepPoint> selected = spec.points();
  if (options.points_enabled()) {
    const std::vector<std::string> names = spec.axis_names();
    for (const auto& [axis, value] : options.point_filter) {
      (void)value;
      util::expects(
          std::find(names.begin(), names.end(), axis) != names.end(),
          "--points names unknown axis '" + axis + "'");
    }
    std::vector<SweepPoint> filtered;
    for (SweepPoint& point : selected) {
      if (matches_point_filter(options, point)) {
        filtered.push_back(std::move(point));
      }
    }
    util::check(!filtered.empty(),
                "--points selection matches no grid cell");
    selected = std::move(filtered);
  }
  if (options.sharded()) {
    // Deterministic round-robin partition of the (filtered) selection:
    // sweep_merge's interleave is exactly the inverse, restoring the
    // canonical single-process order. A shard may come up empty when there
    // are more shards than points — it writes a header-only CSV.
    std::vector<SweepPoint> shard;
    for (std::size_t j = 0; j < selected.size(); ++j) {
      if (j % static_cast<std::size_t>(options.shard_count) ==
          static_cast<std::size_t>(options.shard_index)) {
        shard.push_back(std::move(selected[j]));
      }
    }
    selected = std::move(shard);
  }
  return selected;
}

}  // namespace ssdtrain::sweep
