#pragma once

/// \file cli.hpp
/// Shared command-line handling for the bench and example binaries. Every
/// flag is one of two kinds.
///
/// Grid flags shape how a binary runs its sweep. Every binary parses them;
/// each acts in the binaries named with it:
///   --workers N         worker threads for the SweepRunner (default: all
///                       cores); every binary except bench_program_cache,
///                       bench_sim_core, bench_step_replay and
///                       bench_sweep_scaling, which pick their own
///   --csv PATH          dump the data series as CSV via util::CsvWriter
///                       (every binary); when PATH already holds rows from
///                       an earlier run, benches wired for resume skip the
///                       completed points and append only the missing ones
///   --points a=1,b=2    run only the grid cells whose coordinates match
///                       every listed axis=value pair (repeatable; values
///                       compare by their axis to_string form); binaries
///                       that call select_points: bench_checkpoint,
///                       bench_cluster_scale, bench_moe_offload,
///                       bench_resilience, example_pipeline_bubbles
///   --point-timeout S   wall-clock budget per sweep point in seconds;
///                       over-budget points are recorded as errors instead
///                       of hanging the batch (0 = no timeout)
///   --retries N         re-run a throwing point up to N extra times
///                       (these two: every binary that takes --workers,
///                       plus bench_sweep_scaling)
///   --shard I/N         run only this process's 1/N slice of the grid:
///                       after --points filtering, position j of the
///                       selection belongs to shard j mod N. Shards are
///                       independent OS processes; tools/sweep_merge
///                       reassembles their CSVs into the canonical
///                       single-process row order, byte-identically; the
///                       binaries that take --points
///   --chaos-exec SPEC   self-inflicted chaos for orchestrator testing
///                       (sweep::ChaosExec grammar: "kill:after=N[,tear=1]"
///                       or "stall:after=N"): benches that stream their CSV
///                       rows through sweep::CsvProgress
///                       (bench_cluster_scale, bench_moe_offload, with
///                       --csv) SIGKILL/SIGSTOP themselves after committing
///                       N rows. Normally injected by sweep_orchestrate's
///                       seeded --chaos engine (grammar:
///                       "kind:rate=P[,after=N][,tear=1][,kind:rate=P...]"
///                       with kinds kill|stall, seeded by --chaos-seed),
///                       not typed by hand
/// A binary (or mode) outside the lists of --points, --shard and
/// --chaos-exec refuses them at startup through reject_unused_selection
/// rather than running its whole grid.
///
/// Session flags reach every session a binary builds, through
/// CliOptions::apply. All 14 session-building binaries honour all of them
/// (twelve benches, example_pipeline_bubbles and example_rok_explorer);
/// bench_fig1_trends, bench_fig5_lifespan, bench_fig8b_upscale and
/// bench_sim_core build no session and parse with parse_grid_cli, which
/// rejects them at startup. Unset, each leaves the bench's own default in
/// place, so golden CSVs reproduce bit-for-bit without the flags:
///   --pp N / --tp N / --dp N
///                       pipeline / tensor / data parallelism
///   --zero none|1|2|3   ZeRO stage
///   --faults SPECS      seeded fault injection: a semicolon-separated
///                       FaultSpec list; unset = no injector, byte-identical
///                       output. Full grammar (fault::parse_faults):
///                         kind[:key=value[,key=value...]][;kind...]
///                       kinds: ssd-latency (needs latency=SECONDS),
///                       ssd-derate / pcie-derate / nvlink-derate /
///                       dp-derate (factor in (0,1]), gpu-straggler
///                       (factor >= 1), io-error (rate in (0,1]),
///                       ssd-dropout (member=I), stage-crash (needs
///                       dur=SECONDS)
///                       common keys: gpu=G (-1 = all, the default),
///                       at=SECONDS, dur=SECONDS
///                       stage-crash only: lose=none|state (state wipes
///                       the stage's device state — needs a checkpoint
///                       policy to recover), recover=resume|rollback
///                       (implied by lose; resume+lose=state and
///                       rollback+lose=none are rejected)
///   --fault-seed N      seed for the injector's RNG (default 0); identical
///                       seeds reproduce bit-identical fault runs
///   --ckpt-interval N   crash-consistent checkpoint to the offload SSDs
///                       every N completed steps (shadow write + atomic
///                       manifest flip; flows contend with activation
///                       offload and age the NAND). Unset = no
///                       checkpointing, byte-identical output
///   --ckpt-auto         Young–Daly auto cadence: the first boundary
///                       commits to measure the checkpoint cost C, then
///                       the interval is sqrt(2*C*MTBF). Requires --mtbf
///   --mtbf SECONDS      mean time between failures assumed by --ckpt-auto
///   --program-cache DIR adds a disk tier to the process-wide StepProgram
///                       cache every session shares: sessions consult DIR
///                       before tracing and publish new recordings there
///                       (atomic rename-on-write), so sibling shards and
///                       later runs skip the trace step of any
///                       configuration already seen
/// plus its own positional arguments, which are passed through untouched.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/parallel/parallel_config.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"

namespace ssdtrain::runtime {
struct TrainingConfig;  // runtime/stage.hpp
class ProgramCache;     // runtime/program_cache.hpp
}  // namespace ssdtrain::runtime

namespace ssdtrain::sweep {

struct CliOptions {
  std::size_t workers = 0;  ///< 0 = one worker per hardware thread
  std::string csv_path;     ///< empty = no CSV output
  double point_timeout = 0.0;  ///< seconds; 0 = no per-point timeout
  int retries = 0;             ///< extra attempts for throwing points
  /// --points constraints, in order of appearance.
  std::vector<std::pair<std::string, std::string>> point_filter;
  std::vector<std::string> positional;
  // --pp/--tp/--dp/--zero parallelism overrides; 0 / nullopt = unset.
  int pipeline_parallel = 0;
  int tensor_parallel = 0;
  int data_parallel = 0;
  std::optional<parallel::ZeroStage> zero;
  /// --faults spec text (empty = injection disabled) and --fault-seed.
  std::string faults;
  std::uint64_t fault_seed = 0;
  /// --ckpt-interval / --ckpt-auto / --mtbf checkpoint cadence; all unset
  /// by default (no checkpointing — golden CSVs reproduce bit-for-bit).
  int ckpt_interval = 0;
  bool ckpt_auto = false;
  double mtbf = 0.0;
  /// --shard I/N slice of the (filtered) grid this process runs.
  int shard_index = 0;
  int shard_count = 1;
  /// --program-cache directory (empty = in-process tier only).
  std::string program_cache_dir;
  /// --chaos-exec spec text ("" = disabled); parsed eagerly at startup.
  std::string chaos_exec;

  [[nodiscard]] bool csv_enabled() const { return !csv_path.empty(); }
  [[nodiscard]] bool sharded() const { return shard_count > 1; }
  [[nodiscard]] bool faults_enabled() const { return !faults.empty(); }
  [[nodiscard]] bool checkpoint_enabled() const {
    return ckpt_interval > 0 || ckpt_auto;
  }

  /// Parsed --ckpt-interval/--ckpt-auto/--mtbf as the policy sessions
  /// take (disabled when neither cadence flag was given). validate()
  /// rejects contradictory combinations at startup.
  [[nodiscard]] ckpt::CheckpointPolicy checkpoint_policy() const {
    ckpt::CheckpointPolicy policy;
    policy.every_steps = ckpt_interval;
    policy.auto_interval = ckpt_auto;
    policy.mtbf = mtbf;
    policy.validate();
    return policy;
  }

  [[nodiscard]] bool points_enabled() const { return !point_filter.empty(); }
  [[nodiscard]] bool parallel_overridden() const {
    return pipeline_parallel > 0 || tensor_parallel > 0 ||
           data_parallel > 0 || zero.has_value();
  }

  /// The one place the session flags become session config. Overwrites
  /// only the fields whose flags were given — parallelism, the fault specs
  /// and seed, the checkpoint policy — leaving the bench's defaults in
  /// place otherwise (the golden-CSV compatibility contract), and hands
  /// every session the process-wide program cache parse_cli built (a hit
  /// replays bit-identically to a trace). The options, or a copy, own that
  /// cache and must outlive the sessions. Bench-specific overrides run
  /// after it.
  void apply(runtime::TrainingConfig& config) const;

  /// The per-point policy for SweepRunner::map/run.
  [[nodiscard]] MapOptions map_options() const {
    return MapOptions{point_timeout, retries};
  }

 private:
  friend CliOptions parse_cli(int argc, char** argv);

  /// Null unless parse_cli built it; shared by every copy of the options.
  std::shared_ptr<runtime::ProgramCache> program_cache_;
};

/// Parses argv. Unknown "--flag" arguments are contract violations;
/// anything else lands in `positional` in order. Builds the process-wide
/// program cache that apply() hands to every session.
CliOptions parse_cli(int argc, char** argv);

/// parse_cli for the binaries that build no session: a session flag is a
/// contract violation naming it, rather than being parsed and dropped.
CliOptions parse_grid_cli(int argc, char** argv);

/// The selection-flag counterpart of parse_grid_cli's session check, for
/// binaries that would parse a selection flag and drop it: --points and
/// --shard act only where select_points runs (\p selects_points), and
/// --chaos-exec only where CSV rows stream through CsvProgress
/// (\p streams_rows). Any other selection flag given is a contract
/// violation naming it.
void reject_unused_selection(const CliOptions& options,
                             bool selects_points = false,
                             bool streams_rows = false);

/// True when \p point satisfies every --points constraint (vacuously true
/// without --points). Constraint keys must name axes of the point.
bool matches_point_filter(const CliOptions& options, const SweepPoint& point);

/// The spec's grid restricted to the --points selection (whole grid when no
/// --points was given), then to this process's --shard slice: position j of
/// the selection belongs to shard j mod shard_count, preserving order.
/// Constraint keys are validated against the spec's axis names, and an
/// empty --points selection is a contract violation (the requested cell
/// does not exist); an empty *shard* of a non-empty selection is fine (more
/// shards than points).
std::vector<SweepPoint> select_points(const SweepSpec& spec,
                                      const CliOptions& options);

}  // namespace ssdtrain::sweep
