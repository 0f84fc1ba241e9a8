// Pipeline-parallelism study (paper §IV-D, "Impact of larger micro-batch
// size"): with a fixed per-rank mini-batch, a larger micro-batch size means
// fewer micro-batches and therefore larger 1F1B pipeline bubbles — but
// small micro-batches pay more weight-update and efficiency overhead.
// SSDTrain's memory savings let the trainer raise the micro-batch size
// without blowing the activation budget, navigating this trade-off.
//
// This example runs the full 4-stage pipeline as a measured ClusterSession
// (one executor + offloader per stage on one shared simulator) for several
// micro-batch sizes of a fixed 32-sample mini-batch (the BLOOM
// configuration the paper cites) and prints the analytical 1F1B bubble
// side by side with the measured one — the measured bubble sits above the
// ideal because pipeline sends contend with SSD offload traffic on each
// GPU's PCIe link. The micro-batch axis runs as a sweep (--workers N);
// --csv PATH dumps the series; the session flags apply to every session
// (--pp/--tp override the pipeline shape).

#include <cstdint>
#include <iostream>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sched = ssdtrain::sched;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

constexpr int kMiniBatchSamples = 32;  // per DP rank, as in BLOOM
constexpr int kLayersPerStage = 3;

struct StageResult {
  int micro_batches = 0;
  double bubble = 0.0;  ///< analytical (pp-1)/(mb+pp-1)
  rt::ClusterStepStats stats;
};

/// Runs one micro-batch size on \p base, the cluster every point shares;
/// the point sets its own model and micro-batch count.
StageResult measure(const rt::ClusterConfig& base,
                    const sweep::SweepPoint& point) {
  const std::int64_t mb_size = point.i64("micro_batch");
  StageResult result;
  result.micro_batches = kMiniBatchSamples / static_cast<int>(mb_size);

  const int stages = base.parallel.pipeline_parallel;
  rt::ClusterConfig config = base;
  config.model = m::bert_config(8192, kLayersPerStage * stages, mb_size);
  config.micro_batches = result.micro_batches;
  rt::ClusterSession session(std::move(config));

  // Step 1 traces and records every stage's program; step 2 is the
  // replayed steady state the numbers come from.
  result.stats = session.run_steps(2).back();
  result.bubble = sched::ideal_bubble_fraction(result.micro_batches, stages);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_unused_selection(options, /*selects_points=*/true);
  rt::ClusterConfig base;  // PP4 TP2 unless the session flags say otherwise
  base.parallel.tensor_parallel = 2;
  base.parallel.pipeline_parallel = 4;
  base.strategy = rt::Strategy::ssdtrain;
  base.schedule = sched::PipelineKind::one_f_one_b;
  options.apply(base);

  std::cout << "1F1B pipeline study: BERT H8192, " << kLayersPerStage
            << " layers per stage, " << base.parallel.pipeline_parallel
            << " stages, " << kMiniBatchSamples
            << "-sample mini-batch per rank\n\n";

  sweep::SweepSpec spec;
  spec.axis("micro_batch", std::vector<std::int64_t>{1, 2, 4, 8});

  sweep::SweepRunner runner(options.workers);
  const auto points = sweep::select_points(spec, options);
  const auto outcomes = runner.map(
      points,
      [&base](const sweep::SweepPoint& point) { return measure(base, point); },
      options.map_options());

  u::AsciiTable table({"micro-batch size", "micro-batches", "ideal bubble",
                       "measured bubble", "pipeline time",
                       "activation peak (stage)", "samples/s (cluster)"});
  struct Row {
    std::int64_t mb_size;
    StageResult r;
    double samples_per_s;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < points.size(); ++i) {
    u::check(outcomes[i].ok(),
             points[i].label() + " failed: " + outcomes[i].error);
    const StageResult& r = outcomes[i].get();
    // Measured full-cluster throughput: the mini-batch over the measured
    // step (compute pipeline + DP reduction + optimizer).
    const double samples_per_s =
        kMiniBatchSamples / r.stats.combined.step_time;
    rows.push_back({points[i].i64("micro_batch"), r, samples_per_s});
    table.add_row({u::label("B", points[i].i64("micro_batch")),
                   std::to_string(r.micro_batches),
                   u::format_percent(r.bubble),
                   u::format_percent(r.stats.measured_bubble),
                   u::format_time(r.stats.pipeline_time),
                   u::format_bytes(static_cast<double>(
                       r.stats.combined.activation_peak)),
                   u::format_fixed(samples_per_s, 2)});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "Larger micro-batches raise per-GPU efficiency but shrink the\n"
         "micro-batch count, inflating the pipeline bubble; the measured\n"
         "bubble sits above the ideal because boundary sends share PCIe "
         "with\nSSD offload traffic. SSDTrain's point (paper §IV-D): "
         "because offloading\nfrees activation memory, the trainer can "
         "afford larger micro-batch sizes\nAND keep enough micro-batches "
         "in flight.\n";

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"micro_batch", "micro_batches", "ideal_bubble",
                      "measured_bubble", "pipeline_time_s",
                      "activation_peak_bytes", "step_time_s",
                      "samples_per_s_cluster"});
    for (const Row& row : rows) {
      csv.add_row({std::to_string(row.mb_size),
                   std::to_string(row.r.micro_batches),
                   u::format_fixed(row.r.bubble, 6),
                   u::format_fixed(row.r.stats.measured_bubble, 6),
                   u::format_fixed(row.r.stats.pipeline_time, 9),
                   std::to_string(row.r.stats.combined.activation_peak),
                   u::format_fixed(row.r.stats.combined.step_time, 9),
                   u::format_fixed(row.samples_per_s, 6)});
    }
  }
  return 0;
}
