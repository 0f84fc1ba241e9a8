#pragma once

/// \file perf_model.hpp
/// llm-analysis-style performance model (paper §III-D): each transformer
/// layer is a simple pipeline
///     t = max( sum_l max(t_l,compute, t_l,memory), t_zero,communicate )
/// with ZeRO communication assumed perfectly pipelined at the layer level.
/// Used for the adaptive planner's budget, the Table III estimate, the
/// Fig. 5 lifespan/bandwidth projections, and the Fig. 8(b) upscaling study.

#include "ssdtrain/hw/gpu.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/parallel/collectives.hpp"
#include "ssdtrain/parallel/parallel_config.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::analysis {

struct Fabrics {
  parallel::FabricSpec tp_fabric = parallel::kNvlink;
  parallel::FabricSpec dp_fabric{util::gbps(25), util::us(10)};  // IB/node
};

struct StepEstimate {
  util::Seconds forward = 0.0;   ///< per micro-batch, this pipeline stage
  util::Seconds backward = 0.0;  ///< per micro-batch, this pipeline stage
  util::Seconds optimizer = 0.0;
  util::Seconds step = 0.0;      ///< whole step incl. pipeline fill/drain
  double pipeline_bubble_fraction = 0.0;
  util::Flops model_flops_per_step = 0.0;  ///< algorithmic, per GPU
  util::FlopsPerSecond model_throughput = 0.0;  ///< per GPU
};

/// FLOPs of one micro-batch forward through one transformer layer (per GPU,
/// i.e. divided by TP).
util::Flops layer_forward_flops(const modules::ModelConfig& model,
                                const parallel::ParallelConfig& parallel);

/// Time of one micro-batch forward through one transformer layer on this
/// GPU, including TP collectives and the ZeRO-overlap max.
util::Seconds layer_forward_time(const modules::ModelConfig& model,
                                 const parallel::ParallelConfig& parallel,
                                 const hw::Gpu& gpu, const Fabrics& fabrics);

/// Full-step estimate. \p micro_batches is the gradient-accumulation count;
/// layers are split evenly across pipeline stages.
StepEstimate estimate_step(const modules::ModelConfig& model,
                           const parallel::ParallelConfig& parallel,
                           const hw::Gpu& gpu, const Fabrics& fabrics,
                           int micro_batches = 1);

/// Activations produced per GPU per step (all micro-batches), using the
/// closed-form activation model.
util::Bytes activations_per_gpu_step(const modules::ModelConfig& model,
                                     const parallel::ParallelConfig& parallel,
                                     int micro_batches = 1);

/// Required PCIe write bandwidth per GPU: the paper models it as the total
/// activation volume divided by *half* the training step time (§III-D).
util::BytesPerSecond required_write_bandwidth(
    util::Bytes activation_bytes_per_step, util::Seconds step_time);

}  // namespace ssdtrain::analysis
