#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "wsim/kernels/common.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/occupancy.hpp"

namespace wsim::fleet {

/// Analytic per-iteration latency (cycles) of one communication design on
/// one device, read off the device's latency table — the paper's
/// critical-path estimates (Section IV): SW1 spends 6 shared-memory
/// accesses plus one barrier per anti-diagonal, SW2 two shuffles plus four
/// register ops; the PairHMM designs scale the same pattern to the
/// three-matrix recurrence.
double sw_iteration_latency(const simt::DeviceSpec& device,
                            kernels::CommMode mode);
double ph_iteration_latency(const simt::DeviceSpec& device,
                            kernels::PhDesign design);

/// Eq. 7/8 prediction for one (device, kernel design): occupancy computed
/// from the actual compiled kernel's register/shared-memory footprint
/// (Eq. 8), latency from the table above, performance = parallelism x
/// frequency / latency (Eq. 7), reported in GCUPS.
double predicted_sw_gcups(const simt::DeviceSpec& device,
                          kernels::CommMode mode);
double predicted_ph_gcups(const simt::DeviceSpec& device,
                          kernels::PhDesign design);

/// The Table II decision made by the model instead of by measurement:
/// evaluate both communication designs on the device and keep the faster
/// prediction per kernel. This is what lets a heterogeneous fleet run
/// shuffle on Maxwell while an architecture where shared memory wins would
/// get the shared-memory variant — per device, not per fleet.
struct VariantChoice {
  kernels::CommMode sw_design = kernels::CommMode::kShuffle;
  kernels::PhDesign ph_design = kernels::PhDesign::kShuffle;
  double sw_gcups = 0.0;  ///< prediction of the chosen SW design
  double ph_gcups = 0.0;  ///< prediction of the chosen PairHMM design
};

VariantChoice pick_variants(const simt::DeviceSpec& device);

/// Predicted service seconds of a batch of `cells` DP cells at a predicted
/// rate of `gcups`: cells / rate plus the device's fixed launch and PCIe
/// round-trip overheads. Used by model-guided placement to estimate finish
/// times; the reported timings always come from the simulator itself.
double predicted_batch_seconds(const simt::DeviceSpec& device, double gcups,
                               std::size_t cells);

// ---------------------------------------------------------------------------
// Intra- vs inter-task regime model (the 2-D router)
// ---------------------------------------------------------------------------

/// How the fleet parallelizes SW batches: task-per-block (inter-task), the
/// wavefront tile subsystem (intra-task), or the model's per-batch choice.
enum class ParallelismPolicy {
  kAuto,       ///< pick_parallelism decides per (length, batch, device)
  kInterTask,  ///< always task-per-block
  kIntraTask,  ///< always wavefront tiles
};

std::string_view to_string(ParallelismPolicy policy) noexcept;

/// {"auto", "inter", "intra"}.
const std::vector<std::string>& parallelism_policy_names();

/// Lookup by CLI name; throws util::CheckError listing the valid names.
ParallelismPolicy parallelism_policy_by_name(std::string_view name);

/// The concrete decision pick_parallelism makes for one batch.
enum class ParallelMode { kInterTask, kIntraTask };

std::string_view to_string(ParallelMode mode) noexcept;

/// Critical-path latency (cycles) of one wavefront anti-diagonal step, read
/// off the device latency table the same way sw_iteration_latency reads the
/// task-per-block designs: the shuffle tile moves four lane-boundary values
/// (H left, H diagonal, E, gap-run length) per step plus register traffic;
/// the shared-memory tile replaces them with line-buffer loads/stores and a
/// barrier; the naive host-sync loop touches every operand in global memory.
double wf_iteration_latency(const simt::DeviceSpec& device,
                            kernels::WfVariant variant);

/// Eq. 7/8 prediction for one wavefront variant: occupancy from the compiled
/// tile (or per-diagonal) kernel's footprint, latency from the table above.
double predicted_wf_gcups(const simt::DeviceSpec& device,
                          kernels::WfVariant variant);

/// Per-device precomputation for the regime decision: the winning design of
/// each subsystem with its occupancy and critical-path latency. Building one
/// compiles four kernels, so the fleet caches it per worker.
struct IntraTaskModel {
  kernels::CommMode sw_design = kernels::CommMode::kShuffle;
  kernels::WfVariant wf_variant = kernels::WfVariant::kShuffle;
  int tile_rows = kernels::kWfTileRows;
  double sw_latency = 0.0;  ///< cycles per anti-diagonal, task-per-block
  double wf_latency = 0.0;  ///< cycles per anti-diagonal, wavefront tile
  simt::Occupancy sw_occupancy;
  simt::Occupancy wf_occupancy;
  int sw_threads_per_block = 32;
  int wf_threads_per_block = 32;
  /// Calibration scales (all 1.0 = the raw analytic model). The cell
  /// scales multiply each regime's compute term; the wave-overhead scale
  /// multiplies the intra-task per-wave launch cost — the term the static
  /// model over-charges at the 512 bp / small-batch corner, where partial
  /// tiles pipeline better than whole-tile derating predicts. The model's
  /// bias is saturation-dependent — an under-filled device (launched
  /// threads below the Eq. 8 occupancy bound) runs far closer to the
  /// analytic prediction than a saturated one — so each decomposition
  /// carries a separate fill-regime scale; the plain cell scales apply
  /// only once the occupancy bound is the binding limit. Set offline by
  /// calibrate_intra_model (fit to a measured regime map) or online by
  /// the fleet's Calibrator factors.
  double inter_cell_scale = 1.0;
  double intra_cell_scale = 1.0;
  double wave_overhead_scale = 1.0;
  double inter_fill_scale = 1.0;
  double intra_fill_scale = 1.0;
};

IntraTaskModel build_intra_task_model(const simt::DeviceSpec& device,
                                      int tile_rows = kernels::kWfTileRows);

/// The two unscaled components of the intra-task prediction, split so the
/// calibration fit can weight them independently: `cell_seconds` is the
/// pipeline-derated compute term, `overhead_seconds` the per-wave launch
/// plus PCIe cost.
struct IntraBatchTerms {
  double cell_seconds = 0.0;
  double overhead_seconds = 0.0;
  /// True when the wave exposes at least the occupancy bound's threads —
  /// the regime where intra_cell_scale (not intra_fill_scale) applies.
  bool saturated = false;
};

IntraBatchTerms intra_batch_terms(const simt::DeviceSpec& device,
                                  const IntraTaskModel& model, std::size_t m,
                                  std::size_t n, std::size_t batch);

/// One measured regime-map point used by calibrate_intra_model.
struct RegimeSample {
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t batch = 0;
  double inter_seconds = 0.0;  ///< measured task-per-block batch time
  double intra_seconds = 0.0;  ///< measured best-wavefront batch time
};

/// Fits the model's calibration scales to measured batch times. The
/// samples are split by saturation regime (launched threads vs the Eq. 8
/// occupancy bound) because the analytic model's bias differs sharply
/// between an under-filled and a saturated device: the inter-task scales
/// are per-regime mean measured/predicted ratios of the compute term, and
/// the intra-task scales solve the relative (1/measured^2-weighted)
/// least-squares fit  measured ~ a*cell_sat + a_fill*cell_fill +
/// b*overhead  over all samples (normal equations; scales clamped to a
/// sane positive range). This is the offline counterpart of the fleet's
/// online Calibrator: it closes exactly the regime-map corners where the
/// static pipeline fill/drain and per-wave overhead terms are wrong.
/// Returns `model` with the five scales replaced.
IntraTaskModel calibrate_intra_model(const simt::DeviceSpec& device,
                                     const IntraTaskModel& model,
                                     const std::vector<RegimeSample>& samples);

/// Predicted seconds for a batch of `batch` M x N tasks under each regime.
///
/// Inter-task: parallelism is the Eq. 8 occupancy bound clamped by the
/// launched threads (batch blocks x 32 threads) — a batch of four long reads
/// can only ever update 128 cells per cycle no matter the device.
///
/// Intra-task: parallelism is the occupancy bound clamped by
/// batch x avg_wave_tiles x 32 (tiles independent within a wave), derated by
/// the tile pipeline fill/drain factor rows / (rows + 31), and the fixed
/// overhead is paid once per *wave* launch rather than once per batch.
double predicted_inter_batch_seconds(const simt::DeviceSpec& device,
                                     const IntraTaskModel& model,
                                     std::size_t m, std::size_t n,
                                     std::size_t batch);
double predicted_intra_batch_seconds(const simt::DeviceSpec& device,
                                     const IntraTaskModel& model,
                                     std::size_t m, std::size_t n,
                                     std::size_t batch);

/// The 2-D regime decision (paper Eq. 7/8 applied to both decompositions):
/// short-read / large-batch points keep task-per-block, long-read /
/// small-batch points flip to the wavefront subsystem. Ties keep inter-task
/// (the battle-tested path).
ParallelMode pick_parallelism(const simt::DeviceSpec& device,
                              const IntraTaskModel& model, std::size_t m,
                              std::size_t n, std::size_t batch);

/// Convenience overload that builds the model on the spot (compiles kernels
/// — prefer the cached-model overload in hot paths).
ParallelMode pick_parallelism(const simt::DeviceSpec& device, std::size_t m,
                              std::size_t n, std::size_t batch);

// ---------------------------------------------------------------------------
// Per-device plan (what a fleet worker derives from the model)
// ---------------------------------------------------------------------------

/// Everything one fleet worker takes from the model for its device: the
/// designs it runs (the pinned ones, the rest chosen as pick_variants and
/// build_intra_task_model would), their Eq. 7/8 rates, the regime
/// model describing exactly those kernels, and the runners that execute
/// them.
struct DevicePlan {
  kernels::CommMode sw_design = kernels::CommMode::kShuffle;
  kernels::PhDesign ph_design = kernels::PhDesign::kShuffle;
  kernels::WfVariant wf_variant = kernels::WfVariant::kShuffle;
  double sw_gcups = 0.0;  ///< == predicted_sw_gcups(device, sw_design)
  double ph_gcups = 0.0;  ///< == predicted_ph_gcups(device, ph_design)
  IntraTaskModel intra;
  kernels::SwRunner sw_runner;
  kernels::PhRunner ph_runner;
  kernels::WavefrontSwRunner wf_runner;
};

/// Builds the plan compiling each distinct kernel once: the model reads
/// occupancy off the same kernels the runners keep, so a plan costs the
/// runners' kernels plus one losing candidate per subsystem — not a fresh
/// compile per prediction.
DevicePlan plan_device(const simt::DeviceSpec& device,
                       std::optional<kernels::CommMode> sw_pin = std::nullopt,
                       std::optional<kernels::PhDesign> ph_pin = std::nullopt,
                       std::optional<kernels::WfVariant> wf_pin = std::nullopt);

}  // namespace wsim::fleet
