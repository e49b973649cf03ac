#include "wsim/fleet/router.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>

#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/model/perf_model.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/util/check.hpp"

namespace wsim::fleet {

double sw_iteration_latency(const simt::DeviceSpec& device,
                            kernels::CommMode mode) {
  const auto& lat = device.lat;
  switch (mode) {
    case kernels::CommMode::kSharedMemory:
      // SW1: 4 loads + 2 stores to the rotating line buffers plus the
      // per-diagonal barrier (the paper's 183-cycle K1200 estimate).
      return 4.0 * lat.smem_load + 2.0 * lat.smem_store + lat.sync_barrier;
    case kernels::CommMode::kShuffle:
      // SW2: two shuffles and four register operations (22 cycles on
      // K1200 in the paper's estimate).
      return 2.0 * lat.shfl_up + 4.0 * lat.reg_access;
  }
  throw util::CheckError("sw_iteration_latency: unknown CommMode");
}

double ph_iteration_latency(const simt::DeviceSpec& device,
                            kernels::PhDesign design) {
  const auto& lat = device.lat;
  switch (design) {
    case kernels::PhDesign::kShared:
      // PH1: the M/I/D recurrence reads six neighbour values from and
      // writes three to the nine rotating line buffers, with a barrier
      // per anti-diagonal and two dependent FP stages.
      return 6.0 * lat.smem_load + 3.0 * lat.smem_store + lat.sync_barrier +
             2.0 * lat.falu;
    case kernels::PhDesign::kShuffle:
      // PH2: three boundary shuffles (M/I/D), register traffic, and the
      // same FP recurrence depth.
      return 3.0 * lat.shfl_up + 6.0 * lat.reg_access + 2.0 * lat.falu;
    case kernels::PhDesign::kHybrid:
      // The rejected design pays both a barrier and the shuffles.
      return 3.0 * lat.shfl_up + 2.0 * lat.smem_load + lat.sync_barrier +
             2.0 * lat.falu;
  }
  throw util::CheckError("ph_iteration_latency: unknown PhDesign");
}

namespace {

/// Eq. 7/8 rate of an already-compiled kernel: occupancy from its
/// register/shared-memory footprint, `latency` from the device table.
double gcups_of(const simt::DeviceSpec& device, const simt::Kernel& kernel,
                double latency) {
  return model::predict_gcups(device, simt::compute_occupancy(device, kernel),
                              latency);
}

/// The Table II decisions on compiled candidates: the faster prediction
/// and its rate, shuffle on ties.
std::pair<kernels::CommMode, double> choose_sw(const simt::DeviceSpec& device,
                                               const simt::Kernel& shared,
                                               const simt::Kernel& shuffle) {
  const double shared_gcups = gcups_of(
      device, shared, sw_iteration_latency(device, kernels::CommMode::kSharedMemory));
  const double shuffle_gcups = gcups_of(
      device, shuffle, sw_iteration_latency(device, kernels::CommMode::kShuffle));
  return {shuffle_gcups >= shared_gcups ? kernels::CommMode::kShuffle
                                        : kernels::CommMode::kSharedMemory,
          std::max(shared_gcups, shuffle_gcups)};
}

std::pair<kernels::PhDesign, double> choose_ph(const simt::DeviceSpec& device,
                                               const simt::Kernel& shared,
                                               const simt::Kernel& shuffle) {
  const double shared_gcups = gcups_of(
      device, shared, ph_iteration_latency(device, kernels::PhDesign::kShared));
  const double shuffle_gcups = gcups_of(
      device, shuffle, ph_iteration_latency(device, kernels::PhDesign::kShuffle));
  return {shuffle_gcups >= shared_gcups ? kernels::PhDesign::kShuffle
                                        : kernels::PhDesign::kShared,
          std::max(shared_gcups, shuffle_gcups)};
}

/// Representative PairHMM kernel of a design: full-length reads (128
/// rows), i.e. 128 threads/block for PH1 and 4 cells/thread for PH2.
simt::Kernel build_ph_representative(kernels::PhDesign design) {
  return kernels::build_ph_variant_kernel(design, kernels::kPhVariants - 1);
}

}  // namespace

double predicted_sw_gcups(const simt::DeviceSpec& device,
                          kernels::CommMode mode) {
  return gcups_of(device, kernels::build_sw_kernel(mode, {}),
                  sw_iteration_latency(device, mode));
}

double predicted_ph_gcups(const simt::DeviceSpec& device,
                          kernels::PhDesign design) {
  return gcups_of(device, build_ph_representative(design),
                  ph_iteration_latency(device, design));
}

VariantChoice pick_variants(const simt::DeviceSpec& device) {
  VariantChoice choice;
  std::tie(choice.sw_design, choice.sw_gcups) =
      choose_sw(device, kernels::build_sw_kernel(kernels::CommMode::kSharedMemory, {}),
                kernels::build_sw_kernel(kernels::CommMode::kShuffle, {}));
  std::tie(choice.ph_design, choice.ph_gcups) =
      choose_ph(device, build_ph_representative(kernels::PhDesign::kShared),
                build_ph_representative(kernels::PhDesign::kShuffle));
  return choice;
}

double predicted_batch_seconds(const simt::DeviceSpec& device, double gcups,
                               std::size_t cells) {
  util::require(gcups > 0.0, "predicted_batch_seconds: gcups must be > 0");
  const double fixed =
      (device.kernel_launch_overhead_us + 2.0 * device.pcie_latency_us) * 1e-6;
  return static_cast<double>(cells) / (gcups * 1e9) + fixed;
}

// ---------------------------------------------------------------------------
// Intra- vs inter-task regime model
// ---------------------------------------------------------------------------

std::string_view to_string(ParallelismPolicy policy) noexcept {
  switch (policy) {
    case ParallelismPolicy::kAuto:
      return "auto";
    case ParallelismPolicy::kInterTask:
      return "inter";
    case ParallelismPolicy::kIntraTask:
      return "intra";
  }
  return "?";
}

const std::vector<std::string>& parallelism_policy_names() {
  static const std::vector<std::string> names = {"auto", "inter", "intra"};
  return names;
}

ParallelismPolicy parallelism_policy_by_name(std::string_view name) {
  if (name == "auto") {
    return ParallelismPolicy::kAuto;
  }
  if (name == "inter") {
    return ParallelismPolicy::kInterTask;
  }
  if (name == "intra") {
    return ParallelismPolicy::kIntraTask;
  }
  std::string valid;
  for (const std::string& n : parallelism_policy_names()) {
    if (!valid.empty()) {
      valid += ", ";
    }
    valid += n;
  }
  throw util::CheckError("unknown parallelism policy '" + std::string(name) +
                         "' (valid policies: " + valid + ")");
}

std::string_view to_string(ParallelMode mode) noexcept {
  return mode == ParallelMode::kIntraTask ? "intra" : "inter";
}

double wf_iteration_latency(const simt::DeviceSpec& device,
                            kernels::WfVariant variant) {
  const auto& lat = device.lat;
  switch (variant) {
    case kernels::WfVariant::kShuffle:
      // Four shfl_up hops per step (H left, H diagonal, E, gap-run length)
      // plus the register rotation — twice the boundary traffic of the
      // task-per-block SW2 design, because a tile imports the full left
      // *and* diagonal state instead of keeping it lane-local.
      return 4.0 * lat.shfl_up + 4.0 * lat.reg_access;
    case kernels::WfVariant::kSharedMemory:
      // Four line-buffer loads, three stores, and the per-step barrier.
      return 4.0 * lat.smem_load + 3.0 * lat.smem_store + lat.sync_barrier;
    case kernels::WfVariant::kHostSyncNaive:
      // Every H/E/F neighbour read and every state write round-trips
      // global memory (best case: warm 128 B segments). The per-diagonal
      // relaunch cost is charged separately, per launch, by
      // predicted_intra_batch_seconds — this is only the in-kernel path.
      return 7.0 * lat.gmem_load_cached + 6.0 * lat.gmem_store;
  }
  throw util::CheckError("wf_iteration_latency: unknown WfVariant");
}

double predicted_wf_gcups(const simt::DeviceSpec& device,
                          kernels::WfVariant variant) {
  return gcups_of(device, kernels::build_wf_sw_kernel(variant, {}),
                  wf_iteration_latency(device, variant));
}

namespace {

/// The wavefront decision on compiled tile candidates. The naive variant
/// is never a candidate: it exists to be beaten.
kernels::WfVariant choose_wf(const simt::DeviceSpec& device,
                             const simt::Kernel& shuffle,
                             const simt::Kernel& shared) {
  const double wf_shuffle = gcups_of(
      device, shuffle, wf_iteration_latency(device, kernels::WfVariant::kShuffle));
  const double wf_shared = gcups_of(
      device, shared, wf_iteration_latency(device, kernels::WfVariant::kSharedMemory));
  return wf_shuffle >= wf_shared ? kernels::WfVariant::kShuffle
                                 : kernels::WfVariant::kSharedMemory;
}

/// The regime model for fixed designs; `sw` and `wf` are the compiled
/// kernels of `sw_design` and `wf_variant`.
IntraTaskModel intra_model(const simt::DeviceSpec& device, int tile_rows,
                           kernels::CommMode sw_design, const simt::Kernel& sw,
                           kernels::WfVariant wf_variant, const simt::Kernel& wf) {
  util::require(tile_rows >= 1, "build_intra_task_model: tile_rows must be >= 1");
  IntraTaskModel model;
  model.tile_rows = tile_rows;
  model.sw_design = sw_design;
  model.sw_latency = sw_iteration_latency(device, sw_design);
  model.sw_occupancy = simt::compute_occupancy(device, sw);
  model.sw_threads_per_block = sw.threads_per_block();
  model.wf_variant = wf_variant;
  model.wf_latency = wf_iteration_latency(device, wf_variant);
  model.wf_occupancy = simt::compute_occupancy(device, wf);
  model.wf_threads_per_block = wf.threads_per_block();
  return model;
}

}  // namespace

IntraTaskModel build_intra_task_model(const simt::DeviceSpec& device,
                                      int tile_rows) {
  const simt::Kernel sw_shared =
      kernels::build_sw_kernel(kernels::CommMode::kSharedMemory, {});
  const simt::Kernel sw_shuffle =
      kernels::build_sw_kernel(kernels::CommMode::kShuffle, {});
  const simt::Kernel wf_shuffle =
      kernels::build_wf_sw_kernel(kernels::WfVariant::kShuffle, {});
  const simt::Kernel wf_shared =
      kernels::build_wf_sw_kernel(kernels::WfVariant::kSharedMemory, {});
  const kernels::CommMode sw = choose_sw(device, sw_shared, sw_shuffle).first;
  const kernels::WfVariant wf = choose_wf(device, wf_shuffle, wf_shared);
  return intra_model(device, tile_rows, sw,
                     sw == kernels::CommMode::kShuffle ? sw_shuffle : sw_shared, wf,
                     wf == kernels::WfVariant::kShuffle ? wf_shuffle : wf_shared);
}

DevicePlan plan_device(const simt::DeviceSpec& device,
                       std::optional<kernels::CommMode> sw_pin,
                       std::optional<kernels::PhDesign> ph_pin,
                       std::optional<kernels::WfVariant> wf_pin) {
  // Every candidate is compiled once. The SW and wavefront candidates are
  // whole runners, so the chosen ones serve the device as they are; the
  // PairHMM candidates are each design's widest variant, which the chosen
  // PhRunner adopts.
  kernels::SwRunner sw_shared(kernels::CommMode::kSharedMemory);
  kernels::SwRunner sw_shuffle(kernels::CommMode::kShuffle);
  simt::Kernel ph_shared = build_ph_representative(kernels::PhDesign::kShared);
  simt::Kernel ph_shuffle = build_ph_representative(kernels::PhDesign::kShuffle);
  kernels::WavefrontSwRunner wf_shuffle(kernels::WfVariant::kShuffle);
  kernels::WavefrontSwRunner wf_shared(kernels::WfVariant::kSharedMemory);

  const kernels::CommMode sw = sw_pin.value_or(
      choose_sw(device, sw_shared.kernel(), sw_shuffle.kernel()).first);
  const kernels::PhDesign ph =
      ph_pin.value_or(choose_ph(device, ph_shared, ph_shuffle).first);
  const kernels::WfVariant wf =
      wf_pin.value_or(choose_wf(device, wf_shuffle.kernel(), wf_shared.kernel()));

  kernels::SwRunner& sw_runner =
      sw == kernels::CommMode::kShuffle ? sw_shuffle : sw_shared;
  std::optional<kernels::WavefrontSwRunner> wf_naive;
  kernels::WavefrontSwRunner& wf_runner =
      wf == kernels::WfVariant::kShuffle        ? wf_shuffle
      : wf == kernels::WfVariant::kSharedMemory ? wf_shared
                                                : wf_naive.emplace(wf);
  simt::Kernel ph_widest = ph == kernels::PhDesign::kShared    ? std::move(ph_shared)
                           : ph == kernels::PhDesign::kShuffle ? std::move(ph_shuffle)
                                                               : build_ph_representative(ph);

  // The regime model and rates describe the kernels this worker will
  // actually run, pinned designs included.
  const IntraTaskModel intra = intra_model(device, kernels::kWfTileRows, sw,
                                           sw_runner.kernel(), wf, wf_runner.kernel());
  const double sw_gcups =
      gcups_of(device, sw_runner.kernel(), sw_iteration_latency(device, sw));
  const double ph_gcups =
      gcups_of(device, ph_widest, ph_iteration_latency(device, ph));
  return DevicePlan{sw,
                    ph,
                    wf,
                    sw_gcups,
                    ph_gcups,
                    intra,
                    std::move(sw_runner),
                    kernels::PhRunner(ph, std::move(ph_widest)),
                    std::move(wf_runner)};
}

namespace {

double fixed_overhead_seconds(const simt::DeviceSpec& device,
                              std::size_t launches) {
  return (static_cast<double>(launches) * device.kernel_launch_overhead_us +
          2.0 * device.pcie_latency_us) *
         1e-6;
}

}  // namespace

double predicted_inter_batch_seconds(const simt::DeviceSpec& device,
                                     const IntraTaskModel& model,
                                     std::size_t m, std::size_t n,
                                     std::size_t batch) {
  util::require(m >= 1 && n >= 1 && batch >= 1,
                "predicted_inter_batch_seconds: need m, n, batch >= 1");
  // Eq. 8 occupancy bound clamped by what the batch actually launches: one
  // block per task, so a 4-task batch of long reads exposes 128 threads no
  // matter how many SMs the device has.
  const auto parallelism =
      static_cast<double>(model::effective_parallelism(
          device, model.sw_occupancy, batch, model.sw_threads_per_block));
  const double cups =
      parallelism * device.clock_ghz * 1e9 / model.sw_latency;
  const double cells =
      static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(batch);
  const bool saturated =
      parallelism >=
      static_cast<double>(model.sw_occupancy.parallelism(device));
  const double scale =
      saturated ? model.inter_cell_scale : model.inter_fill_scale;
  return scale * (cells / cups) + fixed_overhead_seconds(device, 1);
}

IntraBatchTerms intra_batch_terms(const simt::DeviceSpec& device,
                                  const IntraTaskModel& model, std::size_t m,
                                  std::size_t n, std::size_t batch) {
  util::require(m >= 1 && n >= 1 && batch >= 1,
                "intra_batch_terms: need m, n, batch >= 1");
  const kernels::WfGeometry geom = kernels::wf_geometry(m, n, model.tile_rows);
  // Wave-level block parallelism: every task contributes its independent
  // tiles of the current wave, 32 lanes each.
  const double wave_threads = static_cast<double>(batch) *
                              geom.avg_wave_tiles() * 32.0;
  const double occupancy_bound =
      static_cast<double>(model.wf_occupancy.parallelism(device));
  const double parallelism = std::min(occupancy_bound, wave_threads);
  // Pipeline fill/drain derating: a tile of `rows` rows runs rows + 31
  // steps, so only rows / (rows + 31) of lane-steps update cells.
  const double rows = static_cast<double>(
      std::min<std::size_t>(static_cast<std::size_t>(model.tile_rows), m));
  const double pipeline_eff = rows / (rows + 31.0);
  const double cups =
      parallelism * pipeline_eff * device.clock_ghz * 1e9 / model.wf_latency;
  const double cells =
      static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(batch);
  // One launch per wave: the host-side cost that keeps intra-task out of
  // the short-read regime even where its parallelism looks competitive.
  return {cells / cups, fixed_overhead_seconds(device, geom.waves),
          wave_threads >= occupancy_bound};
}

double predicted_intra_batch_seconds(const simt::DeviceSpec& device,
                                     const IntraTaskModel& model,
                                     std::size_t m, std::size_t n,
                                     std::size_t batch) {
  const IntraBatchTerms terms = intra_batch_terms(device, model, m, n, batch);
  const double cell_scale =
      terms.saturated ? model.intra_cell_scale : model.intra_fill_scale;
  return cell_scale * terms.cell_seconds +
         model.wave_overhead_scale * terms.overhead_seconds;
}

IntraTaskModel calibrate_intra_model(const simt::DeviceSpec& device,
                                     const IntraTaskModel& model,
                                     const std::vector<RegimeSample>& samples) {
  util::require(!samples.empty(), "calibrate_intra_model: need samples");
  IntraTaskModel fitted = model;
  fitted.inter_cell_scale = 1.0;
  fitted.intra_cell_scale = 1.0;
  fitted.wave_overhead_scale = 1.0;
  fitted.inter_fill_scale = 1.0;
  fitted.intra_fill_scale = 1.0;

  // Inter-task: one scale on the compute term per saturation regime, fit
  // as the mean ratio of (measured - overhead) to the predicted cell
  // seconds. A saturated device shows a several-fold larger compute bias
  // than an under-filled one, so pooling the regimes would split the
  // difference and mis-route both corners of the map.
  const double inter_bound =
      static_cast<double>(model.sw_occupancy.parallelism(device));
  double inter_ratio_sum[2] = {0.0, 0.0};
  std::size_t inter_count[2] = {0, 0};
  for (const RegimeSample& s : samples) {
    if (s.inter_seconds <= 0.0) {
      continue;
    }
    const double predicted =
        predicted_inter_batch_seconds(device, fitted, s.m, s.n, s.batch);
    const double overhead = fixed_overhead_seconds(device, 1);
    const double cell_pred = predicted - overhead;
    const double cell_meas = s.inter_seconds - overhead;
    if (cell_pred > 0.0 && cell_meas > 0.0) {
      const double launched = static_cast<double>(s.batch) *
                              static_cast<double>(model.sw_threads_per_block);
      const std::size_t regime = launched >= inter_bound ? 0 : 1;
      inter_ratio_sum[regime] += cell_meas / cell_pred;
      ++inter_count[regime];
    }
  }
  const auto inter_mean = [&](std::size_t regime, double fallback) {
    return inter_count[regime] > 0
               ? inter_ratio_sum[regime] /
                     static_cast<double>(inter_count[regime])
               : fallback;
  };
  // A regime with no samples inherits the other's scale.
  fitted.inter_cell_scale = inter_mean(0, inter_mean(1, 1.0));
  fitted.inter_fill_scale = inter_mean(1, fitted.inter_cell_scale);

  // Intra-task: least squares with three regressors — the cell term split
  // by saturation regime plus the shared per-wave overhead term:
  //   measured ~ a*cell_saturated + a_fill*cell_fill + b*overhead.
  // This is where the static model errs twice over: the per-wave overhead
  // it charges is too coarse, and the compute bias of a saturated device
  // is ~5x that of an under-filled one (partial waves pipeline far better
  // than the whole-device derating assumes). Each sample is weighted by
  // 1/measured^2 — relative error — so the microsecond small-batch corner
  // counts as much as the hundreds-of-milliseconds large-batch one; an
  // unweighted or pooled fit is dominated by the big saturated points and
  // routes the 512 bp / batch-1 corner wrong.
  double gram[3][3] = {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  double rhs[3] = {0.0, 0.0, 0.0};
  double suu = 0.0, suv = 0.0, svv = 0.0, suy = 0.0, svy = 0.0;
  std::size_t intra_count = 0;
  for (const RegimeSample& s : samples) {
    if (s.intra_seconds <= 0.0) {
      continue;
    }
    const IntraBatchTerms terms =
        intra_batch_terms(device, fitted, s.m, s.n, s.batch);
    const double u = terms.cell_seconds / s.intra_seconds;
    const double v = terms.overhead_seconds / s.intra_seconds;
    const double r[3] = {terms.saturated ? u : 0.0,
                         terms.saturated ? 0.0 : u, v};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        gram[i][j] += r[i] * r[j];
      }
      rhs[i] += r[i];
    }
    // Pooled 2-parameter accumulators, the fallback when one regime has
    // no samples and the 3-parameter system is singular.
    suu += u * u;
    suv += u * v;
    svv += v * v;
    suy += u;
    svy += v;
    ++intra_count;
  }
  // Clamp to a sane positive range: a fit driven by a degenerate sample
  // set must not turn a cost term negative. The upper bound leaves room
  // for the ~20x compute biases these devices really show.
  const auto clamp_scale = [](double x) { return std::clamp(x, 0.02, 50.0); };
  const double det3 =
      gram[0][0] * (gram[1][1] * gram[2][2] - gram[1][2] * gram[1][2]) -
      gram[0][1] * (gram[0][1] * gram[2][2] - gram[1][2] * gram[0][2]) +
      gram[0][2] * (gram[0][1] * gram[1][2] - gram[1][1] * gram[0][2]);
  if (intra_count >= 3 && std::abs(det3) > 1e-30) {
    const auto cramer = [&](int col) {
      double a[3][3];
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          a[i][j] = j == col ? rhs[i] : gram[i][j];
        }
      }
      return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) -
              a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0]) +
              a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])) /
             det3;
    };
    fitted.intra_cell_scale = clamp_scale(cramer(0));
    fitted.intra_fill_scale = clamp_scale(cramer(1));
    fitted.wave_overhead_scale = clamp_scale(cramer(2));
  } else if (intra_count >= 2) {
    const double det = suu * svv - suv * suv;
    if (std::abs(det) > 1e-30) {
      const double a = (suy * svv - svy * suv) / det;
      const double b = (svy * suu - suy * suv) / det;
      fitted.intra_cell_scale = clamp_scale(a);
      fitted.wave_overhead_scale = clamp_scale(b);
      fitted.intra_fill_scale = fitted.intra_cell_scale;
    }
  } else if (intra_count == 1) {
    for (const RegimeSample& s : samples) {
      if (s.intra_seconds > 0.0) {
        const double predicted =
            predicted_intra_batch_seconds(device, fitted, s.m, s.n, s.batch);
        const double scale = s.intra_seconds / predicted;
        fitted.intra_cell_scale = std::clamp(scale, 0.05, 20.0);
        fitted.wave_overhead_scale = fitted.intra_cell_scale;
        fitted.intra_fill_scale = fitted.intra_cell_scale;
        break;
      }
    }
  }
  return fitted;
}

ParallelMode pick_parallelism(const simt::DeviceSpec& device,
                              const IntraTaskModel& model, std::size_t m,
                              std::size_t n, std::size_t batch) {
  const double inter = predicted_inter_batch_seconds(device, model, m, n, batch);
  const double intra = predicted_intra_batch_seconds(device, model, m, n, batch);
  return intra < inter ? ParallelMode::kIntraTask : ParallelMode::kInterTask;
}

ParallelMode pick_parallelism(const simt::DeviceSpec& device, std::size_t m,
                              std::size_t n, std::size_t batch) {
  return pick_parallelism(device, build_intra_task_model(device), m, n, batch);
}

}  // namespace wsim::fleet
