#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/check.hpp"

namespace wsim::kernels {

PhRunner::PhRunner(CommMode mode)
    : PhRunner(mode == CommMode::kSharedMemory ? PhDesign::kShared
                                               : PhDesign::kShuffle) {}

simt::Kernel build_ph_variant_kernel(PhDesign design, int variant) {
  util::require(variant >= 0 && variant < kPhVariants,
                "build_ph_variant_kernel: variant out of range");
  switch (design) {
    case PhDesign::kShared:
      return build_ph_shared_kernel(32 * (variant + 1));
    case PhDesign::kShuffle:
      return build_ph_shuffle_kernel(variant + 1);
    case PhDesign::kHybrid:
      return build_ph_hybrid_kernel(32 * (variant + 1));
  }
  throw util::CheckError("build_ph_variant_kernel: unknown PhDesign");
}

PhRunner::PhRunner(PhDesign design)
    : PhRunner(design, build_ph_variant_kernel(design, kPhVariants - 1)) {}

PhRunner::PhRunner(PhDesign design, simt::Kernel widest) : design_(design) {
  for (int v = 0; v < kPhVariants - 1; ++v) {
    kernels_[static_cast<std::size_t>(v)] = build_ph_variant_kernel(design, v);
  }
  kernels_.back() = std::move(widest);
}

int PhRunner::variant_for_read_len(std::size_t read_len) {
  util::require(read_len >= 1 && read_len <= kPhMaxReadLen,
                "PhRunner: read length must be in [1, 128]");
  return static_cast<int>((read_len - 1) / 32);
}

const simt::Kernel& PhRunner::kernel_for_read_len(std::size_t read_len) const {
  return kernels_[static_cast<std::size_t>(variant_for_read_len(read_len))];
}

PhBatchResult PhRunner::run_batch(const simt::DeviceSpec& device,
                                  const workload::PhBatch& batch,
                                  const PhRunOptions& options) const {
  util::require(!batch.empty(), "PhRunner: batch must be non-empty");
  util::require(!options.collect_outputs || options.mode == simt::ExecMode::kFull,
                "PhRunner: collect_outputs requires ExecMode::kFull");

  // Launch-time routing: bucket tasks by read length (the paper's
  // length-specialized kernel copies / subfunctions).
  std::array<std::vector<std::size_t>, kPhVariants> groups;
  for (std::size_t t = 0; t < batch.size(); ++t) {
    align::validate(batch[t]);
    groups[static_cast<std::size_t>(variant_for_read_len(batch[t].read.size()))]
        .push_back(t);
  }

  simt::GlobalMemory gmem;
  std::vector<std::int64_t> result_addr(batch.size(), 0);

  // Device-resident quality lookup tables (transferred once per launch):
  // err[q] = 10^(-q/10) and err3[q] = err[q] / 3, exactly the values the
  // host reference derives per row. Built once per process.
  constexpr int kQualLutSize = 256;
  struct QualLuts {
    std::array<float, kQualLutSize> err;
    std::array<float, kQualLutSize> err3;
  };
  static const QualLuts luts = [] {
    QualLuts built{};
    for (int q = 0; q < kQualLutSize; ++q) {
      built.err[static_cast<std::size_t>(q)] =
          align::qual_to_error_prob(static_cast<std::uint8_t>(q));
      built.err3[static_cast<std::size_t>(q)] =
          built.err[static_cast<std::size_t>(q)] / 3.0F;
    }
    return built;
  }();
  const auto err_lut_addr = gmem.alloc(kQualLutSize * 4);
  const auto err3_lut_addr = gmem.alloc(kQualLutSize * 4);
  gmem.write_f32(err_lut_addr, luts.err);
  gmem.write_f32(err3_lut_addr, luts.err3);
  const std::size_t lut_bytes = 2 * kQualLutSize * 4;

  simt::ExecutionEngine& engine =
      options.engine != nullptr ? *options.engine : simt::shared_engine();
  PhBatchResult result;
  result.run.cells = 0;
  result.run.launch.transfers_overlapped = options.overlap_transfers;
  std::size_t primary_cells = 0;
  bool luts_counted = false;

  for (int v = 0; v < kPhVariants; ++v) {
    const auto& group = groups[static_cast<std::size_t>(v)];
    if (group.empty()) {
      continue;
    }
    const simt::Kernel& kernel = kernels_[static_cast<std::size_t>(v)];

    std::vector<simt::BlockLaunch> blocks;
    blocks.reserve(group.size());
    std::size_t h2d_bytes = 0;
    std::size_t group_cells = 0;

    for (const std::size_t t : group) {
      const align::PairHmmTask& task = batch[t];
      const std::size_t r = task.read.size();
      const std::size_t h = task.hap.size();
      group_cells += r * h;

      // Pack the raw quality bytes (4 B/row: base, ins, del, padding);
      // the kernel prologue derives priors and transitions through the
      // LUTs, so only quality bytes cross PCIe.
      std::vector<std::uint8_t> quals(r * 4, 0);
      for (std::size_t i = 0; i < r; ++i) {
        quals[i * 4 + 0] = task.base_quals[i];
        quals[i * 4 + 1] = task.ins_quals[i];
        quals[i * 4 + 2] = task.del_quals[i];
      }
      const auto quals_addr = gmem.alloc(quals.size());
      gmem.write_u8(quals_addr, quals);
      const auto read_addr = gmem.alloc(r);
      gmem.write_u8(read_addr,
                    {reinterpret_cast<const std::uint8_t*>(task.read.data()), r});
      const auto hap_addr = gmem.alloc(h);
      gmem.write_u8(hap_addr,
                    {reinterpret_cast<const std::uint8_t*>(task.hap.data()), h});
      result_addr[t] = gmem.alloc(4);
      h2d_bytes += quals.size() + r + h;

      const float ic_over_h =
          align::pairhmm_initial_condition() / static_cast<float>(h);
      const float gcp_prob = align::qual_to_error_prob(task.gcp);

      simt::BlockLaunch block;
      block.args = {
          static_cast<std::uint64_t>(quals_addr),
          static_cast<std::uint64_t>(read_addr),
          static_cast<std::uint64_t>(hap_addr),
          static_cast<std::uint64_t>(r),
          static_cast<std::uint64_t>(h),
          static_cast<std::uint64_t>(r + h - 1),
          static_cast<std::uint64_t>(result_addr[t]),
          std::bit_cast<std::uint32_t>(ic_over_h),
          static_cast<std::uint64_t>(err_lut_addr),
          static_cast<std::uint64_t>(err3_lut_addr),
          std::bit_cast<std::uint32_t>(gcp_prob),
          std::bit_cast<std::uint32_t>(1.0F - gcp_prob),
      };
      block.shape_key = shape_key(r, h, options.shape_granularity);
      blocks.push_back(std::move(block));
    }

    simt::LaunchOptions launch_options;
    launch_options.mode = options.mode;
    launch_options.use_engine_cache = options.use_engine_cache;
    launch_options.overlap_transfers = options.overlap_transfers;
    if (options.cost_caches != nullptr && !options.use_engine_cache) {
      launch_options.cost_cache =
          &options.cost_caches->per_variant[static_cast<std::size_t>(v)];
    }
    if (!luts_counted) {
      h2d_bytes += lut_bytes;
      luts_counted = true;
    }
    launch_options.transfer.h2d_bytes = h2d_bytes;
    launch_options.transfer.d2h_bytes = group.size() * 4;
    launch_options.sdc = options.sdc;
    // Each variant launch gets its own sub-launch id so its blocks draw
    // from SDC streams disjoint from the other variants'.
    launch_options.sdc_launch_id =
        simt::sdc_sub_launch(options.sdc_launch_id, static_cast<std::uint64_t>(v));
    launch_options.max_block_cycles = options.max_block_cycles;
    launch_options.interp = options.interp;

    const simt::LaunchResult launch =
        engine.launch(kernel, device, gmem, blocks, launch_options);

    // Aggregate across variant launches.
    result.run.cells += group_cells;
    result.run.launch.kernel_seconds += launch.kernel_seconds;
    result.run.launch.h2d_seconds += launch.h2d_seconds;
    result.run.launch.d2h_seconds += launch.d2h_seconds;
    result.run.launch.transfer_seconds += launch.transfer_seconds;
    result.run.launch.overhead_seconds += launch.overhead_seconds;
    result.run.launch.instructions += launch.instructions;
    result.run.launch.smem_transactions += launch.smem_transactions;
    result.run.launch.blocks_executed += launch.blocks_executed;
    result.run.launch.sdc_flips += launch.sdc_flips;
    result.run.launch.timing.cycles += launch.timing.cycles;
    result.run.launch.timing.seconds += launch.timing.seconds;
    if (group_cells > primary_cells) {
      primary_cells = group_cells;
      result.primary_variant = v;
      result.run.launch.occupancy = launch.occupancy;
      result.run.launch.representative = launch.representative;
      const align::PairHmmTask& first = batch[group.front()];
      result.representative_iterations = ph_iterations(first.read.size(), first.hap.size());
      result.representative_cells = first.read.size() * first.hap.size();
    }
  }

  if (options.collect_outputs) {
    result.log10.resize(batch.size());
    const double log10_ic =
        std::log10(static_cast<double>(align::pairhmm_initial_condition()));
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const float sum = gmem.read_f32_one(result_addr[t]);
      if (sum > 0.0F) {
        result.log10[t] = std::log10(static_cast<double>(sum)) - log10_ic;
      } else if (options.double_fallback) {
        // GATK's rescue path: redo the underflowed task in double on the
        // host.
        result.log10[t] = align::pairhmm_log10_double(batch[t]);
      } else {
        throw util::CheckError(
            "PhRunner: device likelihood underflowed to zero (enable "
            "double_fallback for GATK-style rescue)");
      }
    }
  }
  return result;
}

}  // namespace wsim::kernels
