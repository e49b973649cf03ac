// Regenerates Table III: the static instruction breakdown of each
// kernel's hot anti-diagonal loop (LOAD / WRITE / ROTATE / SYNC in the
// paper's grouping), the latency reduction estimated from the
// microbenchmark latencies, and its relative error against the measured
// per-iteration reduction — the paper's model-validation methodology.

#include <iostream>

#include "bench_common.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/model/breakdown.hpp"
#include "wsim/model/perf_model.hpp"
#include "wsim/util/stats.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::model::CommBreakdown;
using wsim::util::format_fixed;
using wsim::util::format_percent;

std::string fmt(const std::uint64_t n) { return std::to_string(n); }

}  // namespace

int main() {
  wsim::bench::banner("Table III", "instruction breakdown and latency-reduction estimate");
  const auto dev = wsim::simt::make_k1200();

  const auto sw1 = wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {});
  const auto sw2 = wsim::kernels::build_sw_kernel(CommMode::kShuffle, {});
  const auto ph1 = wsim::kernels::build_ph_shared_kernel(128);
  const auto ph2 = wsim::kernels::build_ph_shuffle_kernel(4);

  const CommBreakdown b_sw1 = wsim::model::hot_loop_breakdown(sw1);
  const CommBreakdown b_sw2 = wsim::model::hot_loop_breakdown(sw2);
  const CommBreakdown b_ph1 = wsim::model::hot_loop_breakdown(ph1);
  const CommBreakdown b_ph2 = wsim::model::hot_loop_breakdown(ph2);

  wsim::util::Table table({"operation", "instruction", "SW1", "SW2", "PH1", "PH2"});
  table.add_row({"LOAD", "SMEM", fmt(b_sw1.smem_loads), fmt(b_sw2.smem_loads),
                 fmt(b_ph1.smem_loads), fmt(b_ph2.smem_loads)});
  table.add_row({"LOAD", "shfl", fmt(b_sw1.shuffle_total()), fmt(b_sw2.shuffle_total()),
                 fmt(b_ph1.shuffle_total()), fmt(b_ph2.shuffle_total())});
  table.add_row({"WRITE", "SMEM", fmt(b_sw1.smem_stores), fmt(b_sw2.smem_stores),
                 fmt(b_ph1.smem_stores), fmt(b_ph2.smem_stores)});
  table.add_row({"ROTATE/state", "reg", fmt(b_sw1.reg_moves), fmt(b_sw2.reg_moves),
                 fmt(b_ph1.reg_moves), fmt(b_ph2.reg_moves)});
  table.add_row({"SYNC", "bar.sync", fmt(b_sw1.barriers), fmt(b_sw2.barriers),
                 fmt(b_ph1.barriers), fmt(b_ph2.barriers)});
  table.print(std::cout);

  const double est_sw = wsim::model::estimated_reduction(sw1, sw2, dev.lat);
  const double est_ph = wsim::model::estimated_reduction(ph1, ph2, dev.lat);

  // Measured per-iteration latency reduction on K1200 (biggest batch,
  // compute only — the Table II conditions).
  const auto dataset = wsim::workload::generate_dataset(
      wsim::bench::standard_dataset_config());
  const auto sw_batch = wsim::workload::sw_biggest_batch(dataset);
  const auto ph_batch = wsim::workload::ph_biggest_batch(dataset);

  // "Measured" reductions use the paper's own method: effective latency
  // from the performance model (Eq. 7 inverted) under Table II conditions.
  double measured_sw = 0.0;
  {
    wsim::kernels::SwRunOptions opt;
    opt.mode = wsim::simt::ExecMode::kCachedByShape;
    const wsim::kernels::SwRunner runner1(CommMode::kSharedMemory);
    const wsim::kernels::SwRunner runner2(CommMode::kShuffle);
    const auto r1 = runner1.run_batch(dev, sw_batch, opt);
    const auto r2 = runner2.run_batch(dev, sw_batch, opt);
    const double lat1 = wsim::model::effective_latency_cycles(
        dev, r1.run.launch.occupancy, r1.run.gcups_kernel() * 1e9, sw_batch.size(),
        runner1.kernel().threads_per_block());
    const double lat2 = wsim::model::effective_latency_cycles(
        dev, r2.run.launch.occupancy, r2.run.gcups_kernel() * 1e9, sw_batch.size(),
        runner2.kernel().threads_per_block());
    measured_sw = lat1 - lat2;
  }
  double measured_ph = 0.0;
  {
    wsim::kernels::PhRunOptions opt;
    opt.mode = wsim::simt::ExecMode::kCachedByShape;
    const wsim::kernels::PhRunner runner1(CommMode::kSharedMemory);
    const wsim::kernels::PhRunner runner2(CommMode::kShuffle);
    const auto r1 = runner1.run_batch(dev, ph_batch, opt);
    const auto r2 = runner2.run_batch(dev, ph_batch, opt);
    const int threads1 =
        runner1.kernel_for_read_len(ph_batch.front().read.size()).threads_per_block();
    const int threads2 =
        runner2.kernel_for_read_len(ph_batch.front().read.size()).threads_per_block();
    const double lat1 = wsim::model::effective_latency_cycles(
        dev, r1.run.launch.occupancy, r1.run.gcups_kernel() * 1e9, ph_batch.size(),
        threads1);
    const double lat2 = wsim::model::effective_latency_cycles(
        dev, r2.run.launch.occupancy, r2.run.gcups_kernel() * 1e9, ph_batch.size(),
        threads2);
    measured_ph = lat1 - lat2;
  }

  std::cout << '\n';
  wsim::util::Table summary(
      {"algorithm", "estimated reduction (cy)", "measured reduction (cy)",
       "relative error"});
  summary.add_row({"SW", format_fixed(est_sw, 0), format_fixed(measured_sw, 0),
                   format_percent(wsim::util::relative_error(est_sw, measured_sw))});
  summary.add_row({"PairHMM", format_fixed(est_ph, 0), format_fixed(measured_ph, 0),
                   format_percent(wsim::util::relative_error(est_ph, measured_ph))});
  summary.print(std::cout);

  std::cout <<
      "\nPaper Table III reference: SW estimate 161 cy vs 189 cy measured\n"
      "(-14.8% error); PairHMM estimate 1370 cy (+19.2% error). The static\n"
      "estimate ignores arithmetic overlap, so single-digit-to-~20% errors\n"
      "are the expected regime.\n";
  return 0;
}
