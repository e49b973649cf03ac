// Regenerates Table II: detailed kernel information on K1200 using the
// biggest original batch, compute time only (no transfer) — GCUPS,
// occupancy, registers/thread, shared memory/block, per-iteration latency
// and the latency reduction from using shuffle.
//
// The latency column follows the paper's methodology: it is derived from
// the performance model (Eq. 7 inverted, latency = parallelism x
// frequency / CUPS) with the parallelism of Eq. 8 clamped to the launched
// threads. The simulator's directly observed per-block iteration latency
// is shown alongside: the two agree when a kernel is latency-bound and
// diverge when the SM issue ports are the bottleneck.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/model/perf_model.hpp"
#include "wsim/util/stats.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::util::format_fixed;

struct KernelRow {
  std::string name;
  double gcups = 0.0;
  wsim::simt::Occupancy occupancy;
  int regs = 0;
  int smem = 0;
  double effective_latency = 0.0;  ///< model-derived (paper's Table II method)
  double block_latency = 0.0;      ///< simulated cycles per block iteration
};

}  // namespace

int main() {
  wsim::bench::banner("Table II", "detailed kernel information (K1200, biggest batch)");
  const auto dev = wsim::simt::make_k1200();
  const auto dataset = wsim::workload::generate_dataset(
      wsim::bench::standard_dataset_config());
  const auto sw_batch = wsim::workload::sw_biggest_batch(dataset);
  const auto ph_batch = wsim::workload::ph_biggest_batch(dataset);
  std::cout << "Biggest batches: SW " << sw_batch.size() << " tasks, PairHMM "
            << ph_batch.size() << " tasks. GCUPS exclude transfers.\n\n";

  std::vector<KernelRow> rows;
  for (const auto mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::SwRunner runner(mode);
    wsim::kernels::SwRunOptions opt;
    opt.mode = wsim::simt::ExecMode::kCachedByShape;
    const auto result = runner.run_batch(dev, sw_batch, opt);
    KernelRow row;
    row.name = mode == CommMode::kSharedMemory ? "SW1" : "SW2";
    row.gcups = result.run.gcups_kernel();
    row.occupancy = result.run.launch.occupancy;
    row.regs = runner.kernel().vreg_count();
    row.smem = runner.kernel().smem_bytes();
    row.effective_latency = wsim::model::effective_latency_cycles(
        dev, row.occupancy, row.gcups * 1e9, sw_batch.size(),
        runner.kernel().threads_per_block());
    row.block_latency = result.run.cycles_per_iteration(wsim::kernels::sw_iterations(
        sw_batch.front().query.size(), sw_batch.front().target.size()));
    rows.push_back(row);
  }
  for (const auto mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::PhRunner runner(mode);
    wsim::kernels::PhRunOptions opt;
    opt.mode = wsim::simt::ExecMode::kCachedByShape;
    const auto result = runner.run_batch(dev, ph_batch, opt);
    const auto& kernel = runner.kernel_for_read_len(ph_batch.front().read.size());
    KernelRow row;
    row.name = mode == CommMode::kSharedMemory ? "PH1" : "PH2";
    row.gcups = result.run.gcups_kernel();
    row.occupancy = result.run.launch.occupancy;
    row.regs = kernel.vreg_count();
    row.smem = kernel.smem_bytes();
    row.effective_latency = wsim::model::effective_latency_cycles(
        dev, row.occupancy, row.gcups * 1e9, ph_batch.size(),
        kernel.threads_per_block());
    row.block_latency =
        result.run.cycles_per_iteration(result.representative_iterations);
    rows.push_back(row);
  }

  wsim::util::Table table({"", "GCUPS", "occupancy(%)", "#reg/thread",
                           "#sharedmem/block", "latency(cycle)",
                           "reduction(cycle)", "block latency (cy/iter)"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    const std::string reduction =
        i % 2 == 1 ? format_fixed(rows[i - 1].effective_latency - r.effective_latency, 0)
                   : "-";
    table.add_row({r.name, format_fixed(r.gcups, 2),
                   format_fixed(r.occupancy.fraction * 100.0, 1),
                   std::to_string(r.regs), std::to_string(r.smem),
                   format_fixed(r.effective_latency, 0), reduction,
                   format_fixed(r.block_latency, 0)});
  }
  table.print(std::cout);
  wsim::bench::maybe_write_csv("table2_details", table);

  const double sw_speedup = rows[1].gcups / rows[0].gcups;
  const double ph_speedup = rows[3].gcups / rows[2].gcups;
  std::cout << "\nShuffle speedups: SW2/SW1 = " << format_fixed(sw_speedup, 2)
            << "x (paper: 1.2x), PH2/PH1 = " << format_fixed(ph_speedup, 2)
            << "x (paper: 2.1x).\n"
            << "\nReading the trade-off (paper Section V-D):\n"
               "  * SW: shuffle frees shared memory -> occupancy rises AND the\n"
               "    iteration latency falls; both factors help SW2.\n"
               "  * PairHMM: PH2's register blocking drops occupancy (register\n"
               "    limited), but the communication-latency reduction outweighs\n"
               "    the parallelism loss.\n";
  return 0;
}
