// Ablation: PH2's register blocking — cells per thread from 1 to 4. More
// cells per thread cut inter-thread communication (boundary-only
// shuffles) but inflate register usage, dragging occupancy down: the
// trade-off at the heart of the paper's Section V-D analysis.

#include <iostream>

#include "bench_common.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/model/breakdown.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/util/table.hpp"

int main() {
  using wsim::util::format_fixed;
  using wsim::util::format_percent;
  wsim::bench::banner("Ablation", "PH2 register blocking (cells per thread)");
  const auto dev = wsim::simt::make_k1200();

  wsim::util::Table table({"cells/thread", "rows covered", "#reg/thread",
                           "occupancy", "limiter", "shuffles/iter",
                           "state moves/iter"});
  for (int cells = 1; cells <= 4; ++cells) {
    const auto kernel = wsim::kernels::build_ph_shuffle_kernel(cells);
    const auto occ = wsim::simt::compute_occupancy(dev, kernel);
    const auto breakdown = wsim::model::hot_loop_breakdown(kernel);
    table.add_row({std::to_string(cells), std::to_string(32 * cells),
                   std::to_string(kernel.vreg_count()), format_percent(occ.fraction),
                   std::string(wsim::simt::to_string(occ.limiter)),
                   std::to_string(breakdown.shuffle_total()),
                   std::to_string(breakdown.reg_moves)});
  }
  table.print(std::cout);

  std::cout << "\nShuffle count stays constant (communication only between\n"
               "boundary cells) while registers grow with the blocking\n"
               "factor — the root cause of PH2's occupancy drop from PH1's\n"
               "level (paper: 56.2% -> 29.1%), which the latency reduction\n"
               "must outweigh.\n";
  return 0;
}
