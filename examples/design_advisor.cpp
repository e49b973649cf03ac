// The paper's "normal flow for CUDA programmers": before implementing a
// shuffle version of a kernel, estimate whether it pays off — measure
// instruction latencies with the microbenchmarks, estimate the new
// register/shared-memory footprint, run the occupancy calculator (Eq. 8),
// estimate the iteration latency from the instruction breakdown, and feed
// both into the performance model (Eq. 7). This example automates that
// flow for the library's own kernels.

#include <iostream>

#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/micro/microbench.hpp"
#include "wsim/model/breakdown.hpp"
#include "wsim/model/perf_model.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/util/table.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::util::format_fixed;
using wsim::util::format_percent;

struct Candidate {
  const char* name;
  wsim::simt::Kernel kernel;
};

}  // namespace

int main() {
  const auto dev = wsim::simt::make_k1200();
  std::cout << "Design advisor on " << dev.name << " — should you use shuffle?\n\n";

  // Step 1: measure instruction latencies (paper Section II-B).
  const auto lat = wsim::micro::measure_latencies(dev);
  std::cout << "Measured latencies: shfl " << format_fixed(lat.shfl.latency, 0)
            << " cy, sharedmem " << format_fixed(lat.sharedmem.latency, 0)
            << " cy, sync " << format_fixed(lat.sync.latency, 0) << " cy\n\n";

  // Step 2-4 for each candidate pair: resources -> occupancy -> breakdown
  // -> predicted CUPS.
  const std::vector<std::pair<Candidate, Candidate>> pairs = {
      {{"SW1 (shared)", wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {})},
       {"SW2 (shuffle)", wsim::kernels::build_sw_kernel(CommMode::kShuffle, {})}},
      {{"PH1 (shared)", wsim::kernels::build_ph_shared_kernel(128)},
       {"PH2 (shuffle)", wsim::kernels::build_ph_shuffle_kernel(4)}},
  };

  for (const auto& [shared, shuffle] : pairs) {
    wsim::util::Table table({"design", "regs", "smem", "occupancy",
                             "comm cycles/iter", "predicted GCUPS"});
    double predicted[2] = {0.0, 0.0};
    int index = 0;
    for (const Candidate* c : {&shared, &shuffle}) {
      const auto occ = wsim::simt::compute_occupancy(dev, c->kernel);
      const auto breakdown = wsim::model::hot_loop_breakdown(c->kernel);
      const double comm = breakdown.comm_cycles(dev.lat);
      // Communication plus a compute allowance (the alpha of Eq. 1):
      // arithmetic per iteration, at ~1 cycle effective each under ILP.
      const double iter_latency =
          comm + static_cast<double>(breakdown.other) /
                     c->kernel.warps_per_block();
      predicted[index] = wsim::model::predict_gcups(dev, occ, iter_latency);
      table.add_row({c->name, std::to_string(c->kernel.vreg_count()),
                     std::to_string(c->kernel.smem_bytes()),
                     format_percent(occ.fraction), format_fixed(comm, 0),
                     format_fixed(predicted[index], 1)});
      ++index;
    }
    table.print(std::cout);
    const double gain = predicted[1] / predicted[0];
    std::cout << (gain > 1.0 ? "=> advisor: implement the shuffle design ("
                             : "=> advisor: keep shared memory (")
              << format_fixed(gain, 2) << "x predicted)\n\n";
  }

  std::cout << "The paper's conclusion: both parallelism (occupancy) and\n"
               "latency matter; shuffle wins when the latency reduction\n"
               "outweighs any occupancy loss from higher register pressure.\n";
  return 0;
}
