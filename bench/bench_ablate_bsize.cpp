// Ablation: the BSIZE tuning of the paper's two-level tiling. The paper
// reports "We set BSIZE as 32 for both SW1 and SW2, which offer the best
// performance from our experiments"; this bench sweeps BSIZE for the
// shared-memory design (the shuffle design is structurally pinned to one
// warp) and shows why 32 wins: larger tiles inflate the shared-memory
// footprint (line buffers + BSIZE^2 btrack tile) and crush occupancy.

#include <iostream>

#include "bench_common.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/util/table.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::util::format_fixed;
using wsim::util::format_percent;

std::string random_dna(wsim::util::Rng& rng, int len) {
  std::string s(static_cast<std::size_t>(len), 'A');
  for (char& c : s) {
    c = "ACGT"[rng.uniform_int(0, 3)];
  }
  return s;
}

}  // namespace

int main() {
  wsim::bench::banner("Ablation", "SW BSIZE sweep (design A; design B is warp-pinned)");
  const auto dev = wsim::simt::make_k1200();
  wsim::util::Rng rng(5);

  // A saturated batch of identical mid-size tasks.
  const std::string target = random_dna(rng, 256);
  const wsim::workload::SwTask task{target.substr(16, 192), target};
  const wsim::workload::SwBatch batch(128, task);

  wsim::util::Table table({"BSIZE", "threads/block", "smem/block (B)", "occupancy",
                           "limiter", "GCUPS (saturated)"});
  for (const int bsize : {32, 64, 96}) {
    const wsim::kernels::SwRunner runner(CommMode::kSharedMemory, {}, bsize);
    const auto occ = wsim::simt::compute_occupancy(dev, runner.kernel());
    wsim::kernels::SwRunOptions opt;
    opt.mode = wsim::simt::ExecMode::kCachedByShape;
    const auto result = runner.run_batch(dev, batch, opt);
    table.add_row({std::to_string(bsize), std::to_string(bsize),
                   std::to_string(runner.kernel().smem_bytes()),
                   format_percent(occ.fraction),
                   std::string(wsim::simt::to_string(occ.limiter)),
                   format_fixed(result.run.gcups_kernel(), 2)});
  }
  table.print(std::cout);

  // Design B cannot follow: shuffle does not cross warps.
  try {
    wsim::kernels::build_sw_kernel(CommMode::kShuffle, {}, 64);
    std::cout << "ERROR: shuffle design accepted BSIZE 64\n";
    return 1;
  } catch (const wsim::util::CheckError&) {
    std::cout << "\nBSIZE 64 for the shuffle design correctly rejected: shuffle\n"
                 "cannot cross warp boundaries (the limitation the whole paper\n"
                 "revolves around). BSIZE 32 is the sweet spot for design A —\n"
                 "the paper's finding.\n";
  }
  return 0;
}
