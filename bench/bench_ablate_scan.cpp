// Ablation: generality beyond sequence alignment — the paper's closing
// claim is that its shuffle insights carry to "a wider class of
// applications". Block prefix scan is the canonical case: the shuffle
// design removes all log2(T) barrier stages, and its multi-warp variant
// shows the *healthy* hybrid (O(1) cross-warp smem traffic), in contrast
// to the rejected PairHMM hybrid (per-iteration traffic,
// bench_ablate_hybrid).

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "wsim/kernels/scan_kernels.hpp"
#include "wsim/util/table.hpp"

namespace {

using wsim::kernels::build_scan_kernel;
using wsim::kernels::CommMode;
using wsim::util::format_fixed;

}  // namespace

int main() {
  wsim::bench::banner("Ablation", "prefix scan: shared memory vs shuffle");

  for (const auto& dev : wsim::bench::evaluation_devices()) {
    std::cout << "--- " << dev.name << " ---\n";
    wsim::util::Table table({"design", "threads", "smem (B)", "barriers",
                             "block cycles", "speedup"});
    for (const int threads : {32, 128, 512}) {
      const std::vector<std::int32_t> input(static_cast<std::size_t>(threads), 1);
      long long shared_cycles = 0;
      long long shuffle_cycles = 0;
      wsim::kernels::run_scan(build_scan_kernel(CommMode::kSharedMemory, threads),
                              dev, input, &shared_cycles);
      wsim::kernels::run_scan(build_scan_kernel(CommMode::kShuffle, threads), dev,
                              input, &shuffle_cycles);
      const auto shared_k = build_scan_kernel(CommMode::kSharedMemory, threads);
      const auto shuffle_k = build_scan_kernel(CommMode::kShuffle, threads);
      auto bars = [](const wsim::simt::Kernel& k) {
        std::size_t n = 0;
        for (const auto& ins : k.code()) {
          n += ins.op == wsim::simt::Op::kBar ? 1 : 0;
        }
        return n;
      };
      table.add_row({"shared", std::to_string(threads),
                     std::to_string(shared_k.smem_bytes()),
                     std::to_string(bars(shared_k)), std::to_string(shared_cycles),
                     "1.00x"});
      table.add_row({"shuffle", std::to_string(threads),
                     std::to_string(shuffle_k.smem_bytes()),
                     std::to_string(bars(shuffle_k)), std::to_string(shuffle_cycles),
                     format_fixed(static_cast<double>(shared_cycles) /
                                      static_cast<double>(shuffle_cycles),
                                  2) +
                         "x"});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "The shuffle scan eliminates every per-stage barrier; its\n"
               "multi-warp variant pays one barrier and one warp-total store\n"
               "per block — cross-warp traffic that is O(1) per element, the\n"
               "regime where mixing shuffle and shared memory pays off.\n";
  return 0;
}
