#include "wsim/model/breakdown.hpp"

#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::model {

using simt::Instr;
using simt::Kernel;
using simt::Op;

double CommBreakdown::comm_cycles(const simt::LatencyTable& lat) const noexcept {
  double cycles = 0.0;
  cycles += static_cast<double>(smem_loads) * lat.smem_load;
  cycles += static_cast<double>(smem_stores) * lat.smem_store;
  cycles += static_cast<double>(shfl) * lat.shfl;
  cycles += static_cast<double>(shfl_up) * lat.shfl_up;
  cycles += static_cast<double>(shfl_down) * lat.shfl_down;
  cycles += static_cast<double>(shfl_xor) * lat.shfl_xor;
  cycles += static_cast<double>(reg_moves) * lat.reg_access;
  cycles += static_cast<double>(barriers) * lat.sync_barrier;
  return cycles;
}

namespace {

struct LoopRegion {
  std::size_t begin = 0;  ///< index of kLoop
  std::size_t end = 0;    ///< index of kEndLoop
  bool innermost = true;
};

std::vector<LoopRegion> loop_regions(const Kernel& kernel) {
  std::vector<LoopRegion> regions;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < kernel.code().size(); ++i) {
    if (kernel.code()[i].op == Op::kLoop) {
      stack.push_back(i);
    } else if (kernel.code()[i].op == Op::kEndLoop) {
      util::ensure(!stack.empty(), "hot_loop_breakdown: unbalanced loops");
      regions.push_back({stack.back(), i, true});
      stack.pop_back();
    }
  }
  // A region is innermost if no other region nests strictly inside it.
  for (auto& outer : regions) {
    for (const auto& inner : regions) {
      if (&outer != &inner && inner.begin > outer.begin && inner.end < outer.end) {
        outer.innermost = false;
        break;
      }
    }
  }
  return regions;
}

}  // namespace

CommBreakdown hot_loop_breakdown(const Kernel& kernel) {
  const auto regions = loop_regions(kernel);
  util::require(!regions.empty(), "hot_loop_breakdown: kernel has no loops");

  const LoopRegion* hot = nullptr;
  std::size_t hot_size = 0;
  for (const auto& region : regions) {
    if (!region.innermost) {
      continue;
    }
    const std::size_t size = region.end - region.begin;
    if (size > hot_size) {
      hot_size = size;
      hot = &region;
    }
  }
  util::ensure(hot != nullptr, "hot_loop_breakdown: no innermost loop found");

  CommBreakdown breakdown;
  const auto warps = static_cast<std::uint64_t>(kernel.warps_per_block());
  for (std::size_t i = hot->begin + 1; i < hot->end; ++i) {
    const Instr& ins = kernel.code()[i];
    switch (ins.op) {
      case Op::kLds:
        breakdown.smem_loads += warps;
        break;
      case Op::kSts:
        breakdown.smem_stores += warps;
        break;
      case Op::kLdg:
        breakdown.gmem_loads += warps;
        break;
      case Op::kStg:
        breakdown.gmem_stores += warps;
        break;
      case Op::kShfl:
        breakdown.shfl += warps;
        break;
      case Op::kShflUp:
        breakdown.shfl_up += warps;
        break;
      case Op::kShflDown:
        breakdown.shfl_down += warps;
        break;
      case Op::kShflXor:
        breakdown.shfl_xor += warps;
        break;
      case Op::kMov:
      case Op::kSMov:
        breakdown.reg_moves += warps;
        break;
      case Op::kBar:
        ++breakdown.barriers;  // one barrier event per block iteration
        break;
      default:
        breakdown.other += warps;
        break;
    }
  }
  return breakdown;
}

double estimated_reduction(const Kernel& shared_kernel, const Kernel& shuffle_kernel,
                           const simt::LatencyTable& lat) {
  return hot_loop_breakdown(shared_kernel).comm_cycles(lat) -
         hot_loop_breakdown(shuffle_kernel).comm_cycles(lat);
}

}  // namespace wsim::model
