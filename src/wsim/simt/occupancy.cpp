#include "wsim/simt/occupancy.hpp"

#include <algorithm>
#include <limits>

#include "wsim/util/check.hpp"

namespace wsim::simt {

std::string_view to_string(Occupancy::Limiter limiter) noexcept {
  switch (limiter) {
    case Occupancy::Limiter::kRegisters:
      return "registers";
    case Occupancy::Limiter::kSharedMemory:
      return "shared memory";
    case Occupancy::Limiter::kThreads:
      return "threads";
    case Occupancy::Limiter::kBlockSlots:
      return "block slots";
  }
  return "unknown";
}

namespace {

int round_up(int value, int granularity) noexcept {
  return (value + granularity - 1) / granularity * granularity;
}

}  // namespace

Occupancy compute_occupancy(const DeviceSpec& device, int threads_per_block,
                            int regs_per_thread, int smem_bytes_per_block) {
  util::require(threads_per_block > 0 && threads_per_block % device.warp_size == 0,
                "occupancy: threads_per_block must be a positive multiple of the warp size");
  util::require(regs_per_thread >= 0, "occupancy: negative register count");
  util::require(regs_per_thread <= device.max_registers_per_thread,
                "occupancy: kernel exceeds the per-thread register limit");
  util::require(smem_bytes_per_block >= 0, "occupancy: negative shared memory");
  util::require(smem_bytes_per_block <= device.shared_mem_per_block,
                "occupancy: kernel exceeds the per-block shared-memory limit");

  const int warps_per_block = threads_per_block / device.warp_size;

  // Registers are allocated per warp in units of `register_alloc_granularity`.
  const int regs_per_warp =
      round_up(std::max(regs_per_thread, 1) * device.warp_size,
               device.register_alloc_granularity);
  const int warps_by_regs = device.registers_per_sm / regs_per_warp;
  const int blocks_by_regs = warps_by_regs / warps_per_block;

  const int smem_alloc = smem_bytes_per_block == 0
                             ? 0
                             : round_up(smem_bytes_per_block,
                                        device.shared_mem_alloc_granularity);
  const int blocks_by_smem = smem_alloc == 0
                                 ? std::numeric_limits<int>::max()
                                 : device.shared_mem_per_sm / smem_alloc;

  const int blocks_by_threads = device.max_threads_per_sm / threads_per_block;
  const int blocks_by_slots = device.max_blocks_per_sm;

  Occupancy occ;
  occ.blocks_per_sm = blocks_by_regs;
  occ.limiter = Occupancy::Limiter::kRegisters;
  if (blocks_by_smem < occ.blocks_per_sm) {
    occ.blocks_per_sm = blocks_by_smem;
    occ.limiter = Occupancy::Limiter::kSharedMemory;
  }
  if (blocks_by_threads < occ.blocks_per_sm) {
    occ.blocks_per_sm = blocks_by_threads;
    occ.limiter = Occupancy::Limiter::kThreads;
  }
  if (blocks_by_slots < occ.blocks_per_sm) {
    occ.blocks_per_sm = blocks_by_slots;
    occ.limiter = Occupancy::Limiter::kBlockSlots;
  }
  occ.blocks_per_sm = std::max(occ.blocks_per_sm, 0);
  // A kernel whose single block exhausts an SM resource still runs alone.
  if (occ.blocks_per_sm == 0) {
    occ.blocks_per_sm = 1;
  }
  occ.active_warps_per_sm =
      std::min(occ.blocks_per_sm * warps_per_block, device.max_warps_per_sm);
  occ.active_threads_per_sm = occ.active_warps_per_sm * device.warp_size;
  occ.fraction = static_cast<double>(occ.active_warps_per_sm) /
                 static_cast<double>(device.max_warps_per_sm);
  return occ;
}

Occupancy compute_occupancy(const DeviceSpec& device, const Kernel& kernel) {
  return compute_occupancy(device, kernel.threads_per_block(), kernel.vreg_count(),
                           kernel.smem_bytes());
}

}  // namespace wsim::simt
