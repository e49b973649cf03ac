#pragma once

#include <cstdint>
#include <span>

#include "wsim/simt/device.hpp"
#include "wsim/simt/occupancy.hpp"

namespace wsim::simt {

/// Cost of one block as measured by the interpreter, sufficient for the
/// grid-level composition.
struct BlockCost {
  long long latency_cycles = 0;        ///< block makespan (critical path)
  std::uint64_t issue_slots = 0;       ///< warp-level instructions issued
  std::uint64_t smem_transactions = 0; ///< shared-memory transactions
};

/// Grid-level timing for a kernel launch.
struct KernelTiming {
  long long cycles = 0;   ///< kernel makespan in device cycles
  double seconds = 0.0;   ///< cycles / clock
  long long latency_bound_cycles = 0;     ///< list-scheduling makespan component
  long long throughput_bound_cycles = 0;  ///< busiest SM's issue/smem serialization
};

/// Composes per-block costs into a kernel makespan.
///
/// Each SM offers `occupancy.blocks_per_sm` concurrent block slots; blocks
/// dispatch greedily to the earliest-available slot (the hardware's dynamic
/// block scheduler). Latency-wise resident blocks overlap fully — that is
/// what occupancy buys — but every instruction still consumes one of the
/// SM's issue slots (`schedulers_per_sm` per cycle) and every shared-memory
/// transaction consumes the SM's single warp-wide smem port, so a fully
/// occupied SM degenerates to the throughput bound. The makespan is the
/// maximum over SMs of max(latency-schedule finish, throughput
/// serialization). A grid that fits in one wave of slots with every
/// latency positive takes a closed form equal to that schedule; any other
/// grid runs the slot heap.
KernelTiming schedule_blocks(const DeviceSpec& device, const Occupancy& occupancy,
                             std::span<const BlockCost> blocks);

}  // namespace wsim::simt
