#include "wsim/simt/scheduler.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::simt {

namespace {

/// One block's share of its SM's throughput bound: schedulers_per_sm
/// instructions retire per cycle, and the smem port serves one warp-wide
/// transaction per cycle.
long long throughput_cycles(const DeviceSpec& device, const BlockCost& block) noexcept {
  const long long issue_cycles =
      static_cast<long long>((block.issue_slots + device.schedulers_per_sm - 1) /
                             static_cast<std::uint64_t>(device.schedulers_per_sm));
  return std::max(issue_cycles, static_cast<long long>(block.smem_transactions));
}

KernelTiming make_timing(const DeviceSpec& device, long long latency_bound,
                         long long throughput_bound) noexcept {
  KernelTiming timing;
  timing.latency_bound_cycles = latency_bound;
  timing.throughput_bound_cycles = throughput_bound;
  timing.cycles = std::max(latency_bound, throughput_bound);
  timing.seconds = static_cast<double>(timing.cycles) / (device.clock_ghz * 1e9);
  return timing;
}

/// The heap schedule when no slot is reused: with at most one block per
/// slot and every latency positive, a finished slot (free_at > 0) never
/// ties a fresh one (free_at 0), so block i takes the i-th fresh slot in
/// (rank, sm) order — SM i % sm_count. The latency bound is then the
/// largest block latency and SM s serves blocks s, s + sm_count, ...
KernelTiming schedule_one_wave(const DeviceSpec& device,
                               std::span<const BlockCost> blocks) {
  long long latency_bound = 0;
  for (const BlockCost& block : blocks) {
    latency_bound = std::max(latency_bound, block.latency_cycles);
  }
  const auto sm_count = static_cast<std::size_t>(device.sm_count);
  long long throughput_bound = 0;
  for (std::size_t sm = 0; sm < std::min(sm_count, blocks.size()); ++sm) {
    long long sm_cycles = 0;
    for (std::size_t i = sm; i < blocks.size(); i += sm_count) {
      sm_cycles += throughput_cycles(device, blocks[i]);
    }
    throughput_bound = std::max(throughput_bound, sm_cycles);
  }
  return make_timing(device, latency_bound, throughput_bound);
}

}  // namespace

KernelTiming schedule_blocks(const DeviceSpec& device, const Occupancy& occupancy,
                             std::span<const BlockCost> blocks) {
  util::require(occupancy.blocks_per_sm > 0, "schedule_blocks: occupancy must allow >= 1 block");
  if (blocks.empty()) {
    return {};
  }
  const auto slot_count = static_cast<std::size_t>(device.sm_count) *
                          static_cast<std::size_t>(occupancy.blocks_per_sm);
  if (blocks.size() <= slot_count &&
      std::all_of(blocks.begin(), blocks.end(),
                  [](const BlockCost& b) { return b.latency_cycles > 0; })) {
    return schedule_one_wave(device, blocks);
  }

  struct Slot {
    long long free_at = 0;
    int rank = 0;  ///< slot index within its SM: ties spread across SMs first
    int sm = 0;
    bool operator>(const Slot& other) const noexcept {
      if (free_at != other.free_at) {
        return free_at > other.free_at;
      }
      if (rank != other.rank) {
        return rank > other.rank;
      }
      return sm > other.sm;
    }
  };

  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> slots;
  for (int sm = 0; sm < device.sm_count; ++sm) {
    for (int s = 0; s < occupancy.blocks_per_sm; ++s) {
      slots.push({0, s, sm});
    }
  }

  std::vector<long long> sm_throughput_cycles(static_cast<std::size_t>(device.sm_count), 0);
  long long latency_makespan = 0;
  for (const BlockCost& block : blocks) {
    Slot slot = slots.top();
    slots.pop();
    const long long finish = slot.free_at + block.latency_cycles;
    latency_makespan = std::max(latency_makespan, finish);
    sm_throughput_cycles[static_cast<std::size_t>(slot.sm)] +=
        throughput_cycles(device, block);
    slot.free_at = finish;
    slots.push(slot);
  }
  return make_timing(
      device, latency_makespan,
      *std::max_element(sm_throughput_cycles.begin(), sm_throughput_cycles.end()));
}

}  // namespace wsim::simt
