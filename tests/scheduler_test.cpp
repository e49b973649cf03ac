#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "wsim/simt/device.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/simt/scheduler.hpp"
#include "wsim/util/rng.hpp"

namespace {

using wsim::simt::BlockCost;
using wsim::simt::compute_occupancy;
using wsim::simt::DeviceSpec;
using wsim::simt::KernelTiming;
using wsim::simt::schedule_blocks;

const DeviceSpec kDev = wsim::simt::make_k1200();  // 4 SMs

TEST(Scheduler, EmptyGridIsFree) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const KernelTiming t = schedule_blocks(kDev, occ, {});
  EXPECT_EQ(t.cycles, 0);
}

TEST(Scheduler, SingleBlockLatencyDominates) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const std::vector<BlockCost> blocks = {{10000, 100, 10}};
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.cycles, 10000);
}

TEST(Scheduler, FewBlocksSpreadAcrossSms) {
  // 4 blocks on 4 SMs run fully in parallel.
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const std::vector<BlockCost> blocks(4, BlockCost{5000, 100, 10});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.latency_bound_cycles, 5000);
}

TEST(Scheduler, OversubscriptionSerializesWaves) {
  // occupancy 1 block/SM (heavy smem), 8 identical blocks on 4 SMs -> two
  // waves.
  const auto occ = compute_occupancy(kDev, 32, 16, 49152);
  ASSERT_EQ(occ.blocks_per_sm, 1);
  const std::vector<BlockCost> blocks(8, BlockCost{5000, 100, 10});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.latency_bound_cycles, 10000);
}

TEST(Scheduler, HigherOccupancyHidesLatency) {
  const auto occ1 = compute_occupancy(kDev, 32, 16, 49152);  // 1 block/SM
  const auto occ8 = compute_occupancy(kDev, 32, 16, 8192);   // 8 blocks/SM
  ASSERT_GT(occ8.blocks_per_sm, occ1.blocks_per_sm);
  const std::vector<BlockCost> blocks(64, BlockCost{5000, 100, 10});
  const KernelTiming low = schedule_blocks(kDev, occ1, blocks);
  const KernelTiming high = schedule_blocks(kDev, occ8, blocks);
  EXPECT_LT(high.cycles, low.cycles);
}

TEST(Scheduler, ThroughputBoundKicksInWhenSaturated) {
  // Blocks with enormous instruction counts: even fully overlapped, the
  // issue ports serialize them.
  const auto occ = compute_occupancy(kDev, 32, 16, 0);  // 32 blocks/SM
  const std::vector<BlockCost> blocks(128, BlockCost{100, 400000, 0});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  // 128 blocks / 4 SMs = 32 blocks/SM; each needs 400000/4 = 100000 issue
  // cycles -> 3.2M cycles per SM.
  EXPECT_EQ(t.throughput_bound_cycles, 3200000);
  EXPECT_EQ(t.cycles, 3200000);
}

TEST(Scheduler, SmemPortBoundsThroughput) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  // smem transactions dominate the issue count here.
  const std::vector<BlockCost> blocks(4, BlockCost{100, 100, 50000});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.throughput_bound_cycles, 50000);
}

TEST(Scheduler, HeterogeneousBlocksBalanceGreedily) {
  // One long block and many short ones: greedy dispatch must not stack the
  // long one behind shorts on a busy SM when an idle slot exists.
  const auto occ = compute_occupancy(kDev, 32, 16, 49152);  // 1 block/SM
  std::vector<BlockCost> blocks(3, BlockCost{1000, 10, 0});
  blocks.push_back({9000, 10, 0});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.latency_bound_cycles, 9000);
}

TEST(Scheduler, SecondsFollowClock) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const std::vector<BlockCost> blocks = {{static_cast<long long>(kDev.clock_ghz * 1e9),
                                          100, 0}};
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_NEAR(t.seconds, 1.0, 1e-9);
}

TEST(Scheduler, MoreSmsFinishSooner) {
  const DeviceSpec titan = wsim::simt::make_titan_x();  // 24 SMs
  const auto occ_k = compute_occupancy(kDev, 32, 16, 49152);
  const auto occ_t = compute_occupancy(titan, 32, 16, 49152);
  const std::vector<BlockCost> blocks(96, BlockCost{1000, 10, 0});
  EXPECT_LT(schedule_blocks(titan, occ_t, blocks).cycles,
            schedule_blocks(kDev, occ_k, blocks).cycles);
}

}  // namespace

namespace {

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, MakespanRespectsLowerBounds) {
  wsim::util::Rng rng(GetParam());
  const auto occ = compute_occupancy(
      kDev, 32, 32, static_cast<int>(rng.uniform_int(0, 16384)));
  std::vector<BlockCost> blocks(static_cast<std::size_t>(rng.uniform_int(1, 200)));
  long long max_latency = 0;
  std::uint64_t total_issue = 0;
  std::uint64_t total_smem = 0;
  for (auto& b : blocks) {
    b.latency_cycles = rng.uniform_int(1, 100000);
    b.issue_slots = static_cast<std::uint64_t>(rng.uniform_int(1, 50000));
    b.smem_transactions = static_cast<std::uint64_t>(rng.uniform_int(0, 20000));
    max_latency = std::max(max_latency, b.latency_cycles);
    total_issue += b.issue_slots;
    total_smem += b.smem_transactions;
  }
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  // No schedule can beat the longest block...
  EXPECT_GE(t.cycles, max_latency);
  // ...nor the aggregate issue/smem work spread over every SM port.
  const long long issue_floor = static_cast<long long>(
      total_issue / static_cast<std::uint64_t>(kDev.sm_count * kDev.schedulers_per_sm));
  EXPECT_GE(t.cycles, issue_floor);
  const long long smem_floor =
      static_cast<long long>(total_smem / static_cast<std::uint64_t>(kDev.sm_count));
  EXPECT_GE(t.cycles, smem_floor);
  // And the components are consistent.
  EXPECT_EQ(t.cycles, std::max(t.latency_bound_cycles, t.throughput_bound_cycles));
}

TEST_P(SchedulerPropertyTest, MoreConcurrencyNeverHurtsLatencySchedule) {
  wsim::util::Rng rng(GetParam() ^ 0x5EEDULL);
  std::vector<BlockCost> blocks(static_cast<std::size_t>(rng.uniform_int(1, 100)));
  for (auto& b : blocks) {
    b.latency_cycles = rng.uniform_int(1, 50000);
    b.issue_slots = 1;
    b.smem_transactions = 0;
  }
  const auto occ1 = compute_occupancy(kDev, 32, 16, 49152);  // 1 block/SM
  const auto occ8 = compute_occupancy(kDev, 32, 16, 8192);   // 8 blocks/SM
  EXPECT_LE(schedule_blocks(kDev, occ8, blocks).latency_bound_cycles,
            schedule_blocks(kDev, occ1, blocks).latency_bound_cycles);
}

/// The list schedule spelled out with a slot heap for every grid: the
/// reference the one-wave closed form must reproduce exactly.
KernelTiming reference_schedule(const DeviceSpec& device, int blocks_per_sm,
                                const std::vector<BlockCost>& blocks) {
  using Slot = std::tuple<long long, int, int>;  // (free_at, rank, sm)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> slots;
  for (int sm = 0; sm < device.sm_count; ++sm) {
    for (int rank = 0; rank < blocks_per_sm; ++rank) {
      slots.emplace(0, rank, sm);
    }
  }
  std::vector<long long> sm_cycles(static_cast<std::size_t>(device.sm_count), 0);
  KernelTiming t;
  for (const BlockCost& b : blocks) {
    auto [free_at, rank, sm] = slots.top();
    slots.pop();
    const long long finish = free_at + b.latency_cycles;
    t.latency_bound_cycles = std::max(t.latency_bound_cycles, finish);
    const auto issue = static_cast<long long>(
        (b.issue_slots + static_cast<std::uint64_t>(device.schedulers_per_sm) - 1) /
        static_cast<std::uint64_t>(device.schedulers_per_sm));
    sm_cycles[static_cast<std::size_t>(sm)] +=
        std::max(issue, static_cast<long long>(b.smem_transactions));
    slots.emplace(finish, rank, sm);
  }
  t.throughput_bound_cycles = *std::max_element(sm_cycles.begin(), sm_cycles.end());
  t.cycles = std::max(t.latency_bound_cycles, t.throughput_bound_cycles);
  return t;
}

TEST_P(SchedulerPropertyTest, ClosedFormMatchesTheHeapAroundOneWave) {
  DeviceSpec one_sm = kDev;
  one_sm.sm_count = 1;
  for (const DeviceSpec& device : {kDev, one_sm}) {
    for (const int blocks_per_sm : {1, 3}) {
      wsim::simt::Occupancy occ;
      occ.blocks_per_sm = blocks_per_sm;
      const int slots = device.sm_count * blocks_per_sm;
      for (const int n : {slots - 1, slots, slots + 1}) {
        if (n < 1) {
          continue;
        }
        for (const bool zero_latency : {false, true}) {
          wsim::util::Rng rng(GetParam() * 131 + static_cast<std::uint64_t>(n));
          std::vector<BlockCost> blocks(static_cast<std::size_t>(n));
          for (auto& b : blocks) {
            b.latency_cycles = rng.uniform_int(1, 20000);
            b.issue_slots = static_cast<std::uint64_t>(rng.uniform_int(1, 80000));
            b.smem_transactions = static_cast<std::uint64_t>(rng.uniform_int(0, 30000));
          }
          if (zero_latency) {
            // A zero-latency block frees its slot at once, so the next
            // block reuses it: not the closed form's slot order.
            blocks.front().latency_cycles = 0;
          }
          const KernelTiming want = reference_schedule(device, blocks_per_sm, blocks);
          const KernelTiming got = schedule_blocks(device, occ, blocks);
          SCOPED_TRACE(::testing::Message()
                       << "sm_count=" << device.sm_count << " blocks_per_sm="
                       << blocks_per_sm << " n=" << n << " zero=" << zero_latency);
          EXPECT_EQ(got.latency_bound_cycles, want.latency_bound_cycles);
          EXPECT_EQ(got.throughput_bound_cycles, want.throughput_bound_cycles);
          EXPECT_EQ(got.cycles, want.cycles);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
