#include <gtest/gtest.h>

#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/model/breakdown.hpp"
#include "wsim/model/perf_model.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/util/check.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::model::CommBreakdown;
using wsim::model::hot_loop_breakdown;
using wsim::simt::compute_occupancy;
using wsim::simt::DeviceSpec;

const DeviceSpec kDev = wsim::simt::make_k1200();

TEST(PerfModel, PredictionInvertsExactly) {
  const auto occ = compute_occupancy(kDev, 32, 32, 0);
  const double latency = 183.0;
  const double cups = wsim::model::predict_cups(kDev, occ, latency);
  EXPECT_NEAR(wsim::model::effective_latency_cycles(kDev, occ, cups), latency, 1e-9);
}

TEST(PerfModel, LowerLatencyMeansMoreCups) {
  const auto occ = compute_occupancy(kDev, 32, 32, 0);
  EXPECT_GT(wsim::model::predict_cups(kDev, occ, 22.0),
            wsim::model::predict_cups(kDev, occ, 183.0));
}

TEST(PerfModel, ParallelismScalesPrediction) {
  const auto occ_full = compute_occupancy(kDev, 256, 32, 0);
  const auto occ_reg = compute_occupancy(kDev, 256, 128, 0);
  ASSERT_GT(occ_full.parallelism(kDev), occ_reg.parallelism(kDev));
  EXPECT_GT(wsim::model::predict_cups(kDev, occ_full, 100.0),
            wsim::model::predict_cups(kDev, occ_reg, 100.0));
}

TEST(PerfModel, PaperScaleSanity) {
  // Paper Table II: SW-like kernels on K1200 deliver single-digit GCUPS.
  const auto occ = compute_occupancy(kDev, 32, 30, 0);
  const double gcups = wsim::model::predict_gcups(kDev, occ, 183.0);
  EXPECT_GT(gcups, 1.0);
  EXPECT_LT(gcups, 50.0);
}

TEST(PerfModel, RejectsBadInputs) {
  const auto occ = compute_occupancy(kDev, 32, 32, 0);
  EXPECT_THROW(wsim::model::predict_cups(kDev, occ, 0.0), wsim::util::CheckError);
  EXPECT_THROW(wsim::model::effective_latency_cycles(kDev, occ, 0.0),
               wsim::util::CheckError);
}

// --- Table III: instruction breakdown ---------------------------------------

TEST(Breakdown, Sw1HotLoopIsSharedMemoryBound) {
  const auto kernel = wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {});
  const CommBreakdown b = hot_loop_breakdown(kernel);
  // Listing 2a structure: neighbour loads plus H/F/kv writes and a sync.
  EXPECT_GE(b.smem_loads, 3U);
  EXPECT_GE(b.smem_stores, 3U);
  EXPECT_EQ(b.barriers, 1U);
  EXPECT_EQ(b.shuffle_total(), 0U);
}

TEST(Breakdown, Sw2HotLoopIsShuffleBound) {
  const auto kernel = wsim::kernels::build_sw_kernel(CommMode::kShuffle, {});
  const CommBreakdown b = hot_loop_breakdown(kernel);
  EXPECT_GE(b.shfl_up, 2U);
  EXPECT_EQ(b.smem_total(), 0U);
  EXPECT_EQ(b.barriers, 0U);
  EXPECT_GE(b.reg_moves, 3U);  // reg rotation
}

TEST(Breakdown, PhSharedCountsMatchDesign) {
  const auto kernel = wsim::kernels::build_ph_shared_kernel(128);
  const CommBreakdown b = hot_loop_breakdown(kernel);
  // 5 neighbour loads (3 diag + 2 up) and 3 stores per warp, 4 warps per
  // block (the paper's "32 shared memory instructions each time" scale).
  EXPECT_EQ(b.smem_loads, 20U);
  EXPECT_EQ(b.smem_stores, 12U);
  EXPECT_EQ(b.smem_total(), 32U);
  EXPECT_EQ(b.barriers, 1U);
}

TEST(Breakdown, PhShuffleBoundaryOnlyCommunication) {
  const auto c4 = hot_loop_breakdown(wsim::kernels::build_ph_shuffle_kernel(4));
  const auto c1 = hot_loop_breakdown(wsim::kernels::build_ph_shuffle_kernel(1));
  // Inter-thread communication happens only between boundary cells: the
  // shuffle count does not grow with cells/thread.
  EXPECT_EQ(c4.shfl_up, 5U);
  EXPECT_EQ(c1.shfl_up, 5U);
  EXPECT_EQ(c4.smem_total(), 0U);
  // Register traffic (rotation) does grow with cells/thread.
  EXPECT_GT(c4.reg_moves, c1.reg_moves);
}

TEST(Breakdown, EstimatedReductionPositiveForBothAlgorithms) {
  const auto& lat = kDev.lat;
  const auto sw1 = wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {});
  const auto sw2 = wsim::kernels::build_sw_kernel(CommMode::kShuffle, {});
  const double sw_reduction = wsim::model::estimated_reduction(sw1, sw2, lat);
  EXPECT_GT(sw_reduction, 0.0);

  const auto ph1 = wsim::kernels::build_ph_shared_kernel(128);
  const auto ph2 = wsim::kernels::build_ph_shuffle_kernel(4);
  const double ph_reduction = wsim::model::estimated_reduction(ph1, ph2, lat);
  EXPECT_GT(ph_reduction, 0.0);
}

TEST(Breakdown, CommCyclesUseLatencyTable) {
  CommBreakdown b;
  b.smem_loads = 3;
  b.smem_stores = 1;
  b.reg_moves = 2;
  b.barriers = 1;
  // Paper's SW1 estimate: 6 smem accesses ~21 cycles + sync 57 = 183,
  // with the two rotations counted as register ops here.
  EXPECT_NEAR(b.comm_cycles(kDev.lat), 4 * 21 + 2 * 1 + 57, 1e-9);
}

TEST(Breakdown, RejectsLooplessKernel) {
  const wsim::simt::Kernel kernel("flat", 32);
  EXPECT_THROW(hot_loop_breakdown(kernel), wsim::util::CheckError);
}

}  // namespace
