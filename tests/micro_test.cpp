#include <gtest/gtest.h>

#include "wsim/micro/microbench.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/util/check.hpp"

namespace {

using wsim::micro::build_micro_kernel;
using wsim::micro::measure_latencies;
using wsim::micro::MicroKernel;
using wsim::micro::MicroResults;
using wsim::micro::run_micro;
using wsim::simt::DeviceSpec;

const DeviceSpec kK1200 = wsim::simt::make_k1200();

TEST(Micro, CyclesScaleLinearlyWithIterations) {
  const auto kernel = build_micro_kernel(MicroKernel::kShflDown);
  const long long c256 = run_micro(kernel, kK1200, 256);
  const long long c512 = run_micro(kernel, kK1200, 512);
  const long long c1024 = run_micro(kernel, kK1200, 1024);
  // Perfect linearity: equal increments for equal iteration deltas.
  EXPECT_EQ(c1024 - c512, 2 * (c512 - c256));
}

TEST(Micro, FitIsPerfectlyLinear) {
  const MicroResults r = measure_latencies(kK1200);
  for (const auto* est : {&r.reg, &r.shfl, &r.shfl_up, &r.shfl_down, &r.shfl_xor,
                          &r.sharedmem, &r.sync}) {
    EXPECT_GT(est->r_squared, 0.9999);
    EXPECT_GT(est->slope, 0.0);
  }
}

TEST(Micro, ShuffleLatencyRecoveredWithinTwoCycles) {
  const MicroResults r = measure_latencies(kK1200);
  EXPECT_NEAR(r.shfl.latency, kK1200.lat.shfl, 2.0);
  EXPECT_NEAR(r.shfl_up.latency, kK1200.lat.shfl_up, 2.0);
  EXPECT_NEAR(r.shfl_down.latency, kK1200.lat.shfl_down, 2.0);
  EXPECT_NEAR(r.shfl_xor.latency, kK1200.lat.shfl_xor, 2.0);
}

TEST(Micro, SharedMemAndSyncLatenciesRecovered) {
  const MicroResults r = measure_latencies(kK1200);
  // The chase adds one dependent address add per load; allow that margin.
  EXPECT_NEAR(r.sharedmem.latency, kK1200.lat.smem_load, 8.0);
  // Eq. 4 assumes the chase and the barrier compose serially; in the
  // pipeline they partially overlap, so the derivation under-estimates
  // (the paper's own methodology carries the same bias).
  EXPECT_NEAR(r.sync.latency, kK1200.lat.sync_barrier, 15.0);
}

TEST(Micro, OrderingMatchesPaperFig3) {
  // register < any shuffle < shared memory, on every device.
  for (const DeviceSpec& dev : wsim::simt::all_devices()) {
    const MicroResults r = measure_latencies(dev);
    for (const auto* shfl : {&r.shfl, &r.shfl_up, &r.shfl_down, &r.shfl_xor}) {
      EXPECT_GT(shfl->latency, r.reg.latency) << dev.name;
      EXPECT_LT(shfl->latency, r.sharedmem.latency + 8.0) << dev.name;
    }
  }
}

TEST(Micro, XorInversionAcrossArchitectures) {
  const MicroResults maxwell = measure_latencies(kK1200);
  const MicroResults kepler = measure_latencies(wsim::simt::make_k40());
  // Maxwell: xor slowest of the shuffles; Kepler: xor fastest (Fig. 3).
  EXPECT_GT(maxwell.shfl_xor.latency, maxwell.shfl_up.latency);
  EXPECT_LT(kepler.shfl_xor.latency, kepler.shfl_up.latency);
}

TEST(Micro, MaxwellDevicesAgree) {
  const MicroResults a = measure_latencies(kK1200);
  const MicroResults b = measure_latencies(wsim::simt::make_titan_x());
  EXPECT_NEAR(a.shfl.latency, b.shfl.latency, 0.5);
  EXPECT_NEAR(a.sharedmem.latency, b.sharedmem.latency, 0.5);
}

TEST(Micro, RejectsBadInputs) {
  const auto kernel = build_micro_kernel(MicroKernel::kRegister);
  EXPECT_THROW(run_micro(kernel, kK1200, 0), wsim::util::CheckError);
  const std::vector<int> single = {64};
  EXPECT_THROW(measure_latencies(kK1200, single), wsim::util::CheckError);
}

TEST(Micro, KernelNames) {
  EXPECT_EQ(wsim::micro::to_string(MicroKernel::kShflXor), "shfl_xor");
  EXPECT_EQ(build_micro_kernel(MicroKernel::kSharedMemSync).name(), "sharedmem_sync");
}

TEST(Micro, SweepHasTenPoints) {
  EXPECT_EQ(wsim::micro::default_iteration_sweep().size(), 10U);  // "ten runs"
}

}  // namespace
