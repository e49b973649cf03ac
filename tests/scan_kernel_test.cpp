#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "wsim/kernels/scan_kernels.hpp"
#include "wsim/model/breakdown.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"

namespace {

using wsim::kernels::build_scan_kernel;
using wsim::kernels::CommMode;
using wsim::kernels::run_scan;

const wsim::simt::DeviceSpec kDev = wsim::simt::make_k1200();

std::vector<std::int32_t> reference_scan(const std::vector<std::int32_t>& in) {
  std::vector<std::int32_t> out(in.size());
  std::inclusive_scan(in.begin(), in.end(), out.begin());
  return out;
}

struct ScanCase {
  CommMode mode;
  int threads;
};

class ScanModes : public ::testing::TestWithParam<ScanCase> {};

TEST_P(ScanModes, MatchesStdInclusiveScan) {
  const auto kernel = build_scan_kernel(GetParam().mode, GetParam().threads);
  wsim::util::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, GetParam().threads));
    std::vector<std::int32_t> in(n);
    for (auto& v : in) {
      v = static_cast<std::int32_t>(rng.uniform_int(-100, 100));
    }
    EXPECT_EQ(run_scan(kernel, kDev, in), reference_scan(in)) << "n=" << n;
  }
}

TEST_P(ScanModes, AllOnesGiveLaneIndexPlusOne) {
  const auto kernel = build_scan_kernel(GetParam().mode, GetParam().threads);
  const std::vector<std::int32_t> in(static_cast<std::size_t>(GetParam().threads), 1);
  const auto out = run_scan(kernel, kDev, in);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int32_t>(i + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ScanModes,
    ::testing::Values(ScanCase{CommMode::kSharedMemory, 32},
                      ScanCase{CommMode::kSharedMemory, 128},
                      ScanCase{CommMode::kShuffle, 32},
                      ScanCase{CommMode::kShuffle, 128}),
    [](const ::testing::TestParamInfo<ScanCase>& info) {
      return std::string(info.param.mode == CommMode::kSharedMemory ? "shared"
                                                                    : "shuffle") +
             "_t" + std::to_string(info.param.threads);
    });

TEST(ScanDesign, ShuffleScanIsFasterPerBlock) {
  const std::vector<std::int32_t> in(128, 3);
  long long shared_cycles = 0;
  long long shuffle_cycles = 0;
  run_scan(build_scan_kernel(CommMode::kSharedMemory, 128), kDev, in, &shared_cycles);
  run_scan(build_scan_kernel(CommMode::kShuffle, 128), kDev, in, &shuffle_cycles);
  EXPECT_LT(shuffle_cycles, shared_cycles);
}

TEST(ScanDesign, SingleWarpShuffleScanNeedsNoMemoryAtAll) {
  const auto kernel = build_scan_kernel(CommMode::kShuffle, 32);
  EXPECT_EQ(kernel.smem_bytes(), 0);
  for (const auto& ins : kernel.code()) {
    EXPECT_NE(ins.op, wsim::simt::Op::kBar);
    EXPECT_NE(ins.op, wsim::simt::Op::kLds);
    EXPECT_NE(ins.op, wsim::simt::Op::kSts);
  }
}

TEST(ScanDesign, MultiWarpShuffleCrossesSmemExactlyOnce) {
  // The healthy hybrid: one barrier and one warp-total store per block,
  // versus log2(T) barriers in the shared design.
  const auto shuffle = build_scan_kernel(CommMode::kShuffle, 128);
  const auto shared = build_scan_kernel(CommMode::kSharedMemory, 128);
  auto count = [](const wsim::simt::Kernel& k, wsim::simt::Op op) {
    std::size_t n = 0;
    for (const auto& ins : k.code()) {
      n += ins.op == op ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(count(shuffle, wsim::simt::Op::kBar), 1U);
  EXPECT_EQ(count(shuffle, wsim::simt::Op::kSts), 1U);
  EXPECT_GE(count(shared, wsim::simt::Op::kBar), 7U);  // log2(128) = 7 stages
}

TEST(ScanDesign, RunScanValidatesInput) {
  const auto kernel = build_scan_kernel(CommMode::kShuffle, 32);
  EXPECT_THROW(run_scan(kernel, kDev, {}), wsim::util::CheckError);
  EXPECT_THROW(run_scan(kernel, kDev, std::vector<std::int32_t>(33, 1)),
               wsim::util::CheckError);
  EXPECT_THROW(build_scan_kernel(CommMode::kShuffle, 33), wsim::util::CheckError);
}

}  // namespace
