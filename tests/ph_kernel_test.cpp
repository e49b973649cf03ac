#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "wsim/align/pairhmm.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/workload/generator.hpp"

namespace {

using wsim::align::PairHmmTask;
using wsim::kernels::CommMode;
using wsim::kernels::PhBatchResult;
using wsim::kernels::PhRunner;
using wsim::kernels::PhRunOptions;
using wsim::workload::PhBatch;

const wsim::simt::DeviceSpec kDev = wsim::simt::make_k1200();

PhRunOptions with_outputs() {
  PhRunOptions opt;
  opt.collect_outputs = true;
  return opt;
}

PairHmmTask make_task(std::string read, std::string hap, std::uint8_t qual = 30) {
  PairHmmTask task;
  task.read = std::move(read);
  task.hap = std::move(hap);
  task.base_quals.assign(task.read.size(), qual);
  task.ins_quals.assign(task.read.size(), 45);
  task.del_quals.assign(task.read.size(), 45);
  task.gcp = 10;
  return task;
}

std::string random_dna(wsim::util::Rng& rng, int len) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string s(static_cast<std::size_t>(len), 'A');
  for (char& c : s) {
    c = kBases[rng.uniform_int(0, 3)];
  }
  return s;
}

void expect_matches_reference(const PhBatch& batch, const PhBatchResult& result,
                              const std::string& label) {
  ASSERT_EQ(result.log10.size(), batch.size()) << label;
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const double ref = wsim::align::pairhmm_log10(batch[t]);
    EXPECT_NEAR(result.log10[t], ref, 5e-3 + std::abs(ref) * 1e-3)
        << label << " task " << t;
  }
}

class PhKernelModes : public ::testing::TestWithParam<CommMode> {};

TEST_P(PhKernelModes, PerfectMatchShortRead) {
  const PhRunner runner(GetParam());
  const PhBatch batch = {make_task("ACGTACGTACGTACGT", "ACGTACGTACGTACGT", 40)};
  const PhBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, result, "perfect");
  EXPECT_GT(result.log10[0], -2.0);
}

TEST_P(PhKernelModes, MismatchesAndShifts) {
  const std::string hap = "TTTTTTTTACGTACGTACGTACGTTTTTTTTT";
  std::string read = "ACGTACGTACGTACGT";
  const PhRunner runner(GetParam());
  PhBatch batch;
  batch.push_back(make_task(read, hap, 35));
  read[7] = 'G';
  batch.push_back(make_task(read, hap, 35));
  batch.push_back(make_task("ACGT", "TGCA"));
  const PhBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, result, "shifted");
  EXPECT_GT(result.log10[0], result.log10[1]);
}

TEST_P(PhKernelModes, ReadLengthsAcrossAllVariants) {
  // One read length per kernel variant bucket, including the exact bucket
  // boundaries 32/33/64/65/96/97/127.
  wsim::util::Rng rng(5);
  const PhRunner runner(GetParam());
  PhBatch batch;
  for (const int len : {1, 2, 31, 32, 33, 64, 65, 96, 97, 127}) {
    const std::string hap = random_dna(rng, len + 30);
    std::string read = hap.substr(10, static_cast<std::size_t>(len));
    if (len > 4) {
      read[static_cast<std::size_t>(len / 2)] = 'A';
    }
    batch.push_back(make_task(std::move(read), hap));
  }
  const PhBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, result, "variants");
}

TEST_P(PhKernelModes, HapShorterThanRead) {
  const PhRunner runner(GetParam());
  const PhBatch batch = {make_task("ACGTACGTAA", "ACGTA")};
  const PhBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, result, "short-hap");
}

TEST_P(PhKernelModes, QualityTracksAffectResult) {
  wsim::util::Rng rng(7);
  const PhRunner runner(GetParam());
  const std::string hap = random_dna(rng, 60);
  std::string read = hap.substr(5, 40);
  read[10] = read[10] == 'A' ? 'T' : 'A';
  PairHmmTask varied = make_task(read, hap);
  for (std::size_t i = 0; i < varied.base_quals.size(); ++i) {
    varied.base_quals[i] = static_cast<std::uint8_t>(10 + (i * 7) % 30);
    varied.ins_quals[i] = static_cast<std::uint8_t>(30 + (i * 3) % 15);
    varied.del_quals[i] = static_cast<std::uint8_t>(30 + (i * 5) % 15);
  }
  const PhBatch batch = {varied, make_task(read, hap)};
  const PhBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, result, "qualities");
  EXPECT_NE(result.log10[0], result.log10[1]);
}

TEST_P(PhKernelModes, RandomizedPropertySweep) {
  wsim::util::Rng rng(0xBEEF);
  const PhRunner runner(GetParam());
  PhBatch batch;
  for (int t = 0; t < 10; ++t) {
    const int hap_len = static_cast<int>(rng.uniform_int(8, 140));
    const std::string hap = random_dna(rng, hap_len);
    const int read_len = static_cast<int>(
        std::min<std::int64_t>(rng.uniform_int(2, 127), hap_len));
    const auto start =
        static_cast<std::size_t>(rng.uniform_int(0, hap_len - read_len));
    std::string read = hap.substr(start, static_cast<std::size_t>(read_len));
    for (char& ch : read) {
      if (rng.uniform01() < 0.03) {
        ch = "ACGT"[rng.uniform_int(0, 3)];
      }
    }
    batch.push_back(make_task(std::move(read), hap,
                              static_cast<std::uint8_t>(rng.uniform_int(15, 40))));
  }
  const PhBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, result, "random");
}

INSTANTIATE_TEST_SUITE_P(Designs, PhKernelModes,
                         ::testing::Values(CommMode::kSharedMemory,
                                           CommMode::kShuffle),
                         [](const ::testing::TestParamInfo<CommMode>& info) {
                           return info.param == CommMode::kSharedMemory ? "PH1"
                                                                        : "PH2";
                         });

// --- design-level expectations --------------------------------------------

TEST(PhKernelDesign, BothDesignsAgreeOnWorkloadTasks) {
  wsim::workload::GeneratorConfig cfg;
  cfg.regions = 1;
  cfg.ph_tasks_per_region_mean = 12.0;
  const auto ds = wsim::workload::generate_dataset(cfg);
  PhBatch batch = ds.regions[0].ph_tasks;
  if (batch.size() > 12) {
    batch.resize(12);
  }
  const auto r1 = PhRunner(CommMode::kSharedMemory).run_batch(kDev, batch, with_outputs());
  const auto r2 = PhRunner(CommMode::kShuffle).run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, r1, "ph1");
  expect_matches_reference(batch, r2, "ph2");
}

TEST(PhKernelDesign, ShuffleUsesNoSharedMemoryOrBarriers) {
  const PhRunner runner(CommMode::kShuffle);
  for (std::size_t len : {16U, 48U, 80U, 112U}) {
    const auto& kernel = runner.kernel_for_read_len(len);
    EXPECT_EQ(kernel.smem_bytes(), 0);
    for (const auto& ins : kernel.code()) {
      EXPECT_NE(ins.op, wsim::simt::Op::kBar);
    }
  }
}

TEST(PhKernelDesign, SharedVariantsScaleLineBuffers) {
  const PhRunner runner(CommMode::kSharedMemory);
  EXPECT_EQ(runner.kernel_for_read_len(16).smem_bytes(), 9 * 32 * 4);
  EXPECT_EQ(runner.kernel_for_read_len(100).smem_bytes(), 9 * 128 * 4);
  EXPECT_EQ(runner.kernel_for_read_len(16).threads_per_block(), 32);
  EXPECT_EQ(runner.kernel_for_read_len(100).threads_per_block(), 128);
}

TEST(PhKernelDesign, RegisterBlockingRaisesRegisterUse) {
  // The paper's PH2 trade-off: more cells per thread -> more registers.
  const auto c1 = wsim::kernels::build_ph_shuffle_kernel(1);
  const auto c4 = wsim::kernels::build_ph_shuffle_kernel(4);
  EXPECT_GT(c4.vreg_count(), 2 * c1.vreg_count());
}

TEST(PhKernelDesign, ShuffleDropsOccupancyButWinsThroughput) {
  // Table II shape: PH2 occupancy falls below PH1 (register limited), yet
  // on a saturated device PH2 delivers higher GCUPS because it retires
  // fewer instructions per cell (the latency/parallelism trade-off the
  // paper analyzes).
  wsim::util::Rng rng(17);
  const std::string hap = random_dna(rng, 120);
  std::string read = hap.substr(0, 120);
  PhBatch batch(64, make_task(std::move(read), hap));
  const PhRunner ph1(CommMode::kSharedMemory);
  const PhRunner ph2(CommMode::kShuffle);
  PhRunOptions opt;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  const auto r1 = ph1.run_batch(kDev, batch, opt);
  const auto r2 = ph2.run_batch(kDev, batch, opt);
  EXPECT_LT(r2.run.launch.occupancy.fraction, r1.run.launch.occupancy.fraction);
  EXPECT_EQ(r2.run.launch.occupancy.limiter,
            wsim::simt::Occupancy::Limiter::kRegisters);
  // PH2 issues fewer warp instructions for the same cells...
  EXPECT_LT(r2.run.launch.instructions, r1.run.launch.instructions);
  // ...and wins end to end once the SMs are saturated.
  EXPECT_GT(r2.run.gcups_kernel(), r1.run.gcups_kernel());
}

TEST(PhKernelDesign, VariantRouting) {
  EXPECT_EQ(PhRunner::variant_for_read_len(1), 0);
  EXPECT_EQ(PhRunner::variant_for_read_len(32), 0);
  EXPECT_EQ(PhRunner::variant_for_read_len(33), 1);
  EXPECT_EQ(PhRunner::variant_for_read_len(96), 2);
  EXPECT_EQ(PhRunner::variant_for_read_len(97), 3);
  EXPECT_EQ(PhRunner::variant_for_read_len(128), 3);
  EXPECT_THROW(PhRunner::variant_for_read_len(0), wsim::util::CheckError);
  EXPECT_THROW(PhRunner::variant_for_read_len(129), wsim::util::CheckError);
}

TEST(PhKernelDesign, MixedBatchSplitsAcrossVariants) {
  wsim::util::Rng rng(19);
  const PhRunner runner(CommMode::kShuffle);
  PhBatch batch;
  for (const int len : {20, 50, 90, 120}) {
    const std::string hap = random_dna(rng, len + 10);
    batch.push_back(make_task(hap.substr(0, static_cast<std::size_t>(len)), hap));
  }
  const PhBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch, result, "mixed");
  // Four variants -> four launches -> four launch overheads.
  EXPECT_NEAR(result.run.launch.overhead_seconds,
              4 * kDev.kernel_launch_overhead_us * 1e-6, 1e-9);
}

}  // namespace
