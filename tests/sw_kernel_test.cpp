#include <gtest/gtest.h>

#include <string>

#include "wsim/align/smith_waterman.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/workload/generator.hpp"

namespace {

using wsim::align::SwFill;
using wsim::align::SwParams;
using wsim::kernels::CommMode;
using wsim::kernels::SwBatchResult;
using wsim::kernels::SwRunner;
using wsim::kernels::SwRunOptions;
using wsim::workload::SwBatch;
using wsim::workload::SwTask;

const wsim::simt::DeviceSpec kDev = wsim::simt::make_k1200();

SwParams simple_params() {
  SwParams p;
  p.match = 10;
  p.mismatch = -8;
  p.gap_open = -12;
  p.gap_extend = -2;
  return p;
}

SwRunOptions with_outputs() {
  SwRunOptions opt;
  opt.collect_outputs = true;
  return opt;
}

std::string random_dna(wsim::util::Rng& rng, int len) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string s(static_cast<std::size_t>(len), 'A');
  for (char& c : s) {
    c = kBases[rng.uniform_int(0, 3)];
  }
  return s;
}

/// Checks one device output against the host reference, cell by cell.
void expect_matches_reference(const SwTask& task, const SwParams& params,
                              const wsim::kernels::SwTaskOutput& out,
                              const std::string& label) {
  const SwFill ref = wsim::align::sw_fill(task.query, task.target, params);
  ASSERT_EQ(out.btrack.rows(), ref.btrack.rows()) << label;
  ASSERT_EQ(out.btrack.cols(), ref.btrack.cols()) << label;
  for (std::size_t i = 1; i < ref.btrack.rows(); ++i) {
    for (std::size_t j = 1; j < ref.btrack.cols(); ++j) {
      ASSERT_EQ(out.btrack(i, j), ref.btrack(i, j))
          << label << " btrack mismatch at (" << i << ", " << j << ")";
    }
  }
  EXPECT_EQ(out.best_score, ref.best_score) << label;
  EXPECT_EQ(out.best_i, ref.best_i) << label;
  EXPECT_EQ(out.best_j, ref.best_j) << label;
  const auto ref_aln =
      wsim::align::sw_backtrace(ref.btrack, ref.best_i, ref.best_j, ref.best_score);
  EXPECT_EQ(out.alignment.cigar, ref_aln.cigar) << label;
  EXPECT_EQ(out.alignment.score, ref_aln.score) << label;
  EXPECT_EQ(out.alignment.query_begin, ref_aln.query_begin) << label;
  EXPECT_EQ(out.alignment.target_begin, ref_aln.target_begin) << label;
}

class SwKernelModes : public ::testing::TestWithParam<CommMode> {};

TEST_P(SwKernelModes, IdenticalShortSequences) {
  const SwParams p = simple_params();
  const SwRunner runner(GetParam(), p);
  const SwBatch batch = {{"ACGTACGT", "ACGTACGT"}};
  const SwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  ASSERT_EQ(result.outputs.size(), 1U);
  EXPECT_EQ(result.outputs[0].best_score, 80);
  EXPECT_EQ(result.outputs[0].alignment.cigar, "8M");
  expect_matches_reference(batch[0], p, result.outputs[0], "identical");
}

TEST_P(SwKernelModes, SubstringAndGaps) {
  const SwParams p = simple_params();
  const SwRunner runner(GetParam(), p);
  const SwBatch batch = {
      {"CGTA", "AACGTATT"},
      {"AAAAACCCCC", "AAAAAGGCCCCC"},
      {"AAAAAGGCCCCC", "AAAAACCCCC"},
      {"AAAA", "TTTT"},
  };
  const SwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  ASSERT_EQ(result.outputs.size(), batch.size());
  EXPECT_EQ(result.outputs[0].alignment.cigar, "4M");
  EXPECT_EQ(result.outputs[1].alignment.cigar, "5M2D5M");
  EXPECT_EQ(result.outputs[2].alignment.cigar, "5M2I5M");
  EXPECT_EQ(result.outputs[3].best_score, 0);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, result.outputs[t],
                             "task " + std::to_string(t));
  }
}

TEST_P(SwKernelModes, MultiBandTallMatrix) {
  // M > BSIZE forces multiple bands and exercises the global-memory
  // boundary carry (coarse tiling).
  wsim::util::Rng rng(11);
  const SwParams p = simple_params();
  const SwRunner runner(GetParam(), p);
  const std::string target = random_dna(rng, 90);
  std::string query = target.substr(10, 70);
  query.insert(30, "GGG");  // force an indel
  const SwBatch batch = {{query, target}};
  const SwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  ASSERT_EQ(result.outputs.size(), 1U);
  expect_matches_reference(batch[0], p, result.outputs[0], "multiband");
}

TEST_P(SwKernelModes, NonMultipleOf32Lengths) {
  wsim::util::Rng rng(13);
  const SwParams p = simple_params();
  const SwRunner runner(GetParam(), p);
  const SwBatch batch = {
      {random_dna(rng, 33), random_dna(rng, 31)},
      {random_dna(rng, 65), random_dna(rng, 47)},
      {random_dna(rng, 1), random_dna(rng, 1)},
      {random_dna(rng, 40), random_dna(rng, 100)},
  };
  const SwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, result.outputs[t],
                             "task " + std::to_string(t));
  }
}

TEST_P(SwKernelModes, RandomizedPropertySweep) {
  wsim::util::Rng rng(0xC0FFEE);
  const SwParams p = simple_params();
  const SwRunner runner(GetParam(), p);
  SwBatch batch;
  for (int t = 0; t < 12; ++t) {
    const int n = static_cast<int>(rng.uniform_int(4, 120));
    const std::string target = random_dna(rng, n);
    std::string query;
    if (rng.uniform01() < 0.5) {
      // Mutated substring: realistic alignment shape.
      const int len = static_cast<int>(rng.uniform_int(3, n));
      const auto start =
          static_cast<std::size_t>(rng.uniform_int(0, n - len));
      query = target.substr(start, static_cast<std::size_t>(len));
      for (char& ch : query) {
        if (rng.uniform01() < 0.05) {
          ch = "ACGT"[rng.uniform_int(0, 3)];
        }
      }
    } else {
      query = random_dna(rng, static_cast<int>(rng.uniform_int(3, 90)));
    }
    batch.push_back({std::move(query), target});
  }
  const SwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, result.outputs[t],
                             "task " + std::to_string(t));
  }
}

TEST_P(SwKernelModes, GatkDefaultParameters) {
  wsim::util::Rng rng(21);
  const SwParams p;  // GATK NEW_SW_PARAMETERS
  const SwRunner runner(GetParam(), p);
  const std::string target = random_dna(rng, 80);
  std::string query = target.substr(5, 60);
  query[20] = query[20] == 'A' ? 'C' : 'A';
  const SwBatch batch = {{query, target}};
  const SwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch[0], p, result.outputs[0], "gatk-params");
}

INSTANTIATE_TEST_SUITE_P(Designs, SwKernelModes,
                         ::testing::Values(CommMode::kSharedMemory,
                                           CommMode::kShuffle),
                         [](const ::testing::TestParamInfo<CommMode>& info) {
                           return info.param == CommMode::kSharedMemory ? "SW1"
                                                                        : "SW2";
                         });

// --- design-level expectations --------------------------------------------

TEST(SwKernelDesign, ShuffleFreesSharedMemory) {
  const SwRunner sw1(CommMode::kSharedMemory);
  const SwRunner sw2(CommMode::kShuffle);
  EXPECT_GT(sw1.kernel().smem_bytes(), 4096);  // line buffers + btrack tile
  EXPECT_EQ(sw2.kernel().smem_bytes(), 0);
}

TEST(SwKernelDesign, ShuffleKernelHasNoBarriers) {
  const SwRunner sw2(CommMode::kShuffle);
  for (const auto& ins : sw2.kernel().code()) {
    EXPECT_NE(ins.op, wsim::simt::Op::kBar);
    EXPECT_NE(ins.op, wsim::simt::Op::kLds);
    EXPECT_NE(ins.op, wsim::simt::Op::kSts);
  }
}

TEST(SwKernelDesign, SharedKernelHasNoShuffles) {
  const SwRunner sw1(CommMode::kSharedMemory);
  for (const auto& ins : sw1.kernel().code()) {
    EXPECT_NE(ins.op, wsim::simt::Op::kShfl);
    EXPECT_NE(ins.op, wsim::simt::Op::kShflUp);
    EXPECT_NE(ins.op, wsim::simt::Op::kShflDown);
    EXPECT_NE(ins.op, wsim::simt::Op::kShflXor);
  }
}

TEST(SwKernelDesign, ShuffleImprovesOccupancy) {
  const SwRunner sw1(CommMode::kSharedMemory);
  const SwRunner sw2(CommMode::kShuffle);
  const auto occ1 = wsim::simt::compute_occupancy(kDev, sw1.kernel());
  const auto occ2 = wsim::simt::compute_occupancy(kDev, sw2.kernel());
  EXPECT_GT(occ2.fraction, occ1.fraction);
}

TEST(SwKernelDesign, ShuffleReducesIterationLatency) {
  wsim::util::Rng rng(31);
  const SwParams p = simple_params();
  const SwBatch batch = {{random_dna(rng, 64), random_dna(rng, 64)}};
  SwRunOptions opt;
  const auto r1 = SwRunner(CommMode::kSharedMemory, p).run_batch(kDev, batch, opt);
  const auto r2 = SwRunner(CommMode::kShuffle, p).run_batch(kDev, batch, opt);
  EXPECT_LT(r2.run.launch.representative.cycles,
            r1.run.launch.representative.cycles);
}

TEST(SwKernelDesign, CachedTimingMatchesFullTiming) {
  wsim::util::Rng rng(41);
  const SwParams p = simple_params();
  const SwRunner runner(CommMode::kShuffle, p);
  SwBatch batch;
  for (int t = 0; t < 6; ++t) {
    batch.push_back({random_dna(rng, 48), random_dna(rng, 48)});
  }
  SwRunOptions full;
  SwRunOptions cached;
  cached.mode = wsim::simt::ExecMode::kCachedByShape;
  const auto a = runner.run_batch(kDev, batch, full);
  const auto b = runner.run_batch(kDev, batch, cached);
  // Identical shapes -> identical block costs -> identical kernel timing.
  EXPECT_EQ(a.run.launch.timing.cycles, b.run.launch.timing.cycles);
}

TEST(SwKernelDesign, RunnerRejectsBadOptions) {
  const SwRunner runner(CommMode::kShuffle);
  SwRunOptions opt;
  opt.collect_outputs = true;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  const SwBatch batch = {{"ACGT", "ACGT"}};
  EXPECT_THROW(runner.run_batch(kDev, batch, opt), wsim::util::CheckError);
  EXPECT_THROW(runner.run_batch(kDev, {}, SwRunOptions{}), wsim::util::CheckError);
}

TEST(SwKernelDesign, WorkloadTasksAlignCorrectly) {
  // End-to-end: generator tasks through both kernels, cross-checked.
  wsim::workload::GeneratorConfig cfg;
  cfg.regions = 1;
  cfg.ph_tasks_per_region_mean = 1.0;
  cfg.sw_query_len_min = 40;
  cfg.sw_query_len_max = 80;
  cfg.sw_target_len_min = 60;
  cfg.sw_target_len_max = 100;
  const auto ds = wsim::workload::generate_dataset(cfg);
  const SwParams p;
  SwBatch batch = ds.regions[0].sw_tasks;
  if (batch.size() > 3) {
    batch.resize(3);
  }
  const auto r1 = SwRunner(CommMode::kSharedMemory, p).run_batch(kDev, batch, with_outputs());
  const auto r2 = SwRunner(CommMode::kShuffle, p).run_batch(kDev, batch, with_outputs());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, r1.outputs[t], "sw1");
    expect_matches_reference(batch[t], p, r2.outputs[t], "sw2");
    EXPECT_EQ(r1.outputs[t].alignment.cigar, r2.outputs[t].alignment.cigar);
  }
}

}  // namespace

namespace {

TEST(SwKernelBsize, MultiWarpDesignAMatchesReference) {
  // BSIZE 64 and 96 use multi-warp blocks: the cross-warp smem line
  // buffers and the wider bands must still be cell-exact.
  wsim::util::Rng rng(77);
  const SwParams p = simple_params();
  for (const int bsize : {64, 96}) {
    const SwRunner runner(CommMode::kSharedMemory, p, bsize);
    SwBatch batch;
    batch.push_back({random_dna(rng, 70), random_dna(rng, 90)});    // < bsize rows
    batch.push_back({random_dna(rng, 130), random_dna(rng, 100)});  // > bsize rows
    const auto result = runner.run_batch(kDev, batch, with_outputs());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      expect_matches_reference(batch[t], p, result.outputs[t],
                               "bsize " + std::to_string(bsize));
    }
  }
}

TEST(SwKernelBsize, ShuffleDesignRejectsMultiWarp) {
  EXPECT_THROW(wsim::kernels::build_sw_kernel(CommMode::kShuffle, {}, 64),
               wsim::util::CheckError);
  EXPECT_THROW(wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {}, 128),
               wsim::util::CheckError);
  EXPECT_THROW(wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {}, 48),
               wsim::util::CheckError);
}

TEST(SwKernelBsize, LargerTilesCostOccupancy) {
  const SwRunner b32(CommMode::kSharedMemory, {}, 32);
  const SwRunner b96(CommMode::kSharedMemory, {}, 96);
  const auto occ32 = wsim::simt::compute_occupancy(kDev, b32.kernel());
  const auto occ96 = wsim::simt::compute_occupancy(kDev, b96.kernel());
  EXPECT_GT(occ32.fraction, occ96.fraction);
  EXPECT_GT(b96.kernel().smem_bytes(), 4 * b32.kernel().smem_bytes());
}

}  // namespace
