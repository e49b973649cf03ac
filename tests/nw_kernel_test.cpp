#include <gtest/gtest.h>

#include <string>

#include "wsim/align/needleman_wunsch.hpp"
#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/util/rng.hpp"

namespace {

using wsim::align::SwParams;
using wsim::kernels::CommMode;
using wsim::kernels::NwRunner;
using wsim::kernels::NwRunOptions;
using wsim::workload::SwBatch;

const wsim::simt::DeviceSpec kDev = wsim::simt::make_k1200();

SwParams simple_params() {
  SwParams p;
  p.match = 10;
  p.mismatch = -8;
  p.gap_open = -12;
  p.gap_extend = -2;
  return p;
}

NwRunOptions with_outputs() {
  NwRunOptions opt;
  opt.collect_outputs = true;
  return opt;
}

std::string random_dna(wsim::util::Rng& rng, int len) {
  std::string s(static_cast<std::size_t>(len), 'A');
  for (char& c : s) {
    c = "ACGT"[rng.uniform_int(0, 3)];
  }
  return s;
}

class NwKernelModes : public ::testing::TestWithParam<CommMode> {};

TEST_P(NwKernelModes, KnownAlignments) {
  const SwParams p = simple_params();
  const NwRunner runner(GetParam(), p);
  const SwBatch batch = {
      {"ACGTACGT", "ACGTACGT"},
      {"CGTA", "AACGTATT"},
      {"AAAAATTTTT", "AAAAAGGGGTTTTT"},
      {"A", "T"},
  };
  const auto result = runner.run_batch(kDev, batch, with_outputs());
  ASSERT_EQ(result.scores.size(), batch.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(result.scores[t],
              wsim::align::nw_score(batch[t].query, batch[t].target, p))
        << "task " << t;
  }
}

TEST_P(NwKernelModes, MultiBandAndOddLengths) {
  wsim::util::Rng rng(23);
  const SwParams p = simple_params();
  const NwRunner runner(GetParam(), p);
  SwBatch batch;
  const std::pair<int, int> shapes[] = {{33, 31}, {65, 70}, {1, 1},
                                        {100, 40}, {40, 100}, {96, 96}};
  for (const auto& [m, n] : shapes) {
    batch.push_back({random_dna(rng, m), random_dna(rng, n)});
  }
  const auto result = runner.run_batch(kDev, batch, with_outputs());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(result.scores[t],
              wsim::align::nw_score(batch[t].query, batch[t].target, p))
        << "task " << t << " " << batch[t].query.size() << "x"
        << batch[t].target.size();
  }
}

TEST_P(NwKernelModes, RandomizedMutatedPairs) {
  wsim::util::Rng rng(29);
  const SwParams p = simple_params();
  const NwRunner runner(GetParam(), p);
  SwBatch batch;
  for (int t = 0; t < 10; ++t) {
    const std::string target = random_dna(rng, static_cast<int>(rng.uniform_int(10, 120)));
    std::string query = target;
    for (char& ch : query) {
      if (rng.uniform01() < 0.08) {
        ch = "ACGT"[rng.uniform_int(0, 3)];
      }
    }
    if (query.size() > 6 && rng.uniform01() < 0.5) {
      query.erase(query.size() / 2, 3);  // deletion
    }
    batch.push_back({std::move(query), target});
  }
  const auto result = runner.run_batch(kDev, batch, with_outputs());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(result.scores[t],
              wsim::align::nw_score(batch[t].query, batch[t].target, p))
        << "task " << t;
  }
}

TEST_P(NwKernelModes, GatkParameters) {
  wsim::util::Rng rng(31);
  const SwParams p;  // defaults
  const NwRunner runner(GetParam(), p);
  const std::string target = random_dna(rng, 80);
  std::string query = target.substr(4, 70);
  const SwBatch batch = {{query, target}};
  const auto result = runner.run_batch(kDev, batch, with_outputs());
  EXPECT_EQ(result.scores[0], wsim::align::nw_score(query, target, p));
}

INSTANTIATE_TEST_SUITE_P(Designs, NwKernelModes,
                         ::testing::Values(CommMode::kSharedMemory,
                                           CommMode::kShuffle),
                         [](const ::testing::TestParamInfo<CommMode>& info) {
                           return info.param == CommMode::kSharedMemory ? "NW1"
                                                                        : "NW2";
                         });

TEST(NwKernelDesign, SameTradeOffAsSw) {
  const NwRunner nw1(CommMode::kSharedMemory);
  const NwRunner nw2(CommMode::kShuffle);
  EXPECT_GT(nw1.kernel().smem_bytes(), 0);
  EXPECT_EQ(nw2.kernel().smem_bytes(), 0);
  wsim::util::Rng rng(37);
  const SwBatch batch = {{random_dna(rng, 64), random_dna(rng, 64)}};
  const auto r1 = nw1.run_batch(kDev, batch);
  const auto r2 = nw2.run_batch(kDev, batch);
  EXPECT_LT(r2.run.launch.representative.cycles,
            r1.run.launch.representative.cycles);
}

TEST(NwKernelDesign, RunnerValidation) {
  const NwRunner runner(CommMode::kShuffle);
  EXPECT_THROW(runner.run_batch(kDev, {}, {}), wsim::util::CheckError);
  NwRunOptions opt;
  opt.collect_outputs = true;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  EXPECT_THROW(runner.run_batch(kDev, {{"AC", "GT"}}, opt), wsim::util::CheckError);
}

}  // namespace
