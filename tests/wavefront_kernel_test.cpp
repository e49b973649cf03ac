#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "wsim/align/needleman_wunsch.hpp"
#include "wsim/align/smith_waterman.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"

namespace {

using wsim::align::SwFill;
using wsim::align::SwParams;
using wsim::kernels::WavefrontNwRunner;
using wsim::kernels::WavefrontSwRunner;
using wsim::kernels::WfRunOptions;
using wsim::kernels::WfSwBatchResult;
using wsim::kernels::WfVariant;
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

WfRunOptions with_outputs() {
  WfRunOptions opt;
  opt.collect_outputs = true;
  return opt;
}

std::string random_dna(wsim::util::Rng& rng, int len, bool with_n = false) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T', 'N'};
  std::string s(static_cast<std::size_t>(len), 'A');
  for (char& c : s) {
    c = kBases[rng.uniform_int(0, with_n ? 4 : 3)];
  }
  return s;
}

/// Mutated-substring task: a realistic long-read alignment shape.
SwTask long_read_task(wsim::util::Rng& rng, int m, int n) {
  std::string target = random_dna(rng, n);
  std::string query;
  if (m <= n) {
    const auto start = static_cast<std::size_t>(rng.uniform_int(0, n - m));
    query = target.substr(start, static_cast<std::size_t>(m));
  } else {
    query = random_dna(rng, m);
  }
  for (char& ch : query) {
    if (rng.uniform01() < 0.05) {
      ch = "ACGT"[rng.uniform_int(0, 3)];
    }
  }
  return {std::move(query), std::move(target)};
}

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
}

class WfTileVariants : public ::testing::TestWithParam<WfVariant> {};

TEST_P(WfTileVariants, SmallShapesMatchHostOracle) {
  const SwParams p = simple_params();
  // tile_rows 48 forces multi-tile grids even on small tasks.
  const WavefrontSwRunner runner(GetParam(), p, /*tile_rows=*/48);
  wsim::util::Rng rng(17);
  const SwBatch batch = {
      {"ACGTACGT", "ACGTACGT"},
      {"CGTA", "AACGTATT"},
      {random_dna(rng, 48), random_dna(rng, 80)},
      {random_dna(rng, 33), random_dna(rng, 31)},
      {random_dna(rng, 1), random_dna(rng, 1)},
      {random_dna(rng, 100, true), random_dna(rng, 95, true)},  // with 'N'
  };
  const WfSwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  ASSERT_EQ(result.outputs.size(), batch.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, result.outputs[t],
                             "task " + std::to_string(t));
  }
}

TEST_P(WfTileVariants, NonMultipleTileGrid) {
  // 300 x 200 with 48-row tiles: 7 x 7 tiles, short last row tile, short
  // last column tile, interior tiles with all four boundaries live.
  const SwParams p = simple_params();
  const WavefrontSwRunner runner(GetParam(), p, /*tile_rows=*/48);
  wsim::util::Rng rng(19);
  const SwBatch batch = {long_read_task(rng, 300, 200)};
  const WfSwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch[0], p, result.outputs[0], "300x200");
}

TEST_P(WfTileVariants, LongReadMatchesHostOracle) {
  const SwParams p;  // GATK defaults
  const WavefrontSwRunner runner(GetParam(), p);
  wsim::util::Rng rng(23);
  const SwBatch batch = {long_read_task(rng, 512, 1024)};
  const WfSwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  expect_matches_reference(batch[0], p, result.outputs[0], "512x1024");
}

TEST_P(WfTileVariants, ContigScaleAsymmetricTasks) {
  // 8k on one side exercises the full long-read length range cheaply.
  const SwParams p = simple_params();
  const WavefrontSwRunner runner(GetParam(), p);
  wsim::util::Rng rng(29);
  const SwBatch batch = {
      long_read_task(rng, 8192, 256),
      long_read_task(rng, 256, 8192),
  };
  const WfSwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, result.outputs[t],
                             "task " + std::to_string(t));
  }
}

TEST_P(WfTileVariants, MixedLengthBatchAllDevices) {
  const SwParams p = simple_params();
  const WavefrontSwRunner runner(GetParam(), p, /*tile_rows=*/64);
  wsim::util::Rng rng(31);
  const SwBatch batch = {
      long_read_task(rng, 256, 300),
      long_read_task(rng, 512, 400),
      long_read_task(rng, 90, 700),
  };
  for (const auto& dev : {wsim::simt::make_k40(), wsim::simt::make_k1200(),
                          wsim::simt::make_titan_x()}) {
    const WfSwBatchResult result = runner.run_batch(dev, batch, with_outputs());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      expect_matches_reference(batch[t], p, result.outputs[t],
                               dev.name + " task " + std::to_string(t));
    }
  }
}

TEST_P(WfTileVariants, NwScoresMatchHostOracle) {
  const SwParams p = simple_params();
  const WavefrontNwRunner runner(GetParam(), p, /*tile_rows=*/48);
  wsim::util::Rng rng(37);
  const SwBatch batch = {
      {"ACGTACGT", "ACGTACGT"},
      {random_dna(rng, 33), random_dna(rng, 31)},
      {random_dna(rng, 1), random_dna(rng, 60)},
      long_read_task(rng, 300, 200),
      long_read_task(rng, 512, 512),
  };
  const auto result = runner.run_batch(kDev, batch, with_outputs());
  ASSERT_EQ(result.scores.size(), batch.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(result.scores[t],
              wsim::align::nw_score(batch[t].query, batch[t].target, p))
        << "task " << t;
  }
}

TEST_P(WfTileVariants, TileWritesAreDisjoint) {
  // Run the full grid under the engine's write-overlap checker: proves the
  // row/column/corner boundary buffers of concurrently-executing tiles
  // never overlap (the race-freedom argument, checked not trusted).
  wsim::simt::EngineOptions eopt;
  eopt.threads = 2;
  eopt.check_write_overlap = true;
  wsim::simt::ExecutionEngine engine(eopt);
  const SwParams p = simple_params();
  const WavefrontSwRunner runner(GetParam(), p, /*tile_rows=*/48);
  wsim::util::Rng rng(41);
  const SwBatch batch = {long_read_task(rng, 300, 200), long_read_task(rng, 150, 260)};
  WfRunOptions opt = with_outputs();
  opt.engine = &engine;
  const WfSwBatchResult result = runner.run_batch(kDev, batch, opt);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, result.outputs[t],
                             "overlap-checked task " + std::to_string(t));
  }
}

TEST_P(WfTileVariants, CachedModeExecutesOneBlockPerShape) {
  const WavefrontSwRunner runner(GetParam(), simple_params());
  wsim::util::Rng rng(43);
  SwBatch batch;
  for (int t = 0; t < 8; ++t) {
    batch.push_back(long_read_task(rng, 512, 512));
  }
  WfRunOptions cached;
  cached.mode = wsim::simt::ExecMode::kCachedByShape;
  const WfSwBatchResult result = runner.run_batch(kDev, batch, cached);
  EXPECT_GT(result.blocks, result.run.launch.blocks_executed)
      << "cached mode should reuse representative costs across equal tiles";
  // 512 rows -> 2 tile rows, 512 cols -> 16 tile columns: 17 waves.
  EXPECT_EQ(result.launches, 17U);
}

TEST_P(WfTileVariants, CachedTimingTracksFullTiming) {
  // Cached mode reuses one representative cost per tile shape and rebases
  // scratch into shared slabs; the 128 B warm-segment model makes per-tile
  // cycles phase-dependent, so cached timing is an approximation — pinned
  // here to a few percent (the shape_key contract).
  const WavefrontSwRunner runner(GetParam(), simple_params());
  wsim::util::Rng rng(47);
  const SwBatch batch = {long_read_task(rng, 400, 500),
                         long_read_task(rng, 400, 500)};
  WfRunOptions full;
  WfRunOptions cached;
  cached.mode = wsim::simt::ExecMode::kCachedByShape;
  const auto a = runner.run_batch(kDev, batch, full);
  const auto b = runner.run_batch(kDev, batch, cached);
  const auto fa = static_cast<double>(a.run.launch.timing.cycles);
  const auto fb = static_cast<double>(b.run.launch.timing.cycles);
  EXPECT_LT(std::abs(fa - fb) / fa, 0.05)
      << "full " << fa << " vs cached " << fb;
}

INSTANTIATE_TEST_SUITE_P(Variants, WfTileVariants,
                         ::testing::Values(WfVariant::kShuffle,
                                           WfVariant::kSharedMemory),
                         [](const ::testing::TestParamInfo<WfVariant>& info) {
                           return info.param == WfVariant::kShuffle ? "Shuffle"
                                                                    : "Shared";
                         });

// --- naive anti-pattern variant ---------------------------------------------

TEST(WfNaive, MatchesHostOracle) {
  const SwParams p = simple_params();
  const WavefrontSwRunner runner(WfVariant::kHostSyncNaive, p);
  wsim::util::Rng rng(53);
  const SwBatch batch = {
      {"CGTA", "AACGTATT"},
      long_read_task(rng, 100, 130),
      long_read_task(rng, 256, 192),
  };
  const WfSwBatchResult result = runner.run_batch(kDev, batch, with_outputs());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    expect_matches_reference(batch[t], p, result.outputs[t],
                             "naive task " + std::to_string(t));
  }
  // One launch per cell anti-diagonal: the host-sync loop in person.
  EXPECT_EQ(result.launches, 256U + 192U - 1U);
}

TEST(WfNaive, NwScoreMatchesAndLaunchCountExplodes) {
  const SwParams p = simple_params();
  const WavefrontNwRunner runner(WfVariant::kHostSyncNaive, p);
  wsim::util::Rng rng(59);
  const SwBatch batch = {long_read_task(rng, 120, 150)};
  const auto result = runner.run_batch(kDev, batch, with_outputs());
  EXPECT_EQ(result.scores[0],
            wsim::align::nw_score(batch[0].query, batch[0].target, p));
  EXPECT_EQ(result.launches, 120U + 150U - 1U);
  const WavefrontNwRunner tiled(WfVariant::kShuffle, p);
  const auto tiled_result = tiled.run_batch(kDev, batch, WfRunOptions{});
  EXPECT_GT(result.run.launch.overhead_seconds,
            10.0 * tiled_result.run.launch.overhead_seconds)
      << "per-diagonal host sync should drown in launch overhead";
}

TEST(WfNaive, RejectsOversizedTasks) {
  const WavefrontSwRunner runner(WfVariant::kHostSyncNaive);
  SwBatch batch = {{std::string(8192, 'A'), std::string(8192, 'C')}};
  EXPECT_THROW(runner.run_batch(kDev, batch, WfRunOptions{}),
               wsim::util::CheckError);
}

// --- design-level expectations ----------------------------------------------

TEST(WfDesign, ShuffleVariantUsesNoSharedMemory) {
  const WavefrontSwRunner shuffle(WfVariant::kShuffle);
  const WavefrontSwRunner shared(WfVariant::kSharedMemory);
  EXPECT_EQ(shuffle.kernel().smem_bytes(), 0);
  EXPECT_GT(shared.kernel().smem_bytes(), 0);
  for (const auto& ins : shuffle.kernel().code()) {
    EXPECT_NE(ins.op, wsim::simt::Op::kBar);
    EXPECT_NE(ins.op, wsim::simt::Op::kLds);
    EXPECT_NE(ins.op, wsim::simt::Op::kSts);
  }
  bool has_shfl = false;
  for (const auto& ins : shared.kernel().code()) {
    has_shfl = has_shfl || ins.op == wsim::simt::Op::kShflUp;
  }
  EXPECT_FALSE(has_shfl);
}

TEST(WfDesign, GeometryAndIterations) {
  using wsim::kernels::wf_geometry;
  using wsim::kernels::wf_iterations;
  const auto g = wf_geometry(300, 200, 48);
  EXPECT_EQ(g.tile_row_count, 7U);
  EXPECT_EQ(g.tile_col_count, 7U);
  EXPECT_EQ(g.tiles, 49U);
  EXPECT_EQ(g.waves, 13U);
  // 6 full 48-row tiles (48+31 steps) + one 12-row tail (12+31), x 7 cols.
  EXPECT_EQ(wf_iterations(300, 200, 48), (6U * 79U + 43U) * 7U);
  const auto g1 = wf_geometry(8, 8, 256);
  EXPECT_EQ(g1.tiles, 1U);
  EXPECT_EQ(g1.waves, 1U);
}

TEST(WfDesign, KernelNameLookup) {
  using wsim::kernels::sw_kernel_by_name;
  using wsim::kernels::sw_kernel_name;
  for (const std::string& name : wsim::kernels::sw_kernel_names()) {
    EXPECT_EQ(sw_kernel_name(sw_kernel_by_name(name)), name);
  }
  EXPECT_FALSE(sw_kernel_by_name("shuffle").intra);
  EXPECT_TRUE(sw_kernel_by_name("wf-naive").intra);
  try {
    sw_kernel_by_name("warp-zig-zag");
    FAIL() << "expected CheckError";
  } catch (const wsim::util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("warp-zig-zag"), std::string::npos);
    EXPECT_NE(msg.find("wf-shuffle"), std::string::npos)
        << "error should list the valid kernel names: " << msg;
  }
}

// --- interpreter equivalence and SDC parity ---------------------------------

TEST(WfInterp, FastAndLegacyBitIdenticalAcrossDevices) {
  const SwParams p = simple_params();
  wsim::util::Rng rng(61);
  const SwBatch batch = {long_read_task(rng, 256, 320),
                         long_read_task(rng, 90, 260)};
  for (const WfVariant variant : {WfVariant::kShuffle, WfVariant::kSharedMemory}) {
    const WavefrontSwRunner runner(variant, p, /*tile_rows=*/64);
    for (const auto& dev : {wsim::simt::make_k40(), wsim::simt::make_k1200(),
                            wsim::simt::make_titan_x()}) {
      WfRunOptions fast = with_outputs();
      fast.interp = wsim::simt::InterpPath::kFast;
      WfRunOptions legacy = with_outputs();
      legacy.interp = wsim::simt::InterpPath::kLegacy;
      const auto a = runner.run_batch(dev, batch, fast);
      const auto b = runner.run_batch(dev, batch, legacy);
      EXPECT_EQ(wsim::guard::fingerprint_sw(a.outputs),
                wsim::guard::fingerprint_sw(b.outputs))
          << dev.name;
      EXPECT_EQ(a.run.launch.timing.cycles, b.run.launch.timing.cycles) << dev.name;
      EXPECT_EQ(a.run.launch.instructions, b.run.launch.instructions) << dev.name;
    }
  }
}

TEST(WfInterp, SdcInjectionParity) {
  // The same SdcPlan must flip the same bits on both interpreters: the
  // wavefront launch loop derives per-wave sub-launch ids, so stream
  // selection must line up instruction by instruction.
  const SwParams p = simple_params();
  wsim::util::Rng rng(67);
  const SwBatch batch = {long_read_task(rng, 200, 200)};
  wsim::simt::SdcPlan sdc;
  sdc.flip_prob = 2e-4;
  sdc.seed = 99;
  for (const WfVariant variant : {WfVariant::kShuffle, WfVariant::kSharedMemory}) {
    const WavefrontSwRunner runner(variant, p, /*tile_rows=*/64);
    for (const auto& dev : {wsim::simt::make_k40(), wsim::simt::make_k1200(),
                            wsim::simt::make_titan_x()}) {
      const auto run_path = [&](wsim::simt::InterpPath path)
          -> std::optional<WfSwBatchResult> {
        WfRunOptions opt = with_outputs();
        opt.sdc = sdc;
        opt.sdc_launch_id = 7;
        opt.interp = path;
        try {
          return runner.run_batch(dev, batch, opt);
        } catch (const wsim::util::CheckError&) {
          // A flip can land in an address-feeding register; both paths
          // must then crash identically.
          return std::nullopt;
        }
      };
      const auto a = run_path(wsim::simt::InterpPath::kFast);
      const auto b = run_path(wsim::simt::InterpPath::kLegacy);
      ASSERT_EQ(a.has_value(), b.has_value()) << dev.name;
      if (!a.has_value()) {
        continue;
      }
      EXPECT_EQ(a->run.launch.sdc_flips, b->run.launch.sdc_flips) << dev.name;
      EXPECT_GT(a->run.launch.sdc_flips, 0U) << dev.name;
      EXPECT_EQ(wsim::guard::fingerprint_sw(a->outputs),
                wsim::guard::fingerprint_sw(b->outputs))
          << dev.name;
    }
  }
}

// --- guard ABFT on wavefront outputs ----------------------------------------

TEST(WfGuard, AbftRescoreAcceptsCleanWavefrontCigar) {
  const SwParams p = simple_params();
  const WavefrontSwRunner runner(WfVariant::kShuffle, p);
  wsim::util::Rng rng(71);
  const SwBatch batch = {long_read_task(rng, 300, 400),
                         long_read_task(rng, 256, 256)};
  const auto result = runner.run_batch(kDev, batch, with_outputs());
  EXPECT_EQ(wsim::guard::validate_sw(batch, result.outputs, p), std::nullopt);
}

TEST(WfGuard, AbftRescoreCatchesTamperedOutput) {
  const SwParams p = simple_params();
  const WavefrontSwRunner runner(WfVariant::kShuffle, p);
  wsim::util::Rng rng(73);
  const SwBatch batch = {long_read_task(rng, 300, 400)};
  auto result = runner.run_batch(kDev, batch, with_outputs());
  result.outputs[0].best_score += 2;  // an SDC-style corruption
  result.outputs[0].alignment.score += 2;
  EXPECT_NE(wsim::guard::validate_sw(batch, result.outputs, p), std::nullopt);
}

}  // namespace
