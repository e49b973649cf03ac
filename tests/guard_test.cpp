#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "wsim/fleet/fault.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/sdc.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

namespace guard = wsim::guard;
namespace align = wsim::align;
using wsim::fleet::FaultPlan;
using wsim::simt::SdcPlan;
using wsim::simt::SdcSite;

wsim::workload::Dataset small_dataset(std::uint64_t seed = 11) {
  wsim::workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.regions = 3;
  cfg.ph_tasks_per_region_mean = 6.0;
  cfg.sw_query_len_min = 40;
  cfg.sw_query_len_max = 90;
  cfg.sw_target_len_min = 60;
  cfg.sw_target_len_max = 120;
  return wsim::workload::generate_dataset(cfg);
}

// ---------------------------------------------------------------------------
// SdcPlan: determinism and stream structure.

TEST(SdcPlan, DecisionsAreDeterministic) {
  SdcPlan plan;
  plan.seed = 42;
  plan.flip_prob = 0.25;
  for (std::uint64_t event = 0; event < 200; ++event) {
    int bit_a = -1;
    int bit_b = -1;
    const bool a = plan.block(7).flips(event, SdcSite::kRegWrite, &bit_a);
    const bool b = plan.block(7).flips(event, SdcSite::kRegWrite, &bit_b);
    EXPECT_EQ(a, b) << event;
    if (a) {
      EXPECT_EQ(bit_a, bit_b) << event;
      EXPECT_GE(bit_a, 0) << event;
      EXPECT_LT(bit_a, 32) << event;
    }
  }
}

TEST(SdcPlan, StreamsAndSitesDrawIndependently) {
  SdcPlan plan;
  plan.seed = 42;
  plan.flip_prob = 0.5;
  int bit = 0;
  std::uint64_t stream_diff = 0;
  std::uint64_t site_diff = 0;
  for (std::uint64_t event = 0; event < 256; ++event) {
    const bool s0 = plan.block(0).flips(event, SdcSite::kRegWrite, &bit);
    const bool s1 = plan.block(1).flips(event, SdcSite::kRegWrite, &bit);
    const bool smem = plan.block(0).flips(event, SdcSite::kSmemStore, &bit);
    stream_diff += static_cast<std::uint64_t>(s0 != s1);
    site_diff += static_cast<std::uint64_t>(s0 != smem);
  }
  // At p=0.5 two independent 256-draw sequences agreeing everywhere has
  // probability 2^-256; a handful of disagreements proves distinct streams.
  EXPECT_GT(stream_diff, 32U);
  EXPECT_GT(site_diff, 32U);
}

TEST(SdcPlan, SiteGatesAndEnableSemantics) {
  SdcPlan plan;
  EXPECT_FALSE(plan.enabled());  // flip_prob 0
  plan.flip_prob = 1e-3;
  EXPECT_TRUE(plan.enabled());
  plan.reg_writes = false;
  plan.smem_stores = false;
  plan.shuffle_payloads = false;
  EXPECT_FALSE(plan.enabled());  // no eligible site
  plan.smem_stores = true;
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.site_enabled(SdcSite::kRegWrite));
  EXPECT_TRUE(plan.site_enabled(SdcSite::kSmemStore));
  EXPECT_FALSE(plan.site_enabled(SdcSite::kShuffle));
}

// ---------------------------------------------------------------------------
// SdcPlan::Block: the per-block draw must reproduce, event for event and
// bit for bit, the original per-event formula below (four splitmix rounds
// and a floating-point compare per event), which is kept verbatim here as
// the reference.

std::uint64_t reference_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool reference_flips(const SdcPlan& plan, std::uint64_t stream, std::uint64_t event,
                     SdcSite site, int* bit) {
  if (plan.flip_prob <= 0.0 || !plan.site_enabled(site)) {
    return false;
  }
  std::uint64_t h = reference_mix(SdcPlan::kDomain ^ plan.seed);
  h = reference_mix(h ^ stream);
  h = reference_mix(h ^ (event * 4 + static_cast<std::uint64_t>(site)));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= plan.flip_prob) {
    return false;
  }
  *bit = static_cast<int>(reference_mix(h) & 31);
  return true;
}

constexpr SdcSite kAllSites[] = {SdcSite::kRegWrite, SdcSite::kSmemStore,
                                 SdcSite::kShuffle};

// Counts events in [0, events) on which block(stream) and the reference
// disagree (fire/no-fire or flipped bit) over all three sites; adds the
// reference's hits to *hits.
std::uint64_t block_mismatches(const SdcPlan& plan, std::uint64_t stream,
                               std::uint64_t events, std::uint64_t* hits) {
  const SdcPlan::Block block = plan.block(stream);
  std::uint64_t mismatches = 0;
  for (std::uint64_t event = 0; event < events; ++event) {
    for (const SdcSite site : kAllSites) {
      int ref_bit = -1;
      int bit = -1;
      const bool ref = reference_flips(plan, stream, event, site, &ref_bit);
      const bool got = block.flips(event, site, &bit);
      *hits += static_cast<std::uint64_t>(ref);
      mismatches += static_cast<std::uint64_t>(ref != got || (ref && bit != ref_bit));
    }
  }
  return mismatches;
}

constexpr double kFlipProbs[] = {0.0, 4.9e-324, 1e-7, 3e-7, 0.25, 0.5, 1.0, 1.5};

TEST(SdcBlock, MatchesPerEventReferenceAcrossSeedsStreamsAndRates) {
  const std::uint64_t streams[] = {
      0, 7, wsim::simt::sdc_stream(wsim::simt::sdc_device_hash("Titan X"), 3, 5)};
  for (const std::uint64_t seed : {0ULL, 42ULL, 0xfeedfacecafebeefULL}) {
    for (const std::uint64_t stream : streams) {
      for (const double p : kFlipProbs) {
        SdcPlan plan;
        plan.seed = seed;
        plan.flip_prob = p;
        std::uint64_t hits = 0;
        EXPECT_EQ(block_mismatches(plan, stream, 100000, &hits), 0U)
            << "seed " << seed << " stream " << stream << " p " << p;
        if (p >= 1.0) {
          EXPECT_EQ(hits, 300000U) << "p >= 1 fires on every event";
        } else if (p == 0.0) {
          EXPECT_EQ(hits, 0U);
        }
      }
    }
  }
}

TEST(SdcBlock, DisabledSitesNeverFireAndOthersMatch) {
  for (unsigned mask = 0; mask < 8; ++mask) {
    SdcPlan plan;
    plan.seed = 99;
    plan.flip_prob = 0.25;
    plan.reg_writes = (mask & 1U) != 0;
    plan.smem_stores = (mask & 2U) != 0;
    plan.shuffle_payloads = (mask & 4U) != 0;
    EXPECT_EQ(plan.block(3).active(), mask != 0) << mask;
    std::uint64_t hits = 0;
    EXPECT_EQ(block_mismatches(plan, 3, 20000, &hits), 0U) << mask;
    const SdcPlan::Block block = plan.block(3);
    for (const SdcSite site : kAllSites) {
      if (plan.site_enabled(site)) {
        continue;
      }
      int bit = -1;
      for (std::uint64_t event = 0; event < 20000; ++event) {
        ASSERT_FALSE(block.flips(event, site, &bit)) << mask << " event " << event;
      }
    }
  }
}

TEST(SdcBlock, ThresholdIsExactAtTheBoundary) {
  // x * 2^-53 < p must agree with x < threshold right at the threshold,
  // where a random draw would almost never land.
  std::vector<double> probs(std::begin(kFlipProbs), std::end(kFlipProbs));
  probs.push_back(std::nextafter(1.0, 0.0));
  probs.push_back(0x1.0p-53);
  probs.push_back(std::nextafter(0x1.0p-53, 1.0));
  std::uint64_t s = 1;
  for (int i = 0; i < 1000; ++i) {
    s = reference_mix(s);
    probs.push_back(static_cast<double>(s >> 11) * 0x1.0p-53 * 1.0000001);
  }
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  for (const double p : probs) {
    SdcPlan plan;
    plan.flip_prob = p;
    const std::uint64_t threshold = plan.block(0).threshold;
    ASSERT_LE(threshold, kTop) << p;
    for (const std::uint64_t x : {threshold - 1, threshold, threshold + 1}) {
      if (x >= kTop) {
        continue;  // draws are 53-bit; x wrapped below 0 or past the top
      }
      EXPECT_EQ(static_cast<double>(x) * 0x1.0p-53 < p, x < threshold)
          << "p " << p << " x " << x;
    }
  }
}

TEST(SdcBlock, GoldenFirstFlips) {
  // First flipping (event, bit) pairs of one fixed block, captured from the
  // original per-event formula: pins the draw itself, not just agreement
  // with a reference that could drift along with it.
  SdcPlan plan;
  plan.seed = 42;
  plan.flip_prob = 1e-3;
  const std::uint64_t stream =
      wsim::simt::sdc_stream(wsim::simt::sdc_device_hash("K1200"), 3, 5);
  ASSERT_EQ(stream, 0xedb8772f5f48237fULL);
  const std::vector<std::pair<std::uint64_t, int>> golden = {
      {209, 15},   {1784, 23},  {2412, 31},  {2584, 27},  {3992, 31},  {6785, 14},
      {6917, 21},  {7167, 12},  {7571, 16},  {7902, 6},   {8250, 21},  {10098, 25},
      {10396, 0},  {12897, 25}, {15046, 2},  {15083, 26}};
  const SdcPlan::Block block = plan.block(stream);
  std::vector<std::pair<std::uint64_t, int>> got;
  for (std::uint64_t event = 0; got.size() < golden.size(); ++event) {
    int bit = -1;
    if (block.flips(event, SdcSite::kRegWrite, &bit)) {
      got.emplace_back(event, bit);
    }
  }
  EXPECT_EQ(got, golden);

  // Rotating the site per event pins the site term of the hash too.
  const std::vector<std::pair<std::uint64_t, int>> golden_sites = {
      {392, 17}, {659, 9}, {829, 26}, {1787, 0}, {2412, 31}, {3116, 3}, {4348, 18}, {4645, 21}};
  got.clear();
  for (std::uint64_t event = 0; got.size() < golden_sites.size(); ++event) {
    int bit = -1;
    if (block.flips(event, kAllSites[event % 3], &bit)) {
      got.emplace_back(event, bit);
    }
  }
  EXPECT_EQ(got, golden_sites);
}

// ---------------------------------------------------------------------------
// Satellite: FaultPlan and SdcPlan hash under distinct domain tags, so one
// seed drives uncorrelated fault and corruption streams.

TEST(DomainSeparation, ConstantsDiffer) {
  static_assert(FaultPlan::kDomain != SdcPlan::kDomain,
                "fault and SDC draws must hash under distinct domains");
  EXPECT_NE(FaultPlan::kDomain, SdcPlan::kDomain);
}

TEST(DomainSeparation, SameSeedYieldsUncorrelatedDecisionStreams) {
  const std::uint64_t seed = 1234;
  FaultPlan faults;
  faults.seed = seed;
  faults.launch_failure_prob = 0.5;
  SdcPlan sdc;
  sdc.seed = seed;
  sdc.flip_prob = 0.5;

  std::uint64_t agree = 0;
  const std::uint64_t n = 512;
  int bit = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool fault = faults.launch_fails(0, i);
    const bool flip = sdc.block(0).flips(i, SdcSite::kRegWrite, &bit);
    agree += static_cast<std::uint64_t>(fault == flip);
  }
  // Independent fair coins agree ~n/2 times; identical or complementary
  // streams would agree n or 0 times. Allow a wide deterministic margin.
  EXPECT_GT(agree, n / 4);
  EXPECT_LT(agree, 3 * n / 4);
}

// ---------------------------------------------------------------------------
// Injection reaches the outputs: a high flip rate perturbs a real kernel
// run (flips counted, fingerprint moved), and re-running with the same
// launch id replays the identical corruption.

TEST(Injection, PerturbsOutputsDeterministically) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  const auto& batch = batches.front();

  const wsim::kernels::SwRunner runner(wsim::kernels::CommMode::kShuffle);
  const auto device = wsim::simt::make_k1200();

  wsim::kernels::SwRunOptions clean_opt;
  clean_opt.collect_outputs = true;
  const auto clean = runner.run_batch(device, batch, clean_opt);
  EXPECT_EQ(clean.run.launch.sdc_flips, 0U);

  wsim::kernels::SwRunOptions dirty_opt = clean_opt;
  dirty_opt.sdc.seed = 9;
  dirty_opt.sdc.flip_prob = 1e-4;
  dirty_opt.sdc_launch_id = 3;
  const auto run_dirty = [&]() {
    // At this rate a flip may crash the launch (an address-feeding
    // register); both outcomes prove injection is live.
    try {
      return runner.run_batch(device, batch, dirty_opt);
    } catch (const wsim::util::CheckError&) {
      return wsim::kernels::SwBatchResult{};
    }
  };
  const auto dirty_a = run_dirty();
  const auto dirty_b = run_dirty();

  if (!dirty_a.outputs.empty()) {
    EXPECT_GT(dirty_a.run.launch.sdc_flips, 0U);
    EXPECT_NE(guard::fingerprint_sw(dirty_a.outputs),
              guard::fingerprint_sw(clean.outputs));
  }
  // Same plan, same launch id: the corruption replays exactly.
  ASSERT_EQ(dirty_a.outputs.size(), dirty_b.outputs.size());
  EXPECT_EQ(dirty_a.run.launch.sdc_flips, dirty_b.run.launch.sdc_flips);
  if (!dirty_a.outputs.empty()) {
    EXPECT_EQ(guard::fingerprint_sw(dirty_a.outputs),
              guard::fingerprint_sw(dirty_b.outputs));
  }

  // A different launch id draws a different corruption stream.
  wsim::kernels::SwRunOptions other_opt = dirty_opt;
  other_opt.sdc_launch_id = 4;
  try {
    const auto other = runner.run_batch(device, batch, other_opt);
    if (!dirty_a.outputs.empty()) {
      EXPECT_NE(guard::fingerprint_sw(other.outputs),
                guard::fingerprint_sw(dirty_a.outputs));
    }
  } catch (const wsim::util::CheckError&) {
    // Crashing instead of corrupting also demonstrates a distinct stream.
  }
}

// ---------------------------------------------------------------------------
// ABFT validators: accept clean outputs, reject seeded corruptions.

TEST(Validators, SwAcceptsCleanRejectsCorrupt) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  const auto& batch = batches.front();
  const align::SwParams params{};
  auto outputs = guard::cpu_sw(batch, params);
  EXPECT_EQ(guard::validate_sw(batch, outputs, params), std::nullopt);

  auto bad_score = outputs;
  bad_score.front().best_score += 1;  // CIGAR re-scoring no longer matches
  EXPECT_NE(guard::validate_sw(batch, bad_score, params), std::nullopt);

  auto huge = outputs;
  huge.front().best_score = std::numeric_limits<std::int32_t>::max();
  EXPECT_NE(guard::validate_sw(batch, huge, params), std::nullopt);

  auto negative = outputs;
  negative.front().best_score = -5;  // SW scores are clamped at zero
  EXPECT_NE(guard::validate_sw(batch, negative, params), std::nullopt);
}

TEST(Validators, PhAcceptsCleanRejectsCorrupt) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::ph_rebatch(dataset, 8);
  const auto& batch = batches.front();
  auto log10 = guard::cpu_ph(batch);
  EXPECT_EQ(guard::validate_ph(batch, log10), std::nullopt);

  auto nan = log10;
  nan.front() = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(guard::validate_ph(batch, nan), std::nullopt);

  auto positive = log10;
  positive.front() = 1.0;  // a likelihood above certainty
  EXPECT_NE(guard::validate_ph(batch, positive), std::nullopt);
}

TEST(Validators, NwAcceptsCleanRejectsOutOfBounds) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  const auto& batch = batches.front();
  const align::SwParams params{};
  auto scores = guard::cpu_nw(batch, params);
  EXPECT_EQ(guard::validate_nw(batch, scores, params), std::nullopt);

  auto huge = scores;
  huge.front() = std::numeric_limits<std::int32_t>::max();
  EXPECT_NE(guard::validate_nw(batch, huge, params), std::nullopt);
}

TEST(Fingerprints, SensitiveToSingleBit) {
  const auto dataset = small_dataset();
  const auto sw_batch = wsim::workload::sw_rebatch(dataset, 8).front();
  const align::SwParams params{};
  auto outputs = guard::cpu_sw(sw_batch, params);
  const auto base = guard::fingerprint_sw(outputs);
  outputs.back().best_score ^= 1;
  EXPECT_NE(guard::fingerprint_sw(outputs), base);

  std::vector<double> log10 = {-3.5, -7.25};
  const auto ph_base = guard::fingerprint_ph(log10);
  log10.back() = std::nextafter(log10.back(), 0.0);
  EXPECT_NE(guard::fingerprint_ph(log10), ph_base);
}

TEST(DetectMode, NamesRoundTrip) {
  for (const auto mode :
       {guard::DetectMode::kNone, guard::DetectMode::kAbft, guard::DetectMode::kDual}) {
    EXPECT_EQ(guard::detect_mode_by_name(guard::to_string(mode)), mode);
  }
  EXPECT_THROW(guard::detect_mode_by_name("triple"), wsim::util::CheckError);
}

// ---------------------------------------------------------------------------
// Acceptance: the fleet under injection with dual detection delivers every
// batch bit-identical to a fault-free baseline — zero escaped corruptions.
// PairHMM batches answered by the CPU reference are accurate but not
// bit-identical (different summation order) and are excluded, exactly as
// guard-sim's comparison does.

struct BaselineRun {
  std::vector<std::vector<wsim::kernels::SwTaskOutput>> sw;
  std::vector<std::vector<double>> ph;
};

wsim::fleet::FleetConfig guarded_config(guard::DetectMode detect, double flip_prob) {
  wsim::fleet::FleetConfig cfg;
  wsim::fleet::WorkerConfig a;
  a.device = wsim::simt::make_k1200();
  wsim::fleet::WorkerConfig b;
  b.device = wsim::simt::make_titan_x();
  cfg.workers = {a, b};
  cfg.guard.detect = detect;
  cfg.guard.sdc.seed = 7;
  cfg.guard.sdc.flip_prob = flip_prob;
  return cfg;
}

BaselineRun run_fleet(const wsim::fleet::FleetConfig& cfg,
                      const std::vector<wsim::workload::SwBatch>& sw_batches,
                      const std::vector<wsim::workload::PhBatch>& ph_batches,
                      guard::GuardStats* stats_out,
                      std::vector<bool>* ph_cpu_fallback) {
  wsim::fleet::FleetExecutor executor(cfg);
  BaselineRun run;
  double t = 0.0;
  for (const auto& batch : sw_batches) {
    run.sw.push_back(executor.execute_sw(batch, t, {}).result.outputs);
    t += 30e-6;
  }
  for (const auto& batch : ph_batches) {
    const auto executed = executor.execute_ph(batch, t, {});
    run.ph.push_back(executed.result.log10);
    if (ph_cpu_fallback != nullptr) {
      ph_cpu_fallback->push_back(executed.exec.cpu_fallback);
    }
    t += 30e-6;
  }
  if (stats_out != nullptr) {
    *stats_out = executor.stats().guard;
  }
  return run;
}

TEST(GuardRecovery, DualDetectionDeliversBitIdenticalResults) {
  const auto dataset = small_dataset();
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, 8);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 8);

  const auto baseline = run_fleet(guarded_config(guard::DetectMode::kNone, 0.0),
                                  sw_batches, ph_batches, nullptr, nullptr);

  guard::GuardStats stats;
  std::vector<bool> ph_cpu;
  const auto guarded = run_fleet(guarded_config(guard::DetectMode::kDual, 3e-6),
                                 sw_batches, ph_batches, &stats, &ph_cpu);

  EXPECT_GT(stats.sdc_flips, 0U) << "injection never fired; rate too low";
  EXPECT_GT(stats.verified_batches, 0U);

  ASSERT_EQ(guarded.sw.size(), baseline.sw.size());
  for (std::size_t b = 0; b < baseline.sw.size(); ++b) {
    // SW holds even through a CPU fallback: the host reference is pinned
    // bit-identical to the device kernels.
    EXPECT_EQ(guard::fingerprint_sw(guarded.sw[b]),
              guard::fingerprint_sw(baseline.sw[b]))
        << "escaped corruption in SW batch " << b;
  }
  ASSERT_EQ(guarded.ph.size(), baseline.ph.size());
  for (std::size_t b = 0; b < baseline.ph.size(); ++b) {
    if (ph_cpu[b]) {
      // CPU-answered: accurate, not bit-identical; spot-check closeness.
      ASSERT_EQ(guarded.ph[b].size(), baseline.ph[b].size());
      for (std::size_t i = 0; i < baseline.ph[b].size(); ++i) {
        EXPECT_NEAR(guarded.ph[b][i], baseline.ph[b][i],
                    1e-3 * std::abs(baseline.ph[b][i]) + 1e-3);
      }
      continue;
    }
    EXPECT_EQ(guard::fingerprint_ph(guarded.ph[b]),
              guard::fingerprint_ph(baseline.ph[b]))
        << "escaped corruption in PH batch " << b;
  }
}

TEST(GuardRecovery, AbftFlagsAndRecoversCorruptions) {
  const auto dataset = small_dataset();
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, 8);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 8);

  guard::GuardStats stats;
  std::vector<bool> ph_cpu;
  // High enough that validators see corruptions; ABFT may still miss
  // in-range flips, so this test pins the accounting, not zero escapes
  // (that guarantee is dual detection's, above).
  (void)run_fleet(guarded_config(guard::DetectMode::kAbft, 3e-6), sw_batches,
                  ph_batches, &stats, &ph_cpu);

  EXPECT_GT(stats.sdc_flips, 0U);
  EXPECT_EQ(stats.verified_batches, sw_batches.size() + ph_batches.size());
  // Every flagged batch is accounted for: recovered on device, answered by
  // the CPU reference, or (with fallback on by default) nothing dropped.
  EXPECT_GE(stats.sdc_detected, stats.sdc_corrected);
  EXPECT_GE(stats.reexecutions, stats.sdc_corrected);
}

TEST(GuardRecovery, ReplayIsDeterministic) {
  const auto dataset = small_dataset();
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, 8);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 8);

  guard::GuardStats first;
  guard::GuardStats second;
  std::vector<bool> cpu_a;
  std::vector<bool> cpu_b;
  const auto a = run_fleet(guarded_config(guard::DetectMode::kDual, 3e-6),
                           sw_batches, ph_batches, &first, &cpu_a);
  const auto b = run_fleet(guarded_config(guard::DetectMode::kDual, 3e-6),
                           sw_batches, ph_batches, &second, &cpu_b);

  EXPECT_EQ(first.sdc_flips, second.sdc_flips);
  EXPECT_EQ(first.sdc_detected, second.sdc_detected);
  EXPECT_EQ(first.sdc_corrected, second.sdc_corrected);
  EXPECT_EQ(first.cpu_fallbacks, second.cpu_fallbacks);
  EXPECT_EQ(cpu_a, cpu_b);
  ASSERT_EQ(a.sw.size(), b.sw.size());
  for (std::size_t i = 0; i < a.sw.size(); ++i) {
    EXPECT_EQ(guard::fingerprint_sw(a.sw[i]), guard::fingerprint_sw(b.sw[i])) << i;
  }
  ASSERT_EQ(a.ph.size(), b.ph.size());
  for (std::size_t i = 0; i < a.ph.size(); ++i) {
    EXPECT_EQ(guard::fingerprint_ph(a.ph[i]), guard::fingerprint_ph(b.ph[i])) << i;
  }
}

}  // namespace
