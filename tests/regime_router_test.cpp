#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "wsim/fleet/fleet.hpp"
#include "wsim/fleet/router.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

using namespace wsim;

std::vector<simt::DeviceSpec> all_devices() {
  return {simt::make_k40(), simt::make_k1200(), simt::make_titan_x()};
}

workload::SwTask sw_task_of_len(std::size_t query_len, std::size_t target_len) {
  workload::SwTask task;
  task.query.assign(query_len, 'A');
  task.target.assign(target_len, 'C');
  return task;
}

// ---------------------------------------------------------------------------
// length_bucket: ceil semantics at the bucket boundaries
// ---------------------------------------------------------------------------

TEST(LengthBucket, CeilAtBandBoundaries) {
  // The bucket must equal the number of 32-row bands the kernel runs, so
  // g*k lands in bucket k and g*k + 1 in bucket k + 1.
  const std::size_t g = 32;
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(1, 64), g), 1u);
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(32, 64), g), 1u);
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(33, 64), g), 2u);
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(96, 64), g), 3u);
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(97, 64), g), 4u);
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(128, 64), g), 4u);
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(129, 64), g), 5u);
  EXPECT_EQ(workload::length_bucket(sw_task_of_len(8192, 64), g), 256u);
}

TEST(LengthBucket, PairHmmReadsUseSameCeil) {
  align::PairHmmTask task;
  task.hap.assign(128, 'A');
  task.read.assign(96, 'C');
  EXPECT_EQ(workload::length_bucket(task, 32), 3u);
  task.read.assign(97, 'C');
  EXPECT_EQ(workload::length_bucket(task, 32), 4u);
}

TEST(LengthBucket, GroupingSeparatesBoundaryStraddlers) {
  // 96 bp (3 bands) and 97 bp (4 bands) must not share a batch: one extra
  // band is a real cost step for every block launched with the group.
  workload::SwBatch tasks = {sw_task_of_len(96, 128), sw_task_of_len(97, 128),
                             sw_task_of_len(96, 128), sw_task_of_len(129, 128)};
  const auto batches = workload::sw_length_grouped(tasks, 32, 64);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 2u);  // both 96 bp tasks, original order
  EXPECT_EQ(batches[0][0].query.size(), 96u);
  EXPECT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1][0].query.size(), 97u);
  EXPECT_EQ(batches[2][0].query.size(), 129u);
}

// ---------------------------------------------------------------------------
// Length profiles
// ---------------------------------------------------------------------------

TEST(LengthProfiles, NamesRoundTrip) {
  for (const std::string& name : workload::length_profile_names()) {
    EXPECT_EQ(to_string(workload::length_profile_by_name(name)), name);
  }
}

TEST(LengthProfiles, UnknownNameListsValidProfiles) {
  try {
    workload::length_profile_by_name("nanopore");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("nanopore"), std::string::npos) << what;
    EXPECT_NE(what.find("short-read"), std::string::npos) << what;
    EXPECT_NE(what.find("long-read"), std::string::npos) << what;
    EXPECT_NE(what.find("contig"), std::string::npos) << what;
  }
}

TEST(LengthProfiles, GeneratedLengthsStayInsideProfileRanges) {
  auto cfg = workload::profile_config(workload::LengthProfile::kLongRead, 7);
  cfg.regions = 6;
  const auto tasks = workload::sw_all_tasks(workload::generate_dataset(cfg));
  ASSERT_FALSE(tasks.empty());
  for (const auto& task : tasks) {
    EXPECT_GE(task.query.size(), 256u);
    EXPECT_LE(task.query.size(), 2048u);
    EXPECT_GE(task.target.size(), 320u);
    EXPECT_LE(task.target.size(), 2304u);
  }

  auto contig = workload::profile_config(workload::LengthProfile::kContig, 7);
  contig.regions = 2;
  const auto big = workload::sw_all_tasks(workload::generate_dataset(contig));
  ASSERT_FALSE(big.empty());
  for (const auto& task : big) {
    EXPECT_GE(task.query.size(), 2048u);
    EXPECT_LE(task.query.size(), 8192u);
  }
}

// ---------------------------------------------------------------------------
// Router: policies, latencies, and the 2-D regime decision
// ---------------------------------------------------------------------------

TEST(RegimeRouter, PolicyNamesRoundTrip) {
  for (const std::string& name : fleet::parallelism_policy_names()) {
    EXPECT_EQ(to_string(fleet::parallelism_policy_by_name(name)), name);
  }
}

TEST(RegimeRouter, UnknownPolicyListsValidNames) {
  try {
    fleet::parallelism_policy_by_name("hybrid");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("hybrid"), std::string::npos) << what;
    EXPECT_NE(what.find("auto"), std::string::npos) << what;
    EXPECT_NE(what.find("inter"), std::string::npos) << what;
    EXPECT_NE(what.find("intra"), std::string::npos) << what;
  }
}

TEST(RegimeRouter, NaiveLatencyDwarfsPipelinedVariants) {
  for (const auto& device : all_devices()) {
    const double shuffle =
        fleet::wf_iteration_latency(device, kernels::WfVariant::kShuffle);
    const double shared =
        fleet::wf_iteration_latency(device, kernels::WfVariant::kSharedMemory);
    const double naive =
        fleet::wf_iteration_latency(device, kernels::WfVariant::kHostSyncNaive);
    EXPECT_GT(shuffle, 0.0);
    EXPECT_GT(shared, 0.0);
    // Global-memory round trips lose to on-chip communication even with
    // every segment warm — by ~8-20x against shuffles, ~2-4x against the
    // (barrier-heavy) shared-memory tile depending on the architecture.
    EXPECT_GT(naive, 5.0 * shuffle);
    EXPECT_GT(naive, 2.0 * shared);
  }
}

TEST(RegimeRouter, ModelPicksAPipelinedWavefrontVariant) {
  for (const auto& device : all_devices()) {
    const auto model = fleet::build_intra_task_model(device);
    EXPECT_NE(model.wf_variant, kernels::WfVariant::kHostSyncNaive);
    EXPECT_GT(model.sw_latency, 0.0);
    EXPECT_GT(model.wf_latency, 0.0);
    EXPECT_GT(model.sw_occupancy.parallelism(device), 0);
    EXPECT_GT(model.wf_occupancy.parallelism(device), 0);
    EXPECT_GT(fleet::predicted_wf_gcups(device, model.wf_variant), 0.0);
  }
}

TEST(RegimeRouter, LongReadSmallBatchGoesIntraTask) {
  // A handful of 2 kbp alignments leaves a task-per-block launch with a few
  // warps of parallelism; the wavefront decomposition fills the device.
  for (const auto& device : all_devices()) {
    const auto model = fleet::build_intra_task_model(device);
    EXPECT_EQ(fleet::pick_parallelism(device, model, 2048, 2048, 1),
              fleet::ParallelMode::kIntraTask)
        << device.name;
    EXPECT_EQ(fleet::pick_parallelism(device, model, 2048, 2048, 4),
              fleet::ParallelMode::kIntraTask)
        << device.name;
    EXPECT_EQ(fleet::pick_parallelism(device, model, 8192, 4096, 1),
              fleet::ParallelMode::kIntraTask)
        << device.name;
  }
}

TEST(RegimeRouter, ShortReadLargeBatchStaysInterTask) {
  // The paper's HaplotypeCaller regime: hundreds of <320 bp tasks saturate
  // the occupancy bound on their own, and the wavefront subsystem would pay
  // a launch per wave for nothing.
  for (const auto& device : all_devices()) {
    const auto model = fleet::build_intra_task_model(device);
    EXPECT_EQ(fleet::pick_parallelism(device, model, 200, 280, 256),
              fleet::ParallelMode::kInterTask)
        << device.name;
    EXPECT_EQ(fleet::pick_parallelism(device, model, 128, 160, 1024),
              fleet::ParallelMode::kInterTask)
        << device.name;
  }
}

TEST(RegimeRouter, LargeBatchOfLongReadsStaysInterTask) {
  // Once the batch alone saturates occupancy, task-per-block's cheaper
  // per-step communication and single launch win even at long lengths.
  for (const auto& device : all_devices()) {
    const auto model = fleet::build_intra_task_model(device);
    EXPECT_EQ(fleet::pick_parallelism(device, model, 2048, 2048, 1024),
              fleet::ParallelMode::kInterTask)
        << device.name;
  }
}

TEST(RegimeRouter, PredictedSecondsReflectBatchClamping) {
  // Per-task inter-task latency should collapse as the batch grows (the
  // clamp releases); intra-task should be far less batch-sensitive.
  const auto device = simt::make_titan_x();
  const auto model = fleet::build_intra_task_model(device);
  const double inter_1 =
      fleet::predicted_inter_batch_seconds(device, model, 2048, 2048, 1);
  const double inter_64 =
      fleet::predicted_inter_batch_seconds(device, model, 2048, 2048, 64) / 64.0;
  EXPECT_GT(inter_1, 10.0 * inter_64);

  const double intra_1 =
      fleet::predicted_intra_batch_seconds(device, model, 2048, 2048, 1);
  EXPECT_LT(intra_1, inter_1);
}

// ---------------------------------------------------------------------------
// Fleet integration: the executor actually routes by the model
// ---------------------------------------------------------------------------

workload::SwBatch long_read_batch(std::size_t tasks) {
  auto cfg = workload::profile_config(workload::LengthProfile::kLongRead, 11);
  cfg.regions = static_cast<int>(tasks);
  cfg.sw_tasks_per_region_mean = 1.0;
  // Clamp lengths so the test stays fast while staying firmly long-read.
  cfg.sw_query_len_min = 700;
  cfg.sw_query_len_max = 900;
  cfg.sw_target_len_min = 700;
  cfg.sw_target_len_max = 900;
  auto batch = workload::sw_all_tasks(workload::generate_dataset(cfg));
  batch.resize(std::min(batch.size(), tasks));
  return batch;
}

fleet::FleetConfig one_device_fleet(fleet::ParallelismPolicy parallelism) {
  fleet::FleetConfig cfg;
  cfg.workers.push_back({simt::make_k1200(), {}, {}, {}, 8});
  cfg.parallelism = parallelism;
  return cfg;
}

TEST(RegimeFleet, AutoRoutesLongReadBatchIntraTask) {
  const auto batch = long_read_batch(3);
  fleet::FleetExecutor executor(
      one_device_fleet(fleet::ParallelismPolicy::kAuto));
  const auto exec = executor.execute_sw(batch, 0.0);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.devices[0].intra_batches, 1u);
  EXPECT_NE(executor.wf_variant(0), kernels::WfVariant::kHostSyncNaive);
  ASSERT_EQ(exec.result.outputs.size(), batch.size());

  // Bit-identical to the inter-task pinned fleet: routing moves time only.
  fleet::FleetExecutor pinned(
      one_device_fleet(fleet::ParallelismPolicy::kInterTask));
  const auto inter = pinned.execute_sw(batch, 0.0);
  EXPECT_EQ(pinned.stats().devices[0].intra_batches, 0u);
  ASSERT_EQ(inter.result.outputs.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(exec.result.outputs[i].best_score,
              inter.result.outputs[i].best_score);
    EXPECT_EQ(exec.result.outputs[i].alignment.cigar,
              inter.result.outputs[i].alignment.cigar);
  }
}

TEST(RegimeFleet, AutoKeepsShortReadBatchInterTask) {
  auto cfg = workload::profile_config(workload::LengthProfile::kShortRead, 5);
  cfg.regions = 16;
  auto batch = workload::sw_all_tasks(workload::generate_dataset(cfg));
  ASSERT_GE(batch.size(), 32u);
  fleet::FleetExecutor executor(
      one_device_fleet(fleet::ParallelismPolicy::kAuto));
  executor.execute_sw(batch, 0.0);
  EXPECT_EQ(executor.stats().devices[0].intra_batches, 0u);
}

TEST(RegimeFleet, IntraPolicyForcesWavefrontEvenOnShortReads) {
  auto cfg = workload::profile_config(workload::LengthProfile::kShortRead, 5);
  cfg.regions = 2;
  auto batch = workload::sw_all_tasks(workload::generate_dataset(cfg));
  ASSERT_FALSE(batch.empty());
  fleet::FleetExecutor executor(
      one_device_fleet(fleet::ParallelismPolicy::kIntraTask));
  const auto exec = executor.execute_sw(batch, 0.0);
  EXPECT_EQ(executor.stats().devices[0].intra_batches, 1u);
  ASSERT_EQ(exec.result.outputs.size(), batch.size());
}

TEST(RegimeFleet, PinnedWfVariantIsHonoured) {
  fleet::FleetConfig cfg = one_device_fleet(fleet::ParallelismPolicy::kIntraTask);
  cfg.workers[0].wf_variant = kernels::WfVariant::kSharedMemory;
  fleet::FleetExecutor executor(std::move(cfg));
  EXPECT_EQ(executor.wf_variant(0), kernels::WfVariant::kSharedMemory);
  const auto batch = long_read_batch(1);
  const auto exec = executor.execute_sw(batch, 0.0);
  ASSERT_EQ(exec.result.outputs.size(), batch.size());
  EXPECT_EQ(executor.stats().devices[0].intra_batches, 1u);
}

// ---------------------------------------------------------------------------
// plan_device: one compile per distinct kernel, same answers
// ---------------------------------------------------------------------------

void expect_same_occupancy(const simt::Occupancy& a, const simt::Occupancy& b,
                           const std::string& what) {
  EXPECT_EQ(a.blocks_per_sm, b.blocks_per_sm) << what;
  EXPECT_EQ(a.active_warps_per_sm, b.active_warps_per_sm) << what;
  EXPECT_EQ(a.active_threads_per_sm, b.active_threads_per_sm) << what;
  EXPECT_EQ(a.fraction, b.fraction) << what;
  EXPECT_EQ(a.limiter, b.limiter) << what;
}

TEST(DevicePlan, MatchesTheOnePredictionPerCompileModel) {
  // The oracle is the model asked one question at a time, each answer
  // compiling its own kernels, with pins applied on top of the unpinned
  // regime model. plan_device must agree bit for bit on every device and
  // pin combination.
  using kernels::CommMode;
  using kernels::PhDesign;
  using kernels::WfVariant;
  const std::vector<std::optional<CommMode>> sw_pins = {
      std::nullopt, CommMode::kSharedMemory, CommMode::kShuffle};
  const std::vector<std::optional<PhDesign>> ph_pins = {
      std::nullopt, PhDesign::kShared, PhDesign::kShuffle, PhDesign::kHybrid};
  const std::vector<std::optional<WfVariant>> wf_pins = {
      std::nullopt, WfVariant::kShuffle, WfVariant::kSharedMemory,
      WfVariant::kHostSyncNaive};
  for (const simt::DeviceSpec& device : all_devices()) {
    const fleet::VariantChoice choice = fleet::pick_variants(device);
    const fleet::IntraTaskModel unpinned = fleet::build_intra_task_model(device);
    for (std::size_t i = 0; i < std::max({sw_pins.size(), ph_pins.size(), wf_pins.size()});
         ++i) {
      const auto sw_pin = sw_pins[i % sw_pins.size()];
      const auto ph_pin = ph_pins[i % ph_pins.size()];
      const auto wf_pin = wf_pins[i % wf_pins.size()];
      const std::string what = device.name + " pins #" + std::to_string(i);
      const fleet::DevicePlan plan = fleet::plan_device(device, sw_pin, ph_pin, wf_pin);

      const CommMode sw = sw_pin.value_or(choice.sw_design);
      const PhDesign ph = ph_pin.value_or(choice.ph_design);
      const WfVariant wf = wf_pin.value_or(unpinned.wf_variant);
      EXPECT_EQ(plan.sw_design, sw) << what;
      EXPECT_EQ(plan.ph_design, ph) << what;
      EXPECT_EQ(plan.wf_variant, wf) << what;
      EXPECT_EQ(plan.sw_gcups, fleet::predicted_sw_gcups(device, sw)) << what;
      EXPECT_EQ(plan.ph_gcups, fleet::predicted_ph_gcups(device, ph)) << what;

      const simt::Kernel sw_kernel = kernels::build_sw_kernel(sw, {});
      const simt::Kernel wf_kernel = kernels::build_wf_sw_kernel(wf, {});
      EXPECT_EQ(plan.intra.sw_design, sw) << what;
      EXPECT_EQ(plan.intra.sw_latency, fleet::sw_iteration_latency(device, sw)) << what;
      expect_same_occupancy(plan.intra.sw_occupancy,
                            simt::compute_occupancy(device, sw_kernel), what);
      EXPECT_EQ(plan.intra.sw_threads_per_block, sw_kernel.threads_per_block()) << what;
      EXPECT_EQ(plan.intra.wf_variant, wf) << what;
      EXPECT_EQ(plan.intra.wf_latency, fleet::wf_iteration_latency(device, wf)) << what;
      expect_same_occupancy(plan.intra.wf_occupancy,
                            simt::compute_occupancy(device, wf_kernel), what);
      EXPECT_EQ(plan.intra.wf_threads_per_block, wf_kernel.threads_per_block()) << what;
      EXPECT_EQ(plan.intra.tile_rows, unpinned.tile_rows) << what;

      // The runners hold exactly the kernels a fresh runner would build.
      EXPECT_EQ(plan.sw_runner.comm_mode(), sw) << what;
      EXPECT_EQ(simt::kernel_identity(plan.sw_runner.kernel(), device),
                simt::kernel_identity(sw_kernel, device))
          << what;
      EXPECT_EQ(plan.wf_runner.variant(), wf) << what;
      EXPECT_EQ(simt::kernel_identity(plan.wf_runner.kernel(), device),
                simt::kernel_identity(wf_kernel, device))
          << what;
      EXPECT_EQ(plan.ph_runner.design(), ph) << what;
      const kernels::PhRunner fresh_ph(ph);
      for (int v = 0; v < kernels::kPhVariants; ++v) {
        const auto read_len = static_cast<std::size_t>(32 * v + 1);
        EXPECT_EQ(simt::kernel_identity(plan.ph_runner.kernel_for_read_len(read_len), device),
                  simt::kernel_identity(fresh_ph.kernel_for_read_len(read_len), device))
            << what << " variant " << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-name lookup shared by sw-run / fleet-sim
// ---------------------------------------------------------------------------

TEST(SwKernelNames, RoundTripAndErrorListing) {
  for (const std::string& name : kernels::sw_kernel_names()) {
    EXPECT_EQ(kernels::sw_kernel_name(kernels::sw_kernel_by_name(name)), name);
  }
  try {
    kernels::sw_kernel_by_name("diag-sync");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("diag-sync"), std::string::npos) << what;
    for (const std::string& name : kernels::sw_kernel_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what << " missing " << name;
    }
  }
}

}  // namespace
