#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "wsim/fleet/fault.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/fleet/router.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

namespace fleet = wsim::fleet;
using fleet::FleetConfig;
using fleet::FleetExecutor;
using fleet::PlacementPolicy;
using fleet::WorkerConfig;

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

FleetConfig heterogeneous_config() {
  FleetConfig cfg;
  cfg.workers.push_back({wsim::simt::make_k40(), {}, {}, {}, 8});
  cfg.workers.push_back({wsim::simt::make_k1200(), {}, {}, {}, 8});
  cfg.workers.push_back({wsim::simt::make_titan_x(), {}, {}, {}, 8});
  return cfg;
}

// ---------------------------------------------------------------------------
// Policy name lookup (CLI surface).

TEST(FleetPolicy, ByNameRoundTrips) {
  EXPECT_EQ(fleet::placement_policy_by_name("rr"), PlacementPolicy::kRoundRobin);
  EXPECT_EQ(fleet::placement_policy_by_name("round-robin"),
            PlacementPolicy::kRoundRobin);
  EXPECT_EQ(fleet::placement_policy_by_name("least-cells"),
            PlacementPolicy::kLeastOutstandingCells);
  EXPECT_EQ(fleet::placement_policy_by_name("model"),
            PlacementPolicy::kModelGuided);
  for (const auto policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstandingCells,
        PlacementPolicy::kModelGuided}) {
    EXPECT_EQ(fleet::placement_policy_by_name(fleet::to_string(policy)), policy);
  }
}

TEST(FleetPolicy, UnknownNameListsValidOnes) {
  try {
    fleet::placement_policy_by_name("speediest");
    FAIL() << "expected CheckError";
  } catch (const wsim::util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("speediest"), std::string::npos);
    EXPECT_NE(what.find("rr"), std::string::npos);
    EXPECT_NE(what.find("least-cells"), std::string::npos);
    EXPECT_NE(what.find("model"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Router: the model predicts shuffle wins on every paper device (Table II),
// and predictions order the devices by capability.

TEST(FleetRouter, PicksShuffleOnPaperDevices) {
  for (const auto& device : wsim::simt::all_devices()) {
    const auto choice = fleet::pick_variants(device);
    EXPECT_EQ(choice.sw_design, wsim::kernels::CommMode::kShuffle) << device.name;
    EXPECT_GT(choice.sw_gcups, 0.0) << device.name;
    EXPECT_GT(choice.ph_gcups, 0.0) << device.name;
  }
  const auto k1200 = fleet::pick_variants(wsim::simt::make_k1200());
  const auto titan = fleet::pick_variants(wsim::simt::make_titan_x());
  EXPECT_GT(titan.sw_gcups, k1200.sw_gcups);
  EXPECT_GT(titan.ph_gcups, k1200.ph_gcups);
}

TEST(FleetRouter, PredictedBatchSecondsScalesWithCells) {
  const auto device = wsim::simt::make_k1200();
  const double small = fleet::predicted_batch_seconds(device, 50.0, 1'000'000);
  const double large = fleet::predicted_batch_seconds(device, 50.0, 10'000'000);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

// ---------------------------------------------------------------------------
// Determinism: identical configuration (including an active FaultPlan)
// replays to identical placements, timings, and counters.

TEST(Fleet, DeterministicReplay) {
  const auto dataset = small_dataset();
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, 8);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 8);

  const auto run = [&](std::vector<fleet::Execution>& execs) {
    FleetConfig cfg = heterogeneous_config();
    cfg.policy = PlacementPolicy::kModelGuided;
    cfg.faults.seed = 7;
    cfg.faults.launch_failure_prob = 0.2;
    cfg.faults.slowdown_prob = 0.2;
    FleetExecutor executor(std::move(cfg));
    fleet::ExecOptions opt;
    opt.collect_outputs = false;
    double t = 0.0;
    for (const auto& batch : sw_batches) {
      execs.push_back(executor.execute_sw(batch, t, opt).exec);
      t += 40e-6;
    }
    for (const auto& batch : ph_batches) {
      execs.push_back(executor.execute_ph(batch, t, opt).exec);
      t += 40e-6;
    }
    return executor.stats();
  };

  std::vector<fleet::Execution> first_execs;
  std::vector<fleet::Execution> second_execs;
  const auto first = run(first_execs);
  const auto second = run(second_execs);

  ASSERT_EQ(first_execs.size(), second_execs.size());
  for (std::size_t i = 0; i < first_execs.size(); ++i) {
    EXPECT_EQ(first_execs[i].device_index, second_execs[i].device_index) << i;
    EXPECT_EQ(first_execs[i].attempts, second_execs[i].attempts) << i;
    EXPECT_DOUBLE_EQ(first_execs[i].start_time, second_execs[i].start_time) << i;
    EXPECT_DOUBLE_EQ(first_execs[i].completion_time,
                     second_execs[i].completion_time)
        << i;
  }
  EXPECT_EQ(first.dispatches, second.dispatches);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.requeues, second.requeues);
  ASSERT_EQ(first.devices.size(), second.devices.size());
  for (std::size_t d = 0; d < first.devices.size(); ++d) {
    EXPECT_EQ(first.devices[d].batches, second.devices[d].batches) << d;
    EXPECT_DOUBLE_EQ(first.devices[d].busy_seconds, second.devices[d].busy_seconds)
        << d;
  }
}

// ---------------------------------------------------------------------------
// Acceptance: fleet results are bit-identical to single-device execution —
// including under an active FaultPlan. Placement, retries, and slowdowns
// move time, not values.

TEST(Fleet, ResultsBitIdenticalToDirectExecutionUnderFaults) {
  const auto dataset = small_dataset();
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, 6);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 6);

  FleetConfig cfg = heterogeneous_config();
  cfg.policy = PlacementPolicy::kModelGuided;
  cfg.faults.seed = 3;
  cfg.faults.launch_failure_prob = 0.25;
  cfg.faults.slowdown_prob = 0.6;
  cfg.retry.max_attempts = 16;
  FleetExecutor executor(std::move(cfg));

  // Reference: one fixed device and design, no fleet, no faults.
  const auto device = wsim::simt::make_k1200();
  const wsim::kernels::SwRunner sw_runner(wsim::kernels::CommMode::kSharedMemory);
  const wsim::kernels::PhRunner ph_runner(wsim::kernels::PhDesign::kShared);

  double t = 0.0;
  for (const auto& batch : sw_batches) {
    const auto executed = executor.execute_sw(batch, t, {});
    wsim::kernels::SwRunOptions opt;
    opt.collect_outputs = true;
    const auto direct = sw_runner.run_batch(device, batch, opt);
    ASSERT_EQ(executed.result.outputs.size(), direct.outputs.size());
    for (std::size_t i = 0; i < direct.outputs.size(); ++i) {
      EXPECT_EQ(executed.result.outputs[i].best_score,
                direct.outputs[i].best_score)
          << i;
      EXPECT_EQ(executed.result.outputs[i].alignment.cigar,
                direct.outputs[i].alignment.cigar)
          << i;
    }
    t += 30e-6;
  }
  for (const auto& batch : ph_batches) {
    const auto executed = executor.execute_ph(batch, t, {});
    wsim::kernels::PhRunOptions opt;
    opt.collect_outputs = true;
    const auto direct = ph_runner.run_batch(device, batch, opt);
    ASSERT_EQ(executed.result.log10.size(), direct.log10.size());
    for (std::size_t i = 0; i < direct.log10.size(); ++i) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(executed.result.log10[i], direct.log10[i]) << i;
    }
    t += 30e-6;
  }

  // The faults were actually active: some attempts failed and retried.
  const auto stats = executor.stats();
  EXPECT_GT(stats.retries, 0U);
  std::size_t failures = 0;
  std::size_t slowdowns = 0;
  for (const auto& d : stats.devices) {
    failures += d.launch_failures;
    slowdowns += d.slowdowns;
  }
  EXPECT_EQ(failures, stats.retries);
  EXPECT_GT(slowdowns, 0U);
}

// ---------------------------------------------------------------------------
// Acceptance: on a heterogeneous fleet with skewed batch costs, the
// model-guided policy beats round-robin in makespan and leaves a smaller
// per-device busy-time skew.

TEST(Fleet, ModelGuidedBeatsRoundRobinOnHeterogeneousFleet) {
  wsim::workload::GeneratorConfig gen;
  gen.seed = 5;
  gen.regions = 6;
  gen.sw_query_len_min = 32;
  gen.sw_query_len_max = 320;
  gen.sw_target_len_min = 64;
  gen.sw_target_len_max = 512;
  gen.ph_tasks_per_region_mean = 30.0;
  const auto dataset = wsim::workload::generate_dataset(gen);
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, 16);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 16);

  const auto run = [&](PlacementPolicy policy, fleet::FleetStats& stats) {
    FleetConfig cfg = heterogeneous_config();
    for (auto& worker : cfg.workers) {
      worker.max_pending_batches = 1U << 20U;  // the policy alone decides
    }
    cfg.policy = policy;
    FleetExecutor executor(std::move(cfg));
    fleet::ExecOptions opt;
    opt.collect_outputs = false;
    for (const auto& batch : sw_batches) {
      (void)executor.execute_sw(batch, 0.0, opt);
    }
    for (const auto& batch : ph_batches) {
      (void)executor.execute_ph(batch, 0.0, opt);
    }
    stats = executor.stats();
    return executor.all_free_at();
  };

  fleet::FleetStats rr_stats;
  fleet::FleetStats model_stats;
  const double rr_makespan = run(PlacementPolicy::kRoundRobin, rr_stats);
  const double model_makespan = run(PlacementPolicy::kModelGuided, model_stats);

  EXPECT_GT(rr_makespan, 0.0);
  EXPECT_LT(model_makespan, rr_makespan);
  EXPECT_LT(model_stats.busy_skew(), rr_stats.busy_skew());
  // Both policies executed the exact same work.
  EXPECT_EQ(model_stats.total_cells(), rr_stats.total_cells());
  EXPECT_EQ(model_stats.dispatches, rr_stats.dispatches);
}

// ---------------------------------------------------------------------------
// Least-outstanding-cells keeps identical devices balanced.

TEST(Fleet, LeastCellsBalancesHomogeneousFleet) {
  const auto dataset = small_dataset(17);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 6);
  ASSERT_GE(ph_batches.size(), 2U);

  FleetConfig cfg;
  cfg.workers.push_back({wsim::simt::make_k1200(), {}, {}, {}, 1U << 20U});
  cfg.workers.push_back({wsim::simt::make_k1200(), {}, {}, {}, 1U << 20U});
  cfg.policy = PlacementPolicy::kLeastOutstandingCells;
  FleetExecutor executor(std::move(cfg));
  fleet::ExecOptions opt;
  opt.collect_outputs = false;

  std::size_t max_batch_cells = 0;
  for (const auto& batch : ph_batches) {
    max_batch_cells = std::max(max_batch_cells, wsim::workload::batch_cells(batch));
    (void)executor.execute_ph(batch, 0.0, opt);
  }
  const auto stats = executor.stats();
  ASSERT_EQ(stats.devices.size(), 2U);
  const std::size_t a = stats.devices[0].cells;
  const std::size_t b = stats.devices[1].cells;
  // Greedy balance bound: the gap never exceeds one batch.
  EXPECT_LE(a > b ? a - b : b - a, max_batch_cells);
  EXPECT_GT(stats.devices[0].batches, 0U);
  EXPECT_GT(stats.devices[1].batches, 0U);
}

// ---------------------------------------------------------------------------
// Retry accounting and failure semantics.

TEST(Fleet, RetryAccountingAndRequeues) {
  const auto dataset = small_dataset(23);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 4);

  FleetConfig cfg = heterogeneous_config();
  cfg.policy = PlacementPolicy::kRoundRobin;
  cfg.faults.seed = 9;
  cfg.faults.launch_failure_prob = 0.4;
  cfg.retry.max_attempts = 32;
  FleetExecutor executor(std::move(cfg));
  fleet::ExecOptions opt;
  opt.collect_outputs = false;

  std::vector<fleet::Execution> execs;
  double t = 0.0;
  for (const auto& batch : ph_batches) {
    execs.push_back(executor.execute_ph(batch, t, opt).exec);
    t += 20e-6;
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.dispatches, ph_batches.size());
  EXPECT_GT(stats.retries, 0U);
  // A retry excludes the failed device, so with 3 devices every retried
  // batch lands elsewhere: requeues track retried batches.
  EXPECT_GT(stats.requeues, 0U);
  EXPECT_LE(stats.requeues, stats.retries);
  // Attempts reported per execution sum to dispatches + retries.
  std::size_t attempts = 0;
  for (const auto& exec : execs) {
    EXPECT_GE(exec.attempts, 1);
    EXPECT_DOUBLE_EQ(exec.completion_time,
                     exec.start_time + exec.service_seconds);
    attempts += static_cast<std::size_t>(exec.attempts);
  }
  EXPECT_EQ(attempts, stats.dispatches + stats.retries);
}

TEST(Fleet, ThrowsAfterMaxAttempts) {
  const auto dataset = small_dataset(29);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, 4);
  ASSERT_FALSE(ph_batches.empty());

  FleetConfig cfg = heterogeneous_config();
  cfg.faults.seed = 1;
  cfg.faults.launch_failure_prob = 1.0;  // every attempt fails
  cfg.retry.max_attempts = 4;
  FleetExecutor executor(std::move(cfg));
  fleet::ExecOptions opt;
  opt.collect_outputs = false;
  EXPECT_THROW((void)executor.execute_ph(ph_batches.front(), 0.0, opt),
               wsim::util::CheckError);
  EXPECT_EQ(executor.stats().dispatches, 0U);
}

TEST(Fleet, RejectsEmptyAndInvalidConfigs) {
  EXPECT_THROW(FleetExecutor(FleetConfig{}), wsim::util::CheckError);
  FleetConfig zero_retry = heterogeneous_config();
  zero_retry.retry.max_attempts = 0;
  EXPECT_THROW(FleetExecutor(std::move(zero_retry)), wsim::util::CheckError);
  FleetConfig zero_queue = heterogeneous_config();
  zero_queue.workers[0].max_pending_batches = 0;
  EXPECT_THROW(FleetExecutor(std::move(zero_queue)), wsim::util::CheckError);
}

// ---------------------------------------------------------------------------
// Plans are shared between workers with equal specs and pins: a join of an
// identical device reuses the plan, while a spec that differs in any field
// (not just in name) or a different pin gets its own.

TEST(Fleet, IdenticalWorkersShareOnePlanAndADifferentSpecGetsItsOwn) {
  FleetConfig cfg;
  cfg.policy = PlacementPolicy::kRoundRobin;
  cfg.workers.push_back({wsim::simt::make_k1200(), {}, {}, {}, 8});
  FleetExecutor executor(std::move(cfg));
  const WorkerConfig same{wsim::simt::make_k1200(), {}, {}, {}, 8};
  WorkerConfig faster = same;
  faster.device.clock_ghz *= 2.0;  // still named "K1200"
  WorkerConfig pinned = same;
  pinned.sw_design = wsim::kernels::CommMode::kSharedMemory;
  const auto a = executor.join(same, 0.0);
  const auto b = executor.join(same, 0.0);
  const auto c = executor.join(faster, 0.0);
  const auto d = executor.join(pinned, 0.0);

  for (const auto id : {a, b}) {
    EXPECT_EQ(&executor.plan(id), &executor.plan(0)) << id;
    EXPECT_EQ(executor.sw_design(id), executor.sw_design(0)) << id;
    EXPECT_EQ(executor.ph_design(id), executor.ph_design(0)) << id;
    EXPECT_EQ(executor.wf_variant(id), executor.wf_variant(0)) << id;
  }
  EXPECT_NE(&executor.plan(c), &executor.plan(0));
  EXPECT_EQ(executor.plan(c).sw_gcups, fleet::plan_device(faster.device).sw_gcups);
  EXPECT_NE(executor.plan(c).sw_gcups, executor.plan(0).sw_gcups);
  EXPECT_NE(&executor.plan(d), &executor.plan(0));
  EXPECT_EQ(executor.sw_design(d), wsim::kernels::CommMode::kSharedMemory);

  // Round robin visits every worker; each returns what direct execution
  // does, whichever plan's runner it used.
  const auto batches = wsim::workload::sw_rebatch(small_dataset(), 1);
  ASSERT_GE(batches.size(), executor.size());
  const wsim::kernels::SwRunner direct_runner(wsim::kernels::CommMode::kShuffle);
  wsim::kernels::SwRunOptions direct_opt;
  direct_opt.collect_outputs = true;
  std::vector<std::size_t> per_worker(executor.size(), 0);
  double t = 0.0;
  for (const auto& batch : batches) {
    const auto executed = executor.execute_sw(batch, t, {});
    ++per_worker[static_cast<std::size_t>(executed.exec.device_index)];
    const auto direct =
        direct_runner.run_batch(wsim::simt::make_k1200(), batch, direct_opt);
    ASSERT_EQ(executed.result.outputs.size(), direct.outputs.size());
    for (std::size_t i = 0; i < direct.outputs.size(); ++i) {
      EXPECT_EQ(executed.result.outputs[i].best_score, direct.outputs[i].best_score);
      EXPECT_EQ(executed.result.outputs[i].alignment.cigar,
                direct.outputs[i].alignment.cigar);
    }
    t += 30e-6;
  }
  for (std::size_t w = 0; w < per_worker.size(); ++w) {
    EXPECT_GT(per_worker[w], 0U) << w;
  }
}

// ---------------------------------------------------------------------------
// Serving over a fleet: the service's responses stay bit-identical to the
// single-device service, and fleet busy time feeds the service stats.

TEST(Fleet, ServiceOverFleetMatchesSingleDeviceService) {
  const auto dataset = small_dataset(31);
  const auto ph_tasks = wsim::workload::ph_all_tasks(dataset);
  ASSERT_FALSE(ph_tasks.empty());

  const auto run_service = [&](wsim::serve::ServiceConfig cfg) {
    wsim::serve::AlignmentService service(std::move(cfg));
    std::vector<wsim::serve::Ticket<wsim::serve::PairHmmResponse>> tickets;
    double t = 0.0;
    for (const auto& task : ph_tasks) {
      service.advance_to(t);
      const auto submit = service.submit(
          wsim::serve::PairHmmRequest{task, wsim::serve::Priority::kNormal,
                                      {}, {}, {}});
      EXPECT_TRUE(submit.admitted());
      tickets.push_back(submit.ticket);
      t += 25e-6;
    }
    service.drain();
    std::vector<double> log10;
    log10.reserve(tickets.size());
    for (auto& ticket : tickets) {
      EXPECT_TRUE(ticket.ready());
      log10.push_back(ticket.get().log10);
    }
    return std::make_pair(log10, service.stats());
  };

  FleetConfig fleet_cfg = heterogeneous_config();
  // Round-robin so the light trickle of batches provably spreads across
  // devices (model-guided would park it all on the always-free Titan X).
  fleet_cfg.policy = PlacementPolicy::kRoundRobin;
  fleet_cfg.faults.seed = 13;
  fleet_cfg.faults.launch_failure_prob = 0.15;
  fleet_cfg.faults.slowdown_prob = 0.15;
  FleetExecutor executor(std::move(fleet_cfg));
  wsim::serve::ServiceConfig over_fleet;
  over_fleet.fleet = &executor;
  const auto [fleet_log10, fleet_stats] = run_service(std::move(over_fleet));

  wsim::serve::ServiceConfig single;
  single.device = wsim::simt::make_k1200();
  const auto [single_log10, single_stats] = run_service(std::move(single));

  ASSERT_EQ(fleet_log10.size(), single_log10.size());
  for (std::size_t i = 0; i < fleet_log10.size(); ++i) {
    EXPECT_EQ(fleet_log10[i], single_log10[i]) << i;  // bit-identical
  }
  EXPECT_EQ(fleet_stats.completed(), single_stats.completed());

  // The service accounted the fleet's busy time, and the fleet saw work on
  // more than one device.
  const auto executor_stats = executor.stats();
  EXPECT_NEAR(fleet_stats.device_busy_seconds,
              executor_stats.total_busy_seconds(), 1e-12);
  std::size_t devices_used = 0;
  for (const auto& d : executor_stats.devices) {
    devices_used += d.batches > 0 ? 1 : 0;
  }
  EXPECT_GE(devices_used, 2U);
}

}  // namespace
