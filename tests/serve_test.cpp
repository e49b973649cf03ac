#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "wsim/fleet/fleet.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/serve/batch_former.hpp"
#include "wsim/serve/queue.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/serve/stats.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/util/stats.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

using wsim::serve::AlignmentService;
using wsim::serve::PairHmmRequest;
using wsim::serve::Priority;
using wsim::serve::RejectReason;
using wsim::serve::ServiceConfig;
using wsim::serve::SwRequest;
using wsim::serve::SwResponse;

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

ServiceConfig base_config() {
  ServiceConfig cfg;
  cfg.device = wsim::simt::make_k1200();
  return cfg;
}

// ---------------------------------------------------------------------------
// Acceptance (a): responses are bit-identical to running the same tasks
// directly through the runners — batching moves time, not values.
TEST(Serve, ResultsMatchDirectExecutionExactly) {
  const auto dataset = small_dataset();
  const auto sw_tasks = wsim::workload::sw_all_tasks(dataset);
  const auto ph_tasks = wsim::workload::ph_all_tasks(dataset);

  ServiceConfig cfg = base_config();
  cfg.collect_outputs = true;
  AlignmentService service(cfg);

  std::vector<wsim::serve::Ticket<wsim::serve::SwResponse>> sw_tickets;
  std::vector<wsim::serve::Ticket<wsim::serve::PairHmmResponse>> ph_tickets;
  double t = 0.0;
  for (const auto& task : sw_tasks) {
    service.advance_to(t);
    const auto submit = service.submit(SwRequest{task, Priority::kNormal, {}, {}, {}});
    ASSERT_TRUE(submit.admitted());
    sw_tickets.push_back(submit.ticket);
    t += 25e-6;
  }
  for (const auto& task : ph_tasks) {
    service.advance_to(t);
    const auto submit =
        service.submit(PairHmmRequest{task, Priority::kNormal, {}, {}, {}});
    ASSERT_TRUE(submit.admitted());
    ph_tickets.push_back(submit.ticket);
    t += 25e-6;
  }
  service.drain();

  // Direct execution: everything in one batch per kind, same designs.
  const wsim::kernels::SwRunner sw_runner(cfg.sw_design);
  wsim::kernels::SwRunOptions sw_opt;
  sw_opt.collect_outputs = true;
  const auto sw_direct = sw_runner.run_batch(cfg.device, sw_tasks, sw_opt);
  for (std::size_t i = 0; i < sw_tasks.size(); ++i) {
    ASSERT_TRUE(sw_tickets[i].ready()) << i;
    const SwResponse& response = sw_tickets[i].get();
    EXPECT_EQ(response.alignment.score, sw_direct.outputs[i].alignment.score) << i;
    EXPECT_EQ(response.alignment.cigar, sw_direct.outputs[i].alignment.cigar) << i;
    EXPECT_GE(response.batch_tasks, 1U);
  }

  const wsim::kernels::PhRunner ph_runner(cfg.ph_design);
  wsim::kernels::PhRunOptions ph_opt;
  ph_opt.collect_outputs = true;
  ph_opt.double_fallback = cfg.double_fallback;
  const auto ph_direct = ph_runner.run_batch(cfg.device, ph_tasks, ph_opt);
  for (std::size_t i = 0; i < ph_tasks.size(); ++i) {
    ASSERT_TRUE(ph_tickets[i].ready()) << i;
    // Bit-identical, not approximately equal.
    EXPECT_DOUBLE_EQ(ph_tickets[i].get().log10, ph_direct.log10[i]) << i;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed(), sw_tasks.size() + ph_tasks.size());
  EXPECT_EQ(stats.queue_depth, 0U);
  EXPECT_EQ(stats.rejected(), 0U);
}

// ---------------------------------------------------------------------------
// Acceptance (b): a full queue answers with a backpressure reason
// immediately — submit never blocks and never silently drops.
TEST(Serve, FullQueueRejectsWithBackpressure) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ASSERT_GE(sw_tasks.size(), 4U);

  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.max_queue_tasks = 3;
  cfg.policy.max_batch_delay = 1.0;           // no delay flush in this test
  cfg.policy.target_batch_cells = 1u << 30;   // no cell-target flush either
  AlignmentService service(cfg);

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        service.submit(SwRequest{sw_tasks[i], Priority::kNormal, {}, {}, {}})
            .admitted());
  }
  const auto overflow =
      service.submit(SwRequest{sw_tasks[3], Priority::kNormal, {}, {}, {}});
  EXPECT_FALSE(overflow.admitted());
  EXPECT_EQ(overflow.rejected, RejectReason::kQueueTasksFull);
  EXPECT_FALSE(overflow.ticket.valid());
  EXPECT_EQ(service.stats().rejected_tasks_full, 1U);

  // Draining empties the queue and re-opens admission.
  service.drain();
  EXPECT_TRUE(service.submit(SwRequest{sw_tasks[3], Priority::kNormal, {}, {}, {}})
                  .admitted());
  service.drain();
  EXPECT_EQ(service.stats().completed(), 4U);
}

TEST(Serve, CellBoundRejectsWithCellsFull) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.max_queue_cells = sw_tasks[0].cells();  // room for exactly one task
  cfg.policy.max_batch_delay = 1.0;
  cfg.policy.target_batch_cells = 1u << 30;
  AlignmentService service(cfg);

  EXPECT_TRUE(service.submit(SwRequest{sw_tasks[0], Priority::kNormal, {}, {}, {}})
                  .admitted());
  const auto overflow =
      service.submit(SwRequest{sw_tasks[1], Priority::kNormal, {}, {}, {}});
  EXPECT_EQ(overflow.rejected, RejectReason::kQueueCellsFull);
  EXPECT_EQ(service.stats().rejected_cells_full, 1U);
  service.drain();
}

TEST(Serve, StoppedServiceRejectsButDrainsAdmittedWork) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  AlignmentService service(cfg);

  const auto admitted =
      service.submit(SwRequest{sw_tasks[0], Priority::kNormal, {}, {}, {}});
  ASSERT_TRUE(admitted.admitted());
  service.stop();
  const auto refused =
      service.submit(SwRequest{sw_tasks[1], Priority::kNormal, {}, {}, {}});
  EXPECT_EQ(refused.rejected, RejectReason::kStopped);
  EXPECT_EQ(service.stats().rejected_stopped, 1U);

  service.drain();
  EXPECT_TRUE(admitted.ticket.ready());
  EXPECT_EQ(service.stats().completed(), 1U);
}

// ---------------------------------------------------------------------------
// Acceptance (c): the Fig. 10 trade-off operated online — a larger
// batching delay shifts the batch-size histogram up while latency rises.
TEST(Serve, LargerBatchingDelayGrowsBatchesAndLatency) {
  const auto dataset = small_dataset(13);
  const auto sw_tasks = wsim::workload::sw_all_tasks(dataset);
  const auto ph_tasks = wsim::workload::ph_all_tasks(dataset);

  // Deterministic Poisson arrivals, identical for both services.
  wsim::util::Rng rng(99);
  const double rate = 20000.0;
  std::vector<double> arrivals;
  double t = 0.0;
  for (std::size_t i = 0; i < sw_tasks.size() + ph_tasks.size(); ++i) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    arrivals.push_back(t);
  }

  const auto replay = [&](double max_batch_delay) {
    ServiceConfig cfg = base_config();
    cfg.collect_outputs = false;
    cfg.policy.max_batch_delay = max_batch_delay;
    AlignmentService service(cfg);
    std::size_t next = 0;
    for (const auto& task : sw_tasks) {
      service.advance_to(arrivals[next++]);
      EXPECT_TRUE(service.submit(SwRequest{task, Priority::kNormal, {}, {}, {}})
                      .admitted());
    }
    for (const auto& task : ph_tasks) {
      service.advance_to(arrivals[next++]);
      EXPECT_TRUE(
          service.submit(PairHmmRequest{task, Priority::kNormal, {}, {}, {}})
              .admitted());
    }
    service.drain();
    return service.stats();
  };

  const auto eager = replay(20e-6);
  const auto patient = replay(3000e-6);
  ASSERT_EQ(eager.completed(), sw_tasks.size() + ph_tasks.size());
  ASSERT_EQ(patient.completed(), eager.completed());

  // Histogram shifts up: fewer batches, larger mean size.
  EXPECT_LT(patient.batch_sizes.batches, eager.batch_sizes.batches);
  EXPECT_GT(patient.batch_sizes.mean_size(), eager.batch_sizes.mean_size());
  // ... while request latency rises (the queue-wait component grows).
  EXPECT_GT(patient.latency.mean, eager.latency.mean);
  EXPECT_GT(patient.queue_wait.mean, eager.queue_wait.mean);
}

// ---------------------------------------------------------------------------
// Flush triggers and ordering.
TEST(Serve, CellTargetFlushesWithoutAdvancingClock) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.policy.target_batch_cells = sw_tasks[0].cells();  // any task saturates
  cfg.policy.max_batch_delay = 1.0;
  AlignmentService service(cfg);

  EXPECT_TRUE(service.submit(SwRequest{sw_tasks[0], Priority::kNormal, {}, {}, {}})
                  .admitted());
  const auto stats = service.stats();
  // The batch formed at submit time; it is executing, not queued.
  EXPECT_EQ(stats.queue_depth, 0U);
  EXPECT_EQ(stats.in_flight_batches, 1U);
  service.drain();
}

TEST(Serve, DeadlineAtRiskFlushesBeforeBatchDelay) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.policy.max_batch_delay = 5000e-6;  // would otherwise wait 5 ms
  AlignmentService service(cfg);

  SwRequest request{sw_tasks[0], Priority::kNormal, {}, {}, {}};
  request.deadline = 300e-6;
  const auto submit = service.submit(std::move(request));
  ASSERT_TRUE(submit.admitted());
  service.drain();

  const auto& latency = submit.ticket.get().latency;
  // Flushed when the deadline came at risk, far before the 5 ms delay.
  EXPECT_LT(latency.batch_time, 1000e-6);
  EXPECT_GT(service.stats().deadlines_met + service.stats().deadlines_missed, 0U);
}

TEST(Serve, HighPriorityJumpsTheLineInCapacityLimitedBatches) {
  // Four equal-cost tasks against a cell target that fits only two per
  // batch: the over-target flush fires at the third submission, and the
  // high-priority request must take a seat in that first batch ahead of a
  // low-priority request submitted before it.
  const auto task = wsim::workload::sw_all_tasks(small_dataset())[0];
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.policy.target_batch_cells = task.cells() * 5 / 2;
  cfg.policy.max_batch_delay = 100e-6;
  AlignmentService service(cfg);

  const auto low0 = service.submit(SwRequest{task, Priority::kLow, {}, {}, {}});
  const auto low1 = service.submit(SwRequest{task, Priority::kLow, {}, {}, {}});
  const auto high0 = service.submit(SwRequest{task, Priority::kHigh, {}, {}, {}});
  const auto high1 = service.submit(SwRequest{task, Priority::kHigh, {}, {}, {}});
  service.drain();

  // The first batch carried {high0, low0}; low1 was deferred even though
  // it entered the queue before high0.
  EXPECT_EQ(high0.ticket.get().batch_tasks, 2U);
  EXPECT_DOUBLE_EQ(high0.ticket.get().latency.completion_time,
                   low0.ticket.get().latency.completion_time);
  EXPECT_LT(high0.ticket.get().latency.completion_time,
            low1.ticket.get().latency.completion_time);
  EXPECT_DOUBLE_EQ(high1.ticket.get().latency.completion_time,
                   low1.ticket.get().latency.completion_time);
}

TEST(Serve, CallbackFiresOnceWithReadyResponse) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  AlignmentService service(cfg);

  int calls = 0;
  SwRequest request{sw_tasks[0], Priority::kNormal, {}, {}, {}};
  request.callback = [&calls](const SwResponse& response) {
    ++calls;
    EXPECT_GT(response.latency.completion_time, response.latency.submit_time);
  };
  const auto submit = service.submit(std::move(request));
  ASSERT_TRUE(submit.admitted());
  service.drain();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(submit.ticket.ready());
}

TEST(Serve, AdvanceIsIncrementalAndMonotonic) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.policy.max_batch_delay = 100e-6;
  AlignmentService service(cfg);

  const auto submit =
      service.submit(SwRequest{sw_tasks[0], Priority::kNormal, {}, {}, {}});
  ASSERT_TRUE(submit.admitted());
  service.advance_to(50e-6);  // before the delay flush: nothing delivered
  EXPECT_FALSE(submit.ticket.ready());
  service.advance_to(10e-6);  // backwards is a no-op
  EXPECT_DOUBLE_EQ(service.now(), 50e-6);
  service.advance_to(1.0);
  EXPECT_TRUE(submit.ticket.ready());
  // Latency decomposition is internally consistent.
  const auto& latency = submit.ticket.get().latency;
  EXPECT_GE(latency.batch_time, latency.submit_time);
  EXPECT_GE(latency.start_time, latency.batch_time);
  EXPECT_GT(latency.completion_time, latency.start_time);
  EXPECT_NEAR(latency.total_seconds(),
              latency.queue_seconds() + latency.device_wait_seconds() +
                  latency.service_seconds(),
              1e-12);
}

TEST(Serve, RejectsInvalidTasks) {
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  AlignmentService service(cfg);
  EXPECT_THROW(service.submit(SwRequest{{"", "ACGT"}, Priority::kNormal, {}, {}, {}}),
               wsim::util::CheckError);
  wsim::align::PairHmmTask bad;
  bad.read = "ACGT";
  bad.hap = "ACGTACGT";
  bad.base_quals.assign(2, 30);  // wrong length
  EXPECT_THROW(service.submit(PairHmmRequest{bad, Priority::kNormal, {}, {}, {}}),
               wsim::util::CheckError);
}

// ---------------------------------------------------------------------------
// Component-level coverage.
TEST(AdmissionQueue, DrainsHighestPriorityFirstFifoWithin) {
  struct Entry {
    int id = 0;
    Priority priority = Priority::kNormal;
    std::size_t cells = 1;
    wsim::serve::SimTime submit_time = 0.0;
    std::optional<wsim::serve::SimTime> deadline;
  };
  wsim::serve::AdmissionQueue<Entry> queue(8, 0);
  EXPECT_EQ(queue.try_push({1, Priority::kLow, 1, 0.0, {}}), RejectReason::kNone);
  EXPECT_EQ(queue.try_push({2, Priority::kHigh, 1, 1.0, {}}), RejectReason::kNone);
  EXPECT_EQ(queue.try_push({3, Priority::kNormal, 1, 2.0, {}}), RejectReason::kNone);
  EXPECT_EQ(queue.try_push({4, Priority::kHigh, 1, 3.0, {}}), RejectReason::kNone);
  ASSERT_TRUE(queue.oldest_submit_time().has_value());
  EXPECT_DOUBLE_EQ(*queue.oldest_submit_time(), 0.0);

  const auto batch = queue.pop_batch(3, 1u << 30);
  ASSERT_EQ(batch.size(), 3U);
  EXPECT_EQ(batch[0].id, 2);  // high, FIFO
  EXPECT_EQ(batch[1].id, 4);
  EXPECT_EQ(batch[2].id, 3);  // then normal
  EXPECT_EQ(queue.size(), 1U);
}

TEST(AdmissionQueue, CellTargetStopsBatchButTakesAtLeastOne) {
  struct Entry {
    std::size_t cells = 0;
    Priority priority = Priority::kNormal;
    wsim::serve::SimTime submit_time = 0.0;
    std::optional<wsim::serve::SimTime> deadline;
  };
  wsim::serve::AdmissionQueue<Entry> queue(8, 0);
  (void)queue.try_push({100, Priority::kNormal, 0.0, {}});
  (void)queue.try_push({100, Priority::kNormal, 0.0, {}});
  // A single over-target entry still pops (never deadlock on a huge task).
  const auto first = queue.pop_batch(8, 50);
  EXPECT_EQ(first.size(), 1U);
  // The cell target caps multi-entry batches.
  (void)queue.try_push({100, Priority::kNormal, 0.0, {}});
  const auto second = queue.pop_batch(8, 150);
  EXPECT_EQ(second.size(), 1U);
  EXPECT_TRUE(queue.empty() == false);
  EXPECT_EQ(queue.pop_batch(8, 1u << 30).size(), 1U);
}

// ---------------------------------------------------------------------------
// Multi-tenant admission: per-tenant quotas, SLO-derived lanes, and the
// per-tenant stats breakdown.

TEST(ServeTenants, TaskAndCellQuotasRejectWithTenantReasons) {
  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  wsim::serve::TenantConfig alpha;
  alpha.name = "alpha";
  alpha.max_queued_tasks = 2;
  wsim::serve::TenantConfig beta;
  beta.name = "beta";
  beta.max_queued_cells = sw_tasks[0].cells();  // one task fills it
  cfg.tenants = {alpha, beta};
  AlignmentService service(cfg);

  const auto submit_as = [&](const char* tenant, std::size_t i) {
    SwRequest request{sw_tasks[i], Priority::kNormal, {}, {}, tenant};
    return service.submit(std::move(request));
  };
  EXPECT_TRUE(submit_as("alpha", 0).admitted());
  EXPECT_TRUE(submit_as("alpha", 1).admitted());
  const auto third = submit_as("alpha", 2);
  EXPECT_FALSE(third.admitted());
  EXPECT_EQ(third.rejected, RejectReason::kTenantTasksQuota);

  EXPECT_TRUE(submit_as("beta", 0).admitted());
  const auto over_cells = submit_as("beta", 1);
  EXPECT_FALSE(over_cells.admitted());
  EXPECT_EQ(over_cells.rejected, RejectReason::kTenantCellsQuota);

  // One tenant's quota never blocks another: beta's task bound is open.
  EXPECT_TRUE(submit_as("alpha", 2).admitted() == false);  // still over
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_tenant_quota, 3U);
  EXPECT_EQ(stats.completed(), 3U);
  ASSERT_EQ(stats.tenants.size(), 2U);
  EXPECT_EQ(stats.tenants[0].name, "alpha");
  EXPECT_EQ(stats.tenants[0].submitted, 2U);
  EXPECT_EQ(stats.tenants[0].completed, 2U);
  EXPECT_EQ(stats.tenants[0].rejected_quota, 2U);
  EXPECT_EQ(stats.tenants[1].name, "beta");
  EXPECT_EQ(stats.tenants[1].rejected_quota, 1U);
}

TEST(ServeTenants, SloDerivesDeadlineAndPriorityLane) {
  EXPECT_EQ(wsim::serve::priority_for_slo(0.0), Priority::kNormal);
  EXPECT_EQ(wsim::serve::priority_for_slo(5e-3), Priority::kHigh);
  EXPECT_EQ(wsim::serve::priority_for_slo(50e-3), Priority::kNormal);
  EXPECT_EQ(wsim::serve::priority_for_slo(1.0), Priority::kLow);

  const auto sw_tasks = wsim::workload::sw_all_tasks(small_dataset());
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  wsim::serve::TenantConfig gold;
  gold.name = "gold";
  gold.slo_seconds = 10.0;  // generous: the request must meet it
  cfg.tenants = {gold};
  AlignmentService service(cfg);

  // No explicit deadline: the tenant's SLO supplies one, so the response
  // is judged against it.
  SwRequest request{sw_tasks[0], Priority::kNormal, {}, {}, "gold"};
  ASSERT_TRUE(service.submit(std::move(request)).admitted());
  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.deadlines_met, 1U);
  EXPECT_EQ(stats.deadlines_missed, 0U);
  ASSERT_EQ(stats.tenants.size(), 1U);
  EXPECT_EQ(stats.tenants[0].deadlines_met, 1U);
  EXPECT_DOUBLE_EQ(stats.tenants[0].slo_violation_rate(), 0.0);
}

TEST(ServeTenants, TightSloTenantJumpsTheSharedQueue) {
  // Mirror of HighPriorityJumpsTheLine, but the lane comes from the
  // tenant's SLO class instead of an explicit Priority: a 5 ms SLO rides
  // kHigh and takes a seat in the first capacity-limited batch ahead of a
  // best-effort tenant's earlier request.
  const auto task = wsim::workload::sw_all_tasks(small_dataset())[0];
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.policy.target_batch_cells = task.cells() * 5 / 2;
  cfg.policy.max_batch_delay = 100e-6;
  wsim::serve::TenantConfig effort;
  effort.name = "effort";
  effort.priority = Priority::kLow;
  wsim::serve::TenantConfig gold;
  gold.name = "gold";
  gold.slo_seconds = 5e-3;  // kHigh lane
  cfg.tenants = {effort, gold};
  AlignmentService service(cfg);

  const auto submit_as = [&](const char* tenant) {
    return service.submit(SwRequest{task, Priority::kNormal, {}, {}, tenant});
  };
  const auto effort0 = submit_as("effort");
  const auto effort1 = submit_as("effort");
  const auto gold0 = submit_as("gold");
  const auto gold1 = submit_as("gold");
  service.drain();

  EXPECT_EQ(gold0.ticket.get().batch_tasks, 2U);
  EXPECT_DOUBLE_EQ(gold0.ticket.get().latency.completion_time,
                   effort0.ticket.get().latency.completion_time);
  EXPECT_LT(gold0.ticket.get().latency.completion_time,
            effort1.ticket.get().latency.completion_time);
  EXPECT_DOUBLE_EQ(gold1.ticket.get().latency.completion_time,
                   effort1.ticket.get().latency.completion_time);
}

TEST(ServeTenants, SamePriorityTenantsStayFifoAndNeitherStarves) {
  // Two tenants at the same lane interleave FIFO: a quota-limited tenant
  // cannot be starved by a high-rate one, and within each batch the seats
  // go in submission order across tenants.
  const auto task = wsim::workload::sw_all_tasks(small_dataset())[0];
  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;
  cfg.policy.target_batch_cells = task.cells() * 5 / 2;  // two seats per batch
  cfg.policy.max_batch_delay = 100e-6;
  wsim::serve::TenantConfig small;
  small.name = "small";
  small.max_queued_tasks = 1;
  cfg.tenants = {small};
  AlignmentService service(cfg);

  const auto submit_as = [&](const char* tenant) {
    return service.submit(SwRequest{task, Priority::kNormal, {}, {}, tenant});
  };
  const auto loud0 = submit_as("loud");
  const auto small0 = submit_as("small");
  const auto rejected = submit_as("small");  // over its own quota
  EXPECT_FALSE(rejected.admitted());
  const auto loud1 = submit_as("loud");
  service.drain();

  // First batch: {loud0, small0} in submission order — the loud tenant
  // did not push the small one out.
  EXPECT_DOUBLE_EQ(loud0.ticket.get().latency.completion_time,
                   small0.ticket.get().latency.completion_time);
  EXPECT_LT(small0.ticket.get().latency.completion_time,
            loud1.ticket.get().latency.completion_time);
  const auto stats = service.stats();
  for (const auto& tenant : stats.tenants) {
    if (tenant.name == "small") {
      EXPECT_EQ(tenant.completed, 1U);
      EXPECT_EQ(tenant.rejected_quota, 1U);
    }
  }
}

TEST(BatchFormer, EstimatorLearnsFromObservations) {
  wsim::serve::ServiceTimeEstimator estimator(1e-9, 10e-6);
  const double before = estimator.estimate(1000000);
  // Feed consistently slower batches; the estimate must move up.
  for (int i = 0; i < 20; ++i) {
    estimator.observe(1000000, 10e-6 + 5e-3);
  }
  EXPECT_GT(estimator.estimate(1000000), before);
}

TEST(BatchFormer, EstimatorFirstObservationDoesNotMoveThePrior) {
  // A single early outlier must not steer deadline decisions: the prior
  // is served unchanged until the warm-up window fills.
  wsim::serve::ServiceTimeEstimator estimator(1e-9, 10e-6);
  const double before = estimator.estimate(1000000);
  estimator.observe(1000000, 10e-6 + 5e-3);  // 5000x the prior rate
  EXPECT_FALSE(estimator.warmed_up());
  EXPECT_DOUBLE_EQ(estimator.estimate(1000000), before);
  EXPECT_DOUBLE_EQ(estimator.seconds_per_cell(), 1e-9);
}

TEST(BatchFormer, EstimatorWarmupWindowSeedsFromTheMean) {
  wsim::serve::ServiceTimeEstimator estimator(1e-9, 10e-6);
  const int window = wsim::serve::ServiceTimeEstimator::kWarmupWindow;
  // Observations at 2e-9 and 4e-9 seconds/cell in equal number: the seed
  // must be their mean, not an EWMA blend with the 1e-9 prior.
  for (int i = 0; i < window; ++i) {
    const double rate = (i % 2 == 0) ? 2e-9 : 4e-9;
    EXPECT_FALSE(estimator.warmed_up());
    estimator.observe(1000000, 10e-6 + rate * 1e6);
  }
  EXPECT_TRUE(estimator.warmed_up());
  EXPECT_NEAR(estimator.seconds_per_cell(), 3e-9, 1e-15);
}

TEST(BatchFormer, EstimatorAllIdenticalSamplesConvergeExactly) {
  // A perfectly steady workload must pin the estimate to the observed
  // rate — warm-up seeds it there and the EWMA must not drift off it.
  wsim::serve::ServiceTimeEstimator estimator(1e-9, 10e-6);
  for (int i = 0; i < 50; ++i) {
    estimator.observe(500000, 10e-6 + 2e-9 * 500000);
  }
  EXPECT_TRUE(estimator.warmed_up());
  EXPECT_NEAR(estimator.seconds_per_cell(), 2e-9, 1e-15);
  // Zero-cell observations are ignored, not folded in as zero rate.
  estimator.observe(0, 123.0);
  EXPECT_NEAR(estimator.seconds_per_cell(), 2e-9, 1e-15);
}

TEST(ServeStats, HistogramAndSummaryBehave) {
  wsim::serve::BatchSizeHistogram histogram;
  histogram.record(1);
  histogram.record(3);
  histogram.record(3);
  histogram.record(9);
  EXPECT_EQ(histogram.batches, 4U);
  EXPECT_EQ(histogram.tasks, 16U);
  EXPECT_DOUBLE_EQ(histogram.mean_size(), 4.0);
  EXPECT_EQ(histogram.format(), "[1,2):1 [2,4):2 [8,16):1");

  const auto summary = wsim::serve::summarize_latency({4.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(summary.count, 4U);
  EXPECT_DOUBLE_EQ(summary.mean, 2.5);
  EXPECT_DOUBLE_EQ(summary.max, 4.0);
  EXPECT_LE(summary.p50, summary.p95);
  EXPECT_LE(summary.p95, summary.p99);
  const auto empty = wsim::serve::summarize_latency({});
  EXPECT_EQ(empty.count, 0U);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(ServeStats, PercentileEdgeCases) {
  // Empty sample: every field is exactly zero, no NaNs.
  const auto empty = wsim::serve::summarize_latency({});
  EXPECT_EQ(empty.count, 0U);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.p95, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);

  // Single sample: every percentile is that sample.
  const auto single = wsim::serve::summarize_latency({0.125});
  EXPECT_EQ(single.count, 1U);
  EXPECT_DOUBLE_EQ(single.mean, 0.125);
  EXPECT_DOUBLE_EQ(single.p50, 0.125);
  EXPECT_DOUBLE_EQ(single.p95, 0.125);
  EXPECT_DOUBLE_EQ(single.p99, 0.125);
  EXPECT_DOUBLE_EQ(single.max, 0.125);

  // All-equal samples: the order statistics collapse to the common value.
  const auto equal = wsim::serve::summarize_latency({2.5, 2.5, 2.5, 2.5, 2.5});
  EXPECT_EQ(equal.count, 5U);
  EXPECT_DOUBLE_EQ(equal.p50, 2.5);
  EXPECT_DOUBLE_EQ(equal.p95, 2.5);
  EXPECT_DOUBLE_EQ(equal.p99, 2.5);
  EXPECT_DOUBLE_EQ(equal.mean, 2.5);
  EXPECT_DOUBLE_EQ(equal.max, 2.5);
}

TEST(ServeStats, SelectedPercentilesMatchTheFullSortBitForBit) {
  // summarize_latency selects its percentiles in place; util::percentile
  // sorts a copy per call. Same order statistics, same interpolation, so
  // the doubles must agree bit for bit, not just to a tolerance.
  const auto expect_same = [](const std::vector<double>& sample, const char* what) {
    const auto summary = wsim::serve::summarize_latency(sample);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.p50),
              std::bit_cast<std::uint64_t>(wsim::util::percentile(sample, 50.0)))
        << what << " n=" << sample.size();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.p95),
              std::bit_cast<std::uint64_t>(wsim::util::percentile(sample, 95.0)))
        << what << " n=" << sample.size();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.p99),
              std::bit_cast<std::uint64_t>(wsim::util::percentile(sample, 99.0)))
        << what << " n=" << sample.size();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.mean),
              std::bit_cast<std::uint64_t>(wsim::util::summarize(sample).mean))
        << what << " n=" << sample.size();
  };
  wsim::util::Rng rng(17);
  for (const std::size_t n : {1U, 2U, 3U, 101U, 100000U}) {
    std::vector<double> sample(n);
    for (double& v : sample) {
      v = rng.uniform_real(1e-6, 2e-2);
    }
    expect_same(sample, "random");
    std::vector<double> ties(n);
    for (double& v : ties) {
      v = 1e-3 * static_cast<double>(rng.uniform_int(0, 3));
    }
    expect_same(ties, "ties");
    std::sort(sample.begin(), sample.end());
    expect_same(sample, "sorted");
    std::reverse(sample.begin(), sample.end());
    expect_same(sample, "reversed");
  }
}

TEST(ServeStats, WriteStatsJsonMirrorsBenchSchema) {
  wsim::serve::ServiceStats stats;
  stats.sw_submitted = 3;
  stats.ph_submitted = 4;
  stats.sw_completed = 3;
  stats.ph_completed = 4;
  stats.rejected_cells_full = 1;
  stats.first_submit_time = 0.0;
  stats.last_completion_time = 2.0;
  stats.completed_cells = 4'000'000'000ULL;
  stats.device_busy_seconds = 1.0;
  stats.batch_sizes.record(3);
  stats.batch_sizes.record(4);
  stats.latency = wsim::serve::summarize_latency({0.25, 0.25});

  std::ostringstream os;
  wsim::serve::write_stats_json(os, stats);
  const std::string json = os.str();
  // Field names mirror BENCH_serve.json's sweep points.
  for (const char* key :
       {"\"submitted\": 7", "\"completed\": 7", "\"rejected\": 1",
        "\"throughput_tasks_per_s\": 3.5", "\"gcups\": 2",
        "\"device_utilization\": 0.5", "\"mean_batch_size\": 3.5",
        "\"batch_size_histogram\"", "\"latency\"", "\"queue_wait\"",
        "\"p95_s\": 0.25", "\"deadlines_met\": 0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  // The "tenants" key itself contains the letters "nan"; the contract is
  // that no NaN/Inf *values* leak into the JSON.
  EXPECT_EQ(json.find(": nan"), std::string::npos);
  EXPECT_EQ(json.find(": -nan"), std::string::npos);
  EXPECT_EQ(json.find(": inf"), std::string::npos);
  EXPECT_EQ(json.find(": -inf"), std::string::npos);

  // A default (empty) snapshot serializes without NaN/Inf too.
  std::ostringstream empty_os;
  wsim::serve::write_stats_json(empty_os, wsim::serve::ServiceStats{});
  EXPECT_NE(empty_os.str().find("\"throughput_tasks_per_s\": 0"),
            std::string::npos);
  EXPECT_EQ(empty_os.str().find(": nan"), std::string::npos);
  EXPECT_EQ(empty_os.str().find(": -nan"), std::string::npos);
}

TEST(ServeStats, JsonCarriesTenantBreakdownAndSharedDeviceSchema) {
  wsim::serve::ServiceStats stats;
  stats.sw_submitted = 2;
  stats.sw_completed = 2;
  wsim::serve::TenantStats tenant;
  tenant.name = "alpha";
  tenant.submitted = 2;
  tenant.completed = 2;
  tenant.deadlines_met = 1;
  tenant.deadlines_missed = 1;
  tenant.slo_seconds = 20e-3;
  stats.tenants.push_back(tenant);

  wsim::fleet::FleetStats fleet_stats;
  wsim::fleet::DeviceStats device;
  device.name = "K1200";
  device.id = 3;
  device.state = wsim::fleet::WorkerState::kDraining;
  device.quarantines = 1;
  fleet_stats.devices.push_back(device);
  fleet_stats.joins = 2;
  fleet_stats.drains = 1;

  std::ostringstream os;
  wsim::serve::write_stats_json(os, stats, fleet_stats);
  const std::string json = os.str();
  // The per-tenant block and the device-record schema shared by
  // fleet-sim --json and cluster-sim --json.
  for (const char* key :
       {"\"tenants\"", "\"name\": \"alpha\"", "\"slo_violation_rate\": 0.5",
        "\"slo_s\": 0.02", "\"devices\"", "\"id\": 3",
        "\"device\": \"K1200\"", "\"state\": \"draining\"",
        "\"quarantines\": 1", "\"joined_at_s\"", "\"free_at_s\"",
        "\"joins\": 2", "\"drains\": 1", "\"retires\": 0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

// Regression for the cross-layer shared-engine contract: a service built
// without an explicit engine runs on simt::shared_engine(), so the
// cost-cache entries it writes are hits for a bare runner (and vice
// versa) — same cache across serving layer, runners, pipeline, CLI.
TEST(ServeStats, TimingOnlyServiceSharesTheProcessWideCostCache) {
  const auto dataset = small_dataset(41);
  const auto sw_tasks = wsim::workload::sw_all_tasks(dataset);
  ASSERT_FALSE(sw_tasks.empty());

  ServiceConfig cfg = base_config();
  cfg.collect_outputs = false;  // timing-only: shape-cached via engine cache
  cfg.engine = nullptr;         // explicit: the process-wide shared_engine()
  AlignmentService service(cfg);
  double t = 0.0;
  for (const auto& task : sw_tasks) {
    service.advance_to(t);
    ASSERT_TRUE(service.submit(SwRequest{task, Priority::kNormal, {}, {}, {}})
                    .admitted());
    t += 25e-6;
  }
  service.drain();

  auto& shared = wsim::simt::shared_engine();
  const std::size_t after_service = shared.cost_cache_size();
  EXPECT_GT(after_service, 0U);

  // The same task shapes through a bare runner: pure cache hits — no new
  // entries, no blocks executed.
  const wsim::kernels::SwRunner runner(cfg.sw_design);
  wsim::kernels::SwRunOptions opt;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  opt.use_engine_cache = true;
  const auto warm = runner.run_batch(cfg.device, sw_tasks, opt);
  EXPECT_EQ(shared.cost_cache_size(), after_service);
  EXPECT_EQ(warm.run.launch.blocks_executed, 0U);
}

}  // namespace
