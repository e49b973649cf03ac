#include "wsim/serve/service.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "wsim/fleet/fleet.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/watchdog.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::serve {

namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

/// A response waiting for its batch's simulated completion time.
template <typename Response>
struct Delivery {
  std::shared_ptr<detail::ResponseSlot<Response>> slot;
  Response response;
  bool had_deadline = false;
  std::size_t cells = 0;
  std::uint32_t tenant = 0;
};

/// Fails every entry's ticket with `why` and returns how many. No
/// callbacks fire: the response callback carries a Response, which never
/// came to exist.
template <typename Entry>
std::size_t fail_entries(std::vector<Entry>& entries, const std::string& why) {
  for (auto& entry : entries) {
    entry.slot->error = why;
  }
  return entries.size();
}

/// SDC injection can corrupt an address register into an out-of-bounds
/// access — a crash, not a silent error. The caller's `run` draws a fresh
/// SDC launch id per call, so a retry sees an independent corruption
/// stream; without injection (or on a watchdog timeout, which is
/// deterministic for a given kernel and budget) errors propagate.
template <typename Run>
auto run_with_retry(Run&& run, const guard::GuardConfig& cfg) {
  for (int attempt = 0;; ++attempt) {
    try {
      return run();
    } catch (const simt::LaunchTimeout&) {
      throw;
    } catch (const util::CheckError&) {
      if (!cfg.sdc.enabled() || attempt + 1 >= 4) {
        throw;
      }
    }
  }
}

/// Single-device detection + escalation, mirroring the fleet's
/// guarded_execute minus placement: verify the outputs, re-execute on the
/// same device (a fresh launch id draws an independent corruption
/// stream), and as the last step substitute the CPU reference.
/// `run_once` accounts seconds and flips itself.
template <typename Result, typename RunOnce, typename Validate,
          typename FingerprintOf, typename CpuSubstitute>
Result guarded_single(const guard::GuardConfig& cfg, ServiceStats& totals,
                      RunOnce&& run_once, Validate&& validate,
                      FingerprintOf&& fingerprint_of,
                      CpuSubstitute&& cpu_substitute) {
  Result first = run_once();
  if (cfg.detect == guard::DetectMode::kAbft) {
    if (!validate(first)) {
      return first;
    }
    ++totals.sdc_detected;
    for (int redo = 0; redo < cfg.max_reexecutions; ++redo) {
      Result rerun = run_once();
      if (!validate(rerun)) {
        ++totals.sdc_corrected;
        return rerun;
      }
    }
    if (!cfg.cpu_fallback) {
      throw util::CheckError(
          "guard: batch still failing verification after " +
          std::to_string(cfg.max_reexecutions) + " re-executions");
    }
    cpu_substitute(first);
    ++totals.cpu_fallbacks;
    return first;
  }
  // kDual: a second independent run must reproduce the exact bits; on a
  // mismatch a third run breaks the tie two-of-three.
  const std::uint64_t print1 = fingerprint_of(first);
  Result second = run_once();
  if (fingerprint_of(second) == print1) {
    return first;
  }
  ++totals.sdc_detected;
  Result third = run_once();
  const std::uint64_t print3 = fingerprint_of(third);
  if (print3 == print1 || print3 == fingerprint_of(second)) {
    ++totals.sdc_corrected;
    return third;
  }
  if (!cfg.cpu_fallback) {
    throw util::CheckError(
        "guard: three dual-execution runs disagree pairwise; no quorum");
  }
  cpu_substitute(third);
  ++totals.cpu_fallbacks;
  return third;
}

void note_reject(SimTime ts, RejectReason reason) {
  static obs::Counter c_rejected("serve.rejected");
  c_rejected.add();
  obs::instant(ts, obs::Layer::kServe, "serve.reject", -1, 0,
               static_cast<double>(static_cast<int>(reason)));
}

}  // namespace

AlignmentService::AlignmentService(ServiceConfig config)
    : config_(std::move(config)),
      sw_runner_(config_.sw_design),
      ph_runner_(config_.ph_design),
      engine_(config_.engine != nullptr ? config_.engine
                                        : &simt::shared_engine()),
      fleet_(config_.fleet),
      sw_queue_(config_.max_queue_tasks, config_.max_queue_cells),
      ph_queue_(config_.max_queue_tasks, config_.max_queue_cells) {
  util::require(config_.policy.max_batch_tasks >= 1,
                "AlignmentService: max_batch_tasks must be >= 1");
  util::require(config_.policy.target_batch_cells >= 1,
                "AlignmentService: target_batch_cells must be >= 1");
  util::require(config_.policy.max_batch_delay >= 0.0,
                "AlignmentService: max_batch_delay must be >= 0");
  util::require(config_.length_granularity >= 1,
                "AlignmentService: length_granularity must be >= 1");
  // Tenant 0 is the permissive default every unnamed (or unknown)
  // submission lands in; configured tenants follow in config order.
  tenants_.emplace_back();
  for (const TenantConfig& tenant : config_.tenants) {
    util::require(!tenant.name.empty(),
                  "AlignmentService: configured tenants need a name");
    TenantState state;
    state.cfg = tenant;
    tenants_.push_back(std::move(state));
  }
}

std::uint32_t AlignmentService::tenant_index(const std::string& name) {
  if (name.empty()) {
    return 0;
  }
  for (std::size_t i = 1; i < tenants_.size(); ++i) {
    if (tenants_[i].cfg.name == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  // Unknown tenant: admit permissively but keep its own accounting row.
  TenantState state;
  state.cfg.name = name;
  tenants_.push_back(std::move(state));
  return static_cast<std::uint32_t>(tenants_.size() - 1);
}

template <typename E>
RejectReason AlignmentService::admit_tenant(const std::string& name, E& entry) {
  entry.tenant = tenant_index(name);
  TenantState& tenant = tenants_[entry.tenant];
  if (tenant.cfg.max_queued_tasks != 0 &&
      tenant.queued_tasks + 1 > tenant.cfg.max_queued_tasks) {
    ++tenant.rejected_quota;
    ++totals_.rejected_tenant_quota;
    return RejectReason::kTenantTasksQuota;
  }
  if (tenant.cfg.max_queued_cells != 0 &&
      tenant.queued_cells + entry.cells > tenant.cfg.max_queued_cells) {
    ++tenant.rejected_quota;
    ++totals_.rejected_tenant_quota;
    return RejectReason::kTenantCellsQuota;
  }
  // SLO class: derive the deadline and lane the tenant contracted for
  // unless the request pinned its own.
  if (tenant.cfg.slo_seconds > 0.0 && !entry.deadline.has_value()) {
    entry.deadline = clock_ + tenant.cfg.slo_seconds;
  }
  if (tenant.cfg.priority.has_value() || tenant.cfg.slo_seconds > 0.0) {
    entry.priority = tenant.cfg.effective_priority();
  }
  return RejectReason::kNone;
}

SwSubmit AlignmentService::submit(SwRequest request) {
  util::require(!request.task.query.empty() && !request.task.target.empty(),
                "AlignmentService: SW request needs non-empty sequences");
  SwSubmit result;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    ++totals_.rejected_stopped;
    note_reject(clock_, RejectReason::kStopped);
    result.rejected = RejectReason::kStopped;
    return result;
  }
  SwEntry entry;
  entry.cells = request.task.cells();
  entry.task = std::move(request.task);
  entry.priority = request.priority;
  entry.deadline = request.deadline;
  entry.submit_time = clock_;
  const RejectReason quota = admit_tenant(request.tenant, entry);
  if (quota != RejectReason::kNone) {
    note_reject(clock_, quota);
    result.rejected = quota;
    return result;
  }
  entry.slot = std::make_shared<detail::ResponseSlot<SwResponse>>();
  entry.slot->callback = std::move(request.callback);
  Ticket<SwResponse> ticket(entry.slot);
  const std::uint32_t tenant_idx = entry.tenant;
  const std::size_t cells = entry.cells;
  const RejectReason reason = sw_queue_.try_push(std::move(entry));
  if (reason != RejectReason::kNone) {
    reason == RejectReason::kQueueTasksFull ? ++totals_.rejected_tasks_full
                                            : ++totals_.rejected_cells_full;
    note_reject(clock_, reason);
    result.rejected = reason;
    return result;
  }
  if (totals_.submitted() == 0) {
    totals_.first_submit_time = clock_;
  }
  ++totals_.sw_submitted;
  static obs::Counter c_submitted("serve.sw_submitted");
  c_submitted.add();
  obs::instant(clock_, obs::Layer::kServe, "serve.submit_sw", -1, 0,
               static_cast<double>(tenant_idx), static_cast<double>(cells));
  TenantState& tenant = tenants_[tenant_idx];
  ++tenant.submitted;
  ++tenant.queued_tasks;
  tenant.queued_cells += cells;
  result.ticket = std::move(ticket);
  flush_while_over_target();
  return result;
}

PairHmmSubmit AlignmentService::submit(PairHmmRequest request) {
  const auto& task = request.task;
  util::require(!task.read.empty() && !task.hap.empty(),
                "AlignmentService: PairHMM request needs non-empty sequences");
  util::require(task.read.size() <= static_cast<std::size_t>(kernels::kPhMaxReadLen),
                "AlignmentService: PairHMM read exceeds kPhMaxReadLen");
  util::require(task.base_quals.size() == task.read.size() &&
                    task.ins_quals.size() == task.read.size() &&
                    task.del_quals.size() == task.read.size(),
                "AlignmentService: PairHMM quality tracks must match read length");
  PairHmmSubmit result;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    ++totals_.rejected_stopped;
    note_reject(clock_, RejectReason::kStopped);
    result.rejected = RejectReason::kStopped;
    return result;
  }
  PhEntry entry;
  entry.cells = workload::cells(request.task);
  entry.task = std::move(request.task);
  entry.priority = request.priority;
  entry.deadline = request.deadline;
  entry.submit_time = clock_;
  const RejectReason quota = admit_tenant(request.tenant, entry);
  if (quota != RejectReason::kNone) {
    note_reject(clock_, quota);
    result.rejected = quota;
    return result;
  }
  entry.slot = std::make_shared<detail::ResponseSlot<PairHmmResponse>>();
  entry.slot->callback = std::move(request.callback);
  Ticket<PairHmmResponse> ticket(entry.slot);
  const std::uint32_t tenant_idx = entry.tenant;
  const std::size_t cells = entry.cells;
  const RejectReason reason = ph_queue_.try_push(std::move(entry));
  if (reason != RejectReason::kNone) {
    reason == RejectReason::kQueueTasksFull ? ++totals_.rejected_tasks_full
                                            : ++totals_.rejected_cells_full;
    note_reject(clock_, reason);
    result.rejected = reason;
    return result;
  }
  if (totals_.submitted() == 0) {
    totals_.first_submit_time = clock_;
  }
  ++totals_.ph_submitted;
  static obs::Counter c_submitted("serve.ph_submitted");
  c_submitted.add();
  obs::instant(clock_, obs::Layer::kServe, "serve.submit_ph", -1, 0,
               static_cast<double>(tenant_idx), static_cast<double>(cells));
  TenantState& tenant = tenants_[tenant_idx];
  ++tenant.submitted;
  ++tenant.queued_tasks;
  tenant.queued_cells += cells;
  result.ticket = std::move(ticket);
  flush_while_over_target();
  return result;
}

SimTime AlignmentService::now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

void AlignmentService::advance_to(SimTime t) {
  Callbacks callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    process_until(t, callbacks);
    clock_ = std::max(clock_, t);
    obs::set_sim_time(clock_);
  }
  for (auto& callback : callbacks) {
    callback();
  }
}

SimTime AlignmentService::drain() {
  Callbacks callbacks;
  SimTime end = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    process_until(kForever, callbacks);
    end = clock_;
  }
  for (auto& callback : callbacks) {
    callback();
  }
  return end;
}

void AlignmentService::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
}

ServiceStats AlignmentService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot = totals_;
  snapshot.queue_depth = sw_queue_.size() + ph_queue_.size();
  snapshot.queued_cells = sw_queue_.cells() + ph_queue_.cells();
  snapshot.in_flight_batches = in_flight_.size();
  if (fleet_ != nullptr) {
    // The fleet runs the guard ladder for batches we dispatch to it; fold
    // its lifetime accounting into the service view.
    const guard::GuardStats fleet_guard = fleet_->stats().guard;
    snapshot.sdc_flips += fleet_guard.sdc_flips;
    snapshot.sdc_detected += fleet_guard.sdc_detected;
    snapshot.sdc_corrected += fleet_guard.sdc_corrected;
    snapshot.cpu_fallbacks += fleet_guard.cpu_fallbacks;
    snapshot.watchdog_timeouts += fleet_guard.watchdog_timeouts;
  }
  snapshot.latency = summarize_latency(latency_samples_);
  snapshot.queue_wait = summarize_latency(queue_wait_samples_);
  for (const TenantState& tenant : tenants_) {
    // The default tenant only reports when it actually carried traffic.
    if (tenant.cfg.name.empty() && tenant.submitted == 0) {
      continue;
    }
    TenantStats row;
    row.name = tenant.cfg.name;
    row.submitted = tenant.submitted;
    row.completed = tenant.completed;
    row.rejected_quota = tenant.rejected_quota;
    row.queued_tasks = tenant.queued_tasks;
    row.queued_cells = tenant.queued_cells;
    row.deadlines_met = tenant.deadlines_met;
    row.deadlines_missed = tenant.deadlines_missed;
    row.slo_seconds = tenant.cfg.slo_seconds;
    row.latency = summarize_latency(tenant.latency_samples);
    snapshot.tenants.push_back(std::move(row));
  }
  return snapshot;
}

QueueSnapshot AlignmentService::queue_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueueSnapshot snapshot;
  snapshot.queued_tasks = sw_queue_.size() + ph_queue_.size();
  snapshot.queued_cells = sw_queue_.cells() + ph_queue_.cells();
  snapshot.in_flight_batches = in_flight_.size();
  snapshot.oldest_submit_time = sw_queue_.oldest_submit_time();
  const std::optional<SimTime> ph_oldest = ph_queue_.oldest_submit_time();
  if (ph_oldest.has_value() && (!snapshot.oldest_submit_time.has_value() ||
                                *ph_oldest < *snapshot.oldest_submit_time)) {
    snapshot.oldest_submit_time = ph_oldest;
  }
  return snapshot;
}

/// Deterministic event loop: repeatedly picks the earliest due event —
/// an in-flight completion, an SW flush, or a PH flush, in that order on
/// ties — clamps overdue events to the current clock, and processes it,
/// until nothing is due at or before `limit`.
void AlignmentService::process_until(SimTime limit, Callbacks& callbacks) {
  for (;;) {
    int kind = -1;  // 0 deliver, 1 flush SW, 2 flush PH
    SimTime when = kForever;
    std::size_t flight_index = 0;
    for (std::size_t i = 0; i < in_flight_.size(); ++i) {
      const InFlight& flight = in_flight_[i];
      if (kind != 0 || flight.completion_time < when ||
          (flight.completion_time == when &&
           flight.order < in_flight_[flight_index].order)) {
        kind = 0;
        when = flight.completion_time;
        flight_index = i;
      }
    }
    const auto consider = [&](std::optional<SimTime> due, int flush_kind) {
      if (due.has_value() && std::max(*due, clock_) < std::max(when, clock_)) {
        kind = flush_kind;
        when = *due;
      }
    };
    consider(next_flush_time(sw_queue_, config_.policy, estimator_), 1);
    consider(next_flush_time(ph_queue_, config_.policy, estimator_), 2);
    if (kind < 0) {
      return;
    }
    const SimTime effective = std::max(when, clock_);
    if (effective > limit) {
      return;
    }
    clock_ = effective;
    obs::set_sim_time(clock_);
    switch (kind) {
      case 0: deliver_in_flight(flight_index, callbacks); break;
      case 1: flush_sw(); break;
      default: flush_ph(); break;
    }
  }
}

void AlignmentService::deliver_in_flight(std::size_t index, Callbacks& callbacks) {
  obs::instant(clock_, obs::Layer::kServe, "serve.deliver", -1,
               in_flight_[index].order);
  auto ready = in_flight_[index].deliver();
  callbacks.insert(callbacks.end(), std::make_move_iterator(ready.begin()),
                   std::make_move_iterator(ready.end()));
  in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(index));
}

/// The cell-target and task-cap triggers fire at submit time: a queue
/// that already holds a full batch has nothing left to wait for.
void AlignmentService::flush_while_over_target() {
  while (sw_queue_.cells() >= config_.policy.target_batch_cells ||
         sw_queue_.size() >= config_.policy.max_batch_tasks) {
    flush_sw();
  }
  while (ph_queue_.cells() >= config_.policy.target_batch_cells ||
         ph_queue_.size() >= config_.policy.max_batch_tasks) {
    flush_ph();
  }
}

void AlignmentService::flush_sw() {
  auto entries =
      sw_queue_.pop_batch(config_.policy.max_batch_tasks, config_.policy.target_batch_cells);
  if (entries.empty()) {
    return;
  }
  for (const SwEntry& entry : entries) {
    --tenants_[entry.tenant].queued_tasks;
    tenants_[entry.tenant].queued_cells -= entry.cells;
  }
  // gpuPairHMM-style grouping: similar-length tasks adjacent, so blocks
  // scheduled together have similar cost.
  std::stable_sort(entries.begin(), entries.end(),
                   [&](const SwEntry& x, const SwEntry& y) {
                     return workload::length_bucket(x.task, config_.length_granularity) <
                            workload::length_bucket(y.task, config_.length_granularity);
                   });
  workload::SwBatch batch;
  batch.reserve(entries.size());
  std::size_t batch_cells = 0;
  // Nothing reads an entry's task after this: failures and deliveries
  // use the slot, cells, tenant and times.
  for (SwEntry& entry : entries) {
    batch.push_back(std::move(entry.task));
    batch_cells += entry.cells;
  }

  kernels::SwBatchResult result;
  const SimTime formed = clock_;
  static obs::Counter c_flushes_sw("serve.sw_batches");
  static obs::Histogram h_batch_cells_sw("serve.sw_batch_cells");
  c_flushes_sw.add();
  h_batch_cells_sw.observe(static_cast<double>(batch_cells));
  obs::instant(formed, obs::Layer::kServe, "serve.flush_sw", -1, batch_order_,
               static_cast<double>(entries.size()),
               static_cast<double>(batch_cells));
  SimTime start = 0.0;
  SimTime completion = 0.0;
  double seconds = 0.0;
  try {
    if (fleet_ != nullptr) {
      fleet::ExecOptions exec_options;
      exec_options.collect_outputs = config_.collect_outputs;
      exec_options.overlap_transfers = config_.overlap_transfers;
      auto executed = fleet_->execute_sw(batch, formed, exec_options);
      result = std::move(executed.result);
      seconds = executed.exec.service_seconds;
      start = executed.exec.start_time;
      completion = executed.exec.completion_time;
    } else {
      kernels::SwRunOptions options;
      options.engine = engine_;
      options.overlap_transfers = config_.overlap_transfers;
      const bool guarded = config_.collect_outputs && config_.guard.enabled();
      if (config_.collect_outputs) {
        options.collect_outputs = true;
      } else {
        options.mode = simt::ExecMode::kCachedByShape;
        options.use_engine_cache = true;
      }
      if (guarded) {
        options.max_block_cycles = config_.guard.max_block_cycles;
      }
      const auto launch_once = [&] {
        if (guarded && config_.guard.sdc.enabled()) {
          options.sdc = config_.guard.sdc;
          options.sdc_launch_id = guard_launch_seq_++;
        }
        return sw_runner_.run_batch(config_.device, batch, options);
      };
      const auto run_once = [&] {
        auto run = run_with_retry(launch_once, config_.guard);
        seconds += run.run.launch.total_seconds();
        totals_.sdc_flips += run.run.launch.sdc_flips;
        return run;
      };
      if (guarded && config_.guard.verifying()) {
        result = guarded_single<kernels::SwBatchResult>(
            config_.guard, totals_, run_once,
            [&](const kernels::SwBatchResult& r) {
              return guard::validate_sw(batch, r.outputs, sw_runner_.params());
            },
            [](const kernels::SwBatchResult& r) {
              return guard::fingerprint_sw(r.outputs);
            },
            [&](kernels::SwBatchResult& r) {
              r.outputs = guard::cpu_sw(batch, sw_runner_.params());
            });
      } else {
        result = run_once();
      }
      start = std::max(formed, device_free_at_);
      completion = start + seconds;
      device_free_at_ = completion;
      obs::span_begin(start, obs::Layer::kServe, "serve.batch", 0, batch_order_,
                      static_cast<double>(entries.size()),
                      static_cast<double>(batch_cells));
      obs::span_end(completion, obs::Layer::kServe, "serve.batch", 0,
                    batch_order_);
    }
  } catch (const simt::LaunchTimeout& e) {
    ++totals_.watchdog_timeouts;
    static obs::Counter c_timeouts("serve.watchdog_timeouts");
    c_timeouts.add();
    obs::instant(formed, obs::Layer::kServe, "serve.watchdog_timeout", -1,
                 batch_order_);
    obs::dump_flight(std::string("serve watchdog timeout: ") + e.what(),
                     fleet_ == nullptr ? 0 : -1, batch_order_, formed);
    totals_.failed += fail_entries(entries, e.what());
    return;
  } catch (const util::CheckError& e) {
    static obs::Counter c_failed("serve.batch_failures");
    c_failed.add();
    obs::instant(formed, obs::Layer::kServe, "serve.batch_failure", -1,
                 batch_order_);
    obs::dump_flight(std::string("serve ticket failure: ") + e.what(),
                     fleet_ == nullptr ? 0 : -1, batch_order_, formed);
    totals_.failed += fail_entries(entries, e.what());
    return;
  }
  estimator_.observe(batch_cells, seconds);
  totals_.batch_sizes.record(entries.size());
  totals_.device_busy_seconds += seconds;

  std::vector<Delivery<SwResponse>> deliveries;
  deliveries.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Delivery<SwResponse> delivery;
    if (config_.collect_outputs) {
      delivery.response.alignment = result.outputs[i].alignment;
    }
    delivery.response.latency = {entries[i].submit_time, formed, start, completion};
    delivery.response.batch_tasks = entries.size();
    delivery.response.deadline_met =
        !entries[i].deadline.has_value() || completion <= *entries[i].deadline;
    delivery.had_deadline = entries[i].deadline.has_value();
    delivery.cells = entries[i].cells;
    delivery.tenant = entries[i].tenant;
    delivery.slot = std::move(entries[i].slot);
    deliveries.push_back(std::move(delivery));
  }
  InFlight flight;
  flight.completion_time = completion;
  flight.order = batch_order_++;
  flight.deliver = [this, deliveries = std::move(deliveries)]() mutable {
    Callbacks ready;
    for (auto& delivery : deliveries) {
      latency_samples_.push_back(delivery.response.latency.total_seconds());
      queue_wait_samples_.push_back(delivery.response.latency.queue_seconds());
      TenantState& tenant = tenants_[delivery.tenant];
      ++tenant.completed;
      tenant.latency_samples.push_back(delivery.response.latency.total_seconds());
      if (delivery.had_deadline) {
        delivery.response.deadline_met ? ++totals_.deadlines_met
                                       : ++totals_.deadlines_missed;
        delivery.response.deadline_met ? ++tenant.deadlines_met
                                       : ++tenant.deadlines_missed;
      }
      totals_.completed_cells += delivery.cells;
      ++totals_.sw_completed;
      totals_.last_completion_time = std::max(
          totals_.last_completion_time, delivery.response.latency.completion_time);
      auto slot = delivery.slot;
      slot->response = std::move(delivery.response);
      if (slot->callback) {
        ready.push_back([slot]() { slot->callback(*slot->response); });
      }
    }
    return ready;
  };
  in_flight_.push_back(std::move(flight));
}

void AlignmentService::flush_ph() {
  auto entries =
      ph_queue_.pop_batch(config_.policy.max_batch_tasks, config_.policy.target_batch_cells);
  if (entries.empty()) {
    return;
  }
  for (const PhEntry& entry : entries) {
    --tenants_[entry.tenant].queued_tasks;
    tenants_[entry.tenant].queued_cells -= entry.cells;
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [&](const PhEntry& x, const PhEntry& y) {
                     return workload::length_bucket(x.task, config_.length_granularity) <
                            workload::length_bucket(y.task, config_.length_granularity);
                   });
  workload::PhBatch batch;
  batch.reserve(entries.size());
  std::size_t batch_cells = 0;
  // As in flush_sw, nothing reads an entry's task after this.
  for (PhEntry& entry : entries) {
    batch.push_back(std::move(entry.task));
    batch_cells += entry.cells;
  }

  kernels::PhBatchResult result;
  const SimTime formed = clock_;
  static obs::Counter c_flushes_ph("serve.ph_batches");
  static obs::Histogram h_batch_cells_ph("serve.ph_batch_cells");
  c_flushes_ph.add();
  h_batch_cells_ph.observe(static_cast<double>(batch_cells));
  obs::instant(formed, obs::Layer::kServe, "serve.flush_ph", -1, batch_order_,
               static_cast<double>(entries.size()),
               static_cast<double>(batch_cells));
  SimTime start = 0.0;
  SimTime completion = 0.0;
  double seconds = 0.0;
  try {
    if (fleet_ != nullptr) {
      fleet::ExecOptions exec_options;
      exec_options.collect_outputs = config_.collect_outputs;
      exec_options.overlap_transfers = config_.overlap_transfers;
      exec_options.double_fallback = config_.double_fallback;
      auto executed = fleet_->execute_ph(batch, formed, exec_options);
      result = std::move(executed.result);
      seconds = executed.exec.service_seconds;
      start = executed.exec.start_time;
      completion = executed.exec.completion_time;
    } else {
      kernels::PhRunOptions options;
      options.engine = engine_;
      options.overlap_transfers = config_.overlap_transfers;
      const bool guarded = config_.collect_outputs && config_.guard.enabled();
      if (config_.collect_outputs) {
        options.collect_outputs = true;
        options.double_fallback = config_.double_fallback;
      } else {
        options.mode = simt::ExecMode::kCachedByShape;
        options.use_engine_cache = true;
      }
      if (guarded) {
        options.max_block_cycles = config_.guard.max_block_cycles;
      }
      const auto launch_once = [&] {
        if (guarded && config_.guard.sdc.enabled()) {
          options.sdc = config_.guard.sdc;
          options.sdc_launch_id = guard_launch_seq_++;
        }
        return ph_runner_.run_batch(config_.device, batch, options);
      };
      const auto run_once = [&] {
        auto run = run_with_retry(launch_once, config_.guard);
        seconds += run.run.launch.total_seconds();
        totals_.sdc_flips += run.run.launch.sdc_flips;
        return run;
      };
      if (guarded && config_.guard.verifying()) {
        result = guarded_single<kernels::PhBatchResult>(
            config_.guard, totals_, run_once,
            [&](const kernels::PhBatchResult& r) {
              return guard::validate_ph(batch, r.log10);
            },
            [](const kernels::PhBatchResult& r) {
              return guard::fingerprint_ph(r.log10);
            },
            [&](kernels::PhBatchResult& r) {
              r.log10 = guard::cpu_ph(batch);
            });
      } else {
        result = run_once();
      }
      start = std::max(formed, device_free_at_);
      completion = start + seconds;
      device_free_at_ = completion;
      obs::span_begin(start, obs::Layer::kServe, "serve.batch", 0, batch_order_,
                      static_cast<double>(entries.size()),
                      static_cast<double>(batch_cells));
      obs::span_end(completion, obs::Layer::kServe, "serve.batch", 0,
                    batch_order_);
    }
  } catch (const simt::LaunchTimeout& e) {
    ++totals_.watchdog_timeouts;
    static obs::Counter c_timeouts("serve.watchdog_timeouts");
    c_timeouts.add();
    obs::instant(formed, obs::Layer::kServe, "serve.watchdog_timeout", -1,
                 batch_order_);
    obs::dump_flight(std::string("serve watchdog timeout: ") + e.what(),
                     fleet_ == nullptr ? 0 : -1, batch_order_, formed);
    totals_.failed += fail_entries(entries, e.what());
    return;
  } catch (const util::CheckError& e) {
    static obs::Counter c_failed("serve.batch_failures");
    c_failed.add();
    obs::instant(formed, obs::Layer::kServe, "serve.batch_failure", -1,
                 batch_order_);
    obs::dump_flight(std::string("serve ticket failure: ") + e.what(),
                     fleet_ == nullptr ? 0 : -1, batch_order_, formed);
    totals_.failed += fail_entries(entries, e.what());
    return;
  }
  estimator_.observe(batch_cells, seconds);
  totals_.batch_sizes.record(entries.size());
  totals_.device_busy_seconds += seconds;

  std::vector<Delivery<PairHmmResponse>> deliveries;
  deliveries.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Delivery<PairHmmResponse> delivery;
    if (config_.collect_outputs) {
      delivery.response.log10 = result.log10[i];
    }
    delivery.response.latency = {entries[i].submit_time, formed, start, completion};
    delivery.response.batch_tasks = entries.size();
    delivery.response.deadline_met =
        !entries[i].deadline.has_value() || completion <= *entries[i].deadline;
    delivery.had_deadline = entries[i].deadline.has_value();
    delivery.cells = entries[i].cells;
    delivery.tenant = entries[i].tenant;
    delivery.slot = std::move(entries[i].slot);
    deliveries.push_back(std::move(delivery));
  }
  InFlight flight;
  flight.completion_time = completion;
  flight.order = batch_order_++;
  flight.deliver = [this, deliveries = std::move(deliveries)]() mutable {
    Callbacks ready;
    for (auto& delivery : deliveries) {
      latency_samples_.push_back(delivery.response.latency.total_seconds());
      queue_wait_samples_.push_back(delivery.response.latency.queue_seconds());
      TenantState& tenant = tenants_[delivery.tenant];
      ++tenant.completed;
      tenant.latency_samples.push_back(delivery.response.latency.total_seconds());
      if (delivery.had_deadline) {
        delivery.response.deadline_met ? ++totals_.deadlines_met
                                       : ++totals_.deadlines_missed;
        delivery.response.deadline_met ? ++tenant.deadlines_met
                                       : ++tenant.deadlines_missed;
      }
      totals_.completed_cells += delivery.cells;
      ++totals_.ph_completed;
      totals_.last_completion_time = std::max(
          totals_.last_completion_time, delivery.response.latency.completion_time);
      auto slot = delivery.slot;
      slot->response = std::move(delivery.response);
      if (slot->callback) {
        ready.push_back([slot]() { slot->callback(*slot->response); });
      }
    }
    return ready;
  };
  in_flight_.push_back(std::move(flight));
}

}  // namespace wsim::serve
