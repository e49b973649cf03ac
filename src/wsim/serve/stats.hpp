#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace wsim::fleet {
struct FleetStats;
}  // namespace wsim::fleet

namespace wsim::serve {

/// Order statistics over a latency sample, in seconds.
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarizes a sample (takes it by value because the percentiles are
/// selected in place). The percentiles are bit-identical to
/// util::percentile's. Empty input yields a zero summary.
LatencySummary summarize_latency(std::vector<double> seconds);

/// Power-of-two histogram of formed batch sizes: bucket i counts batches
/// of [2^i, 2^(i+1)) tasks. The direct online readout of the Fig. 10
/// trade-off: longer batching delays shift mass toward higher buckets.
struct BatchSizeHistogram {
  std::vector<std::size_t> buckets;
  std::size_t batches = 0;
  std::size_t tasks = 0;

  void record(std::size_t batch_size);
  double mean_size() const noexcept;
  /// e.g. "[1,2):3 [4,8):12" — empty buckets omitted.
  std::string format() const;
};

/// Per-tenant slice of the service counters: admission, progress, SLO
/// outcome, and the tenant's own latency distribution. Tenants with an
/// SLO report violations as deadlines_missed (the service derives the
/// deadline from TenantConfig::slo_seconds when the request carries
/// none).
struct TenantStats {
  std::string name;  ///< empty = the default tenant
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected_quota = 0;  ///< refused by the tenant's own quota
  std::size_t queued_tasks = 0;    ///< as of the snapshot
  std::size_t queued_cells = 0;
  std::size_t deadlines_met = 0;
  std::size_t deadlines_missed = 0;
  double slo_seconds = 0.0;  ///< 0 = no SLO configured
  LatencySummary latency;    ///< submit→completion seconds, this tenant

  /// Fraction of completed requests that missed their deadline/SLO.
  double slo_violation_rate() const noexcept {
    const std::size_t judged = deadlines_met + deadlines_missed;
    return judged > 0
               ? static_cast<double>(deadlines_missed) / static_cast<double>(judged)
               : 0.0;
  }
};

/// Snapshot of service health taken by AlignmentService::stats().
/// Counters cover the whole service lifetime; queue depths are as of the
/// snapshot; latency summaries cover delivered responses.
struct ServiceStats {
  // Admission.
  std::size_t sw_submitted = 0;
  std::size_t ph_submitted = 0;
  std::size_t rejected_tasks_full = 0;
  std::size_t rejected_cells_full = 0;
  std::size_t rejected_stopped = 0;
  std::size_t rejected_tenant_quota = 0;  ///< per-tenant quota rejections

  // Progress.
  std::size_t sw_completed = 0;
  std::size_t ph_completed = 0;
  std::size_t failed = 0;  ///< admitted requests failed with a ticket error
  std::size_t queue_depth = 0;   ///< tasks waiting (both kinds)
  std::size_t queued_cells = 0;
  std::size_t in_flight_batches = 0;

  // Resilience (guard): silent-data-corruption and watchdog accounting.
  // On the single-device path these count this service's own injection
  // and verification; with a fleet backend stats() adds the fleet's
  // lifetime guard counters (the fleet runs the escalation ladder).
  std::uint64_t sdc_flips = 0;         ///< bit flips injected into launches
  std::size_t sdc_detected = 0;        ///< batches flagged by verification
  std::size_t sdc_corrected = 0;       ///< flagged batches fixed by re-execution
  std::size_t cpu_fallbacks = 0;       ///< batches answered by the CPU reference
  std::size_t watchdog_timeouts = 0;   ///< launches killed by the cycle budget/deadlock watchdog

  // Batch forming.
  BatchSizeHistogram batch_sizes;

  // Deadlines (requests that carried one).
  std::size_t deadlines_met = 0;
  std::size_t deadlines_missed = 0;

  // Simulated-time span and work of delivered responses.
  double first_submit_time = 0.0;
  double last_completion_time = 0.0;
  std::size_t completed_cells = 0;
  double device_busy_seconds = 0.0;

  LatencySummary latency;     ///< total submit→completion seconds
  LatencySummary queue_wait;  ///< submit→batch-formed seconds

  /// Per-tenant breakdowns (present when the service saw a non-default
  /// tenant or was configured with TenantConfigs).
  std::vector<TenantStats> tenants;

  std::size_t submitted() const noexcept { return sw_submitted + ph_submitted; }
  std::size_t completed() const noexcept { return sw_completed + ph_completed; }
  std::size_t rejected() const noexcept {
    return rejected_tasks_full + rejected_cells_full + rejected_stopped +
           rejected_tenant_quota;
  }

  /// Simulated seconds from first admission to last delivery.
  double duration_seconds() const noexcept;
  double throughput_tasks_per_second() const noexcept;
  double gcups() const noexcept;
  /// Fraction of the duration the simulated device was executing batches.
  /// With a fleet backend busy seconds sum across devices, so this reads
  /// as busy device-seconds per wall second and can exceed 1.
  double device_utilization() const noexcept;
};

/// Writes the snapshot as one JSON object, mirroring the field names of
/// the bench sweeps' JSON points (BENCH_serve.json) — submitted/completed/
/// rejected counters, throughput_tasks_per_s, gcups, mean_batch_size and
/// the batch-size histogram, latency and queue-wait percentiles, deadline
/// counters, and device_utilization. Non-finite values are written as 0
/// (JSON has no NaN/Inf). Per-tenant breakdowns appear under "tenants"
/// when any exist. No trailing newline.
void write_stats_json(std::ostream& os, const ServiceStats& stats);

/// Same object plus fleet membership accounting and a "devices" array —
/// one record per registry entry with the shared device-record schema
/// ({id, device, state, batches, tasks, cells, busy_s, launch_failures,
/// slowdowns, sdc_detected, timeouts, quarantines, joined_at_s,
/// free_at_s}) that `fleet-sim --json` and `cluster-sim --json` both
/// emit.
void write_stats_json(std::ostream& os, const ServiceStats& stats,
                      const fleet::FleetStats& fleet);

}  // namespace wsim::serve
