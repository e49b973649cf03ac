#include "wsim/serve/stats.hpp"

#include <algorithm>
#include <ostream>

#include "wsim/fleet/fleet.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/util/stats.hpp"

namespace wsim::serve {

namespace {

/// util::percentile's interpolation on a sample that selection has already
/// partitioned up to `*first`: every element before `*first` is <= every
/// element from it on. Partitions [first, end) around the percentile's
/// lower rank and moves `*first` to that rank, so ascending percentiles
/// each partition only what lies at and right of the previous rank. The
/// order statistics are the ones a full sort yields, so the value is
/// bit-identical to util::percentile's.
double select_percentile(std::vector<double>& sample,
                         std::vector<double>::iterator& first, double p) {
  if (sample.size() == 1) {
    return sample.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto lo_it = sample.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(first, lo_it, sample.end());
  first = lo_it;
  const double lo_value = *lo_it;
  const double hi_value =
      lo + 1 < sample.size() ? *std::min_element(lo_it + 1, sample.end()) : lo_value;
  const double frac = rank - static_cast<double>(lo);
  return lo_value + frac * (hi_value - lo_value);
}

}  // namespace

LatencySummary summarize_latency(std::vector<double> seconds) {
  LatencySummary summary;
  if (seconds.empty()) {
    return summary;
  }
  // Summarize before selection reorders the sample, so the mean sums in
  // arrival order.
  const auto base = util::summarize(seconds);
  summary.count = base.count;
  summary.mean = base.mean;
  summary.max = base.max;
  auto first = seconds.begin();
  summary.p50 = select_percentile(seconds, first, 50.0);
  summary.p95 = select_percentile(seconds, first, 95.0);
  summary.p99 = select_percentile(seconds, first, 99.0);
  return summary;
}

void BatchSizeHistogram::record(std::size_t batch_size) {
  if (batch_size == 0) {
    return;
  }
  std::size_t bucket = 0;
  for (std::size_t s = batch_size; s > 1; s >>= 1U) {
    ++bucket;
  }
  if (buckets.size() <= bucket) {
    buckets.resize(bucket + 1, 0);
  }
  ++buckets[bucket];
  ++batches;
  tasks += batch_size;
}

double BatchSizeHistogram::mean_size() const noexcept {
  return batches > 0 ? static_cast<double>(tasks) / static_cast<double>(batches)
                     : 0.0;
}

std::string BatchSizeHistogram::format() const {
  std::string out;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += '[' + std::to_string(std::size_t{1} << i) + ',' +
           std::to_string(std::size_t{1} << (i + 1)) + "):" +
           std::to_string(buckets[i]);
  }
  return out;
}

double ServiceStats::duration_seconds() const noexcept {
  return std::max(0.0, last_completion_time - first_submit_time);
}

double ServiceStats::throughput_tasks_per_second() const noexcept {
  const double duration = duration_seconds();
  return duration > 0.0 ? static_cast<double>(completed()) / duration : 0.0;
}

double ServiceStats::gcups() const noexcept {
  const double duration = duration_seconds();
  return duration > 0.0
             ? static_cast<double>(completed_cells) / duration / 1e9
             : 0.0;
}

double ServiceStats::device_utilization() const noexcept {
  const double duration = duration_seconds();
  return duration > 0.0 ? device_busy_seconds / duration : 0.0;
}

namespace {

using obs::json_number;
using obs::json_quote;

void write_latency_json(std::ostream& os, const LatencySummary& summary) {
  os << "{\"count\": " << summary.count
     << ", \"mean_s\": " << json_number(summary.mean)
     << ", \"p50_s\": " << json_number(summary.p50)
     << ", \"p95_s\": " << json_number(summary.p95)
     << ", \"p99_s\": " << json_number(summary.p99)
     << ", \"max_s\": " << json_number(summary.max) << "}";
}

void write_tenant_json(std::ostream& os, const TenantStats& tenant) {
  os << "{\"name\": " << json_quote(tenant.name)
     << ", \"submitted\": " << tenant.submitted
     << ", \"completed\": " << tenant.completed
     << ", \"rejected_quota\": " << tenant.rejected_quota
     << ", \"queued_tasks\": " << tenant.queued_tasks
     << ", \"queued_cells\": " << tenant.queued_cells
     << ", \"deadlines_met\": " << tenant.deadlines_met
     << ", \"deadlines_missed\": " << tenant.deadlines_missed
     << ", \"slo_s\": " << json_number(tenant.slo_seconds)
     << ", \"slo_violation_rate\": " << json_number(tenant.slo_violation_rate())
     << ", \"latency\": ";
  write_latency_json(os, tenant.latency);
  os << "}";
}

/// The shared device-record schema emitted by both `fleet-sim --json` and
/// `cluster-sim --json`.
void write_device_json(std::ostream& os, const fleet::DeviceStats& d) {
  os << "{\"id\": " << d.id << ", \"device\": " << json_quote(d.name)
     << ", \"state\": \"" << fleet::to_string(d.state) << "\""
     << ", \"wf_variant\": \"" << kernels::to_string(d.wf_variant) << "\""
     << ", \"intra_batches\": " << d.intra_batches
     << ", \"batches\": " << d.batches << ", \"tasks\": " << d.tasks
     << ", \"cells\": " << d.cells
     << ", \"busy_s\": " << json_number(d.busy_seconds)
     << ", \"launch_failures\": " << d.launch_failures
     << ", \"slowdowns\": " << d.slowdowns
     << ", \"sdc_detected\": " << d.sdc_detected
     << ", \"timeouts\": " << d.timeouts
     << ", \"quarantines\": " << d.quarantines
     << ", \"calibration_factor\": " << json_number(d.calibration_factor)
     << ", \"drift_state\": \"" << fleet::to_string(d.drift_state) << "\""
     << ", \"derated\": " << (d.derated ? "true" : "false")
     << ", \"drift_suspects\": " << d.drift_suspects
     << ", \"derates\": " << d.derates
     << ", \"requalifications\": " << d.requalifications
     << ", \"joined_at_s\": " << json_number(d.joined_at)
     << ", \"free_at_s\": " << json_number(d.free_at) << "}";
}

/// Everything except the closing brace, so the fleet overload can append
/// its membership and device records to the same object.
void write_stats_json_body(std::ostream& os, const ServiceStats& stats) {
  os << "{\n"
     << "  \"schema_version\": " << obs::kStatsSchemaVersion << ",\n"
     << "  \"submitted\": " << stats.submitted()
     << ", \"completed\": " << stats.completed()
     << ", \"rejected\": " << stats.rejected() << ",\n"
     << "  \"rejected_tasks_full\": " << stats.rejected_tasks_full
     << ", \"rejected_cells_full\": " << stats.rejected_cells_full
     << ", \"rejected_stopped\": " << stats.rejected_stopped
     << ", \"rejected_tenant_quota\": " << stats.rejected_tenant_quota << ",\n"
     << "  \"throughput_tasks_per_s\": "
     << json_number(stats.throughput_tasks_per_second())
     << ", \"gcups\": " << json_number(stats.gcups())
     << ", \"device_utilization\": " << json_number(stats.device_utilization())
     << ",\n"
     << "  \"duration_s\": " << json_number(stats.duration_seconds())
     << ", \"completed_cells\": " << stats.completed_cells
     << ", \"device_busy_s\": " << json_number(stats.device_busy_seconds)
     << ",\n"
     << "  \"batches\": " << stats.batch_sizes.batches
     << ", \"mean_batch_size\": " << json_number(stats.batch_sizes.mean_size())
     << ", \"batch_size_histogram\": [";
  bool first = true;
  for (std::size_t i = 0; i < stats.batch_sizes.buckets.size(); ++i) {
    if (stats.batch_sizes.buckets[i] == 0) {
      continue;
    }
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "{\"min_tasks\": " << (std::size_t{1} << i)
       << ", \"batches\": " << stats.batch_sizes.buckets[i] << "}";
  }
  os << "],\n"
     << "  \"deadlines_met\": " << stats.deadlines_met
     << ", \"deadlines_missed\": " << stats.deadlines_missed << ",\n"
     << "  \"failed\": " << stats.failed
     << ", \"sdc_flips\": " << stats.sdc_flips
     << ", \"sdc_detected\": " << stats.sdc_detected
     << ", \"sdc_corrected\": " << stats.sdc_corrected
     << ", \"cpu_fallbacks\": " << stats.cpu_fallbacks
     << ", \"watchdog_timeouts\": " << stats.watchdog_timeouts << ",\n"
     << "  \"latency\": ";
  write_latency_json(os, stats.latency);
  os << ",\n  \"queue_wait\": ";
  write_latency_json(os, stats.queue_wait);
  if (!stats.tenants.empty()) {
    os << ",\n  \"tenants\": [";
    for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
      if (i > 0) {
        os << ", ";
      }
      write_tenant_json(os, stats.tenants[i]);
    }
    os << "]";
  }
}

}  // namespace

void write_stats_json(std::ostream& os, const ServiceStats& stats) {
  write_stats_json_body(os, stats);
  os << "\n}";
}

void write_stats_json(std::ostream& os, const ServiceStats& stats,
                      const fleet::FleetStats& fleet) {
  write_stats_json_body(os, stats);
  os << ",\n  \"dispatches\": " << fleet.dispatches
     << ", \"retries\": " << fleet.retries
     << ", \"requeues\": " << fleet.requeues
     << ", \"joins\": " << fleet.joins << ", \"drains\": " << fleet.drains
     << ", \"retires\": " << fleet.retires << ",\n"
     << "  \"devices\": [";
  for (std::size_t i = 0; i < fleet.devices.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    write_device_json(os, fleet.devices[i]);
  }
  os << "]\n}";
}

}  // namespace wsim::serve
