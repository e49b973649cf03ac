// Host-time benchmark harness for the warpshfl simulator and its serving
// stack. One process drives the library through its public functions,
// times every call from outside with std::chrono::steady_clock, checks the
// outputs, and prints one JSON result line (see README.md in this
// directory for the workloads, the metrics and the rules they follow).
//
//   wsim_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//   wsim_perfbench --selftest
//
// A run repeats its workload ("reps") until --seconds of host time are
// spent and reports medians over the reps. Every rep starts cold: the
// decoded-program cache and the engine's cost cache are emptied first, as
// in a fresh CLI invocation. --trace 1 interleaves untraced reps with
// traced ones (harness spans + obs metrics) and reports the per-layer
// metrics instead of the end-to-end ones.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "wsim/align/scoring.hpp"
#include "wsim/align/smith_waterman.hpp"
#include "wsim/cluster/cluster.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/fleet/router.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/pipeline/pipeline.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"
#include "wsim/workload/trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names and units; the
// self-test (selftest.py) checks that the two agree.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_mcells_per_host_s", "Mcell/s"},
    {"peak_rss_mb", "MB"},
    {"sim_gcups", "GCUPS"},
    {"sim_p99_ms", "ms"},
    {"sim_device_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"error_rate", "ratio"},
    {"workload.gen_s", "s"},
    {"workload.rebatch_s", "s"},
    {"kernels.build_s", "s"},
    {"kernels.sw_run_s", "s"},
    {"kernels.ph_run_s", "s"},
    {"simt.sim_instr_per_host_s", "instr/s"},
    {"simt.identity_us_sw", "us"},
    {"simt.identity_us_ph", "us"},
    {"simt.identity_share_est", "ratio"},
    {"simt.decode_hits", "count"},
    {"simt.decode_misses", "count"},
    {"engine.launches", "count"},
    {"engine.blocks_executed", "count"},
    {"engine.blocks_per_launch", "count"},
    {"engine.host_us_per_launch", "us"},
    {"engine.cost_cache_entries", "count"},
    {"guard.baseline_pass_s", "s"},
    {"guard.inject_pass_s", "s"},
    {"guard.inject_overhead", "ratio"},
    {"guard.validate_us_per_batch", "us"},
    {"guard.sdc_flips", "count"},
    {"guard.sdc_detected", "count"},
    {"guard.reexecutions", "count"},
    {"guard.cpu_fallbacks", "count"},
    {"guard.escaped", "count"},
    {"fleet.execute_sw_us", "us"},
    {"fleet.execute_ph_us", "us"},
    {"fleet.dispatches", "count"},
    {"fleet.retries", "count"},
    {"model.sw_obs_over_pred", "ratio"},
    {"model.ph_obs_over_pred", "ratio"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.advance_us_p50", "us"},
    {"serve.advance_us_p99", "us"},
    {"serve.sw_batches", "count"},
    {"serve.ph_batches", "count"},
    {"serve.tasks_per_batch", "count"},
    {"serve.rejected", "count"},
    {"serve.deadline_missed", "count"},
    {"cluster.run_s", "s"},
    {"cluster.ticks", "count"},
    {"cluster.scale_ups", "count"},
    {"cluster.scale_downs", "count"},
    {"cluster.peak_workers", "count"},
    {"bench.trace_overhead", "ratio"},
};

// ---------------------------------------------------------------------------
// Span recorder for traced reps: one span per public call the harness
// makes, kept in memory until the run ends. Timed reps leave it disabled,
// which makes every Scope a branch and nothing else.

struct SpanRec {
  const char* name = "";  ///< string literal
  double start = 0.0;  ///< host seconds since the recorder's origin
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at the root
  std::uint64_t id = 0;  ///< request / batch id, 0 when none
};

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  int open(const char* name, std::uint64_t id) {
    SpanRec span;
    span.name = name;
    span.start = now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.id = id;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now();
    stack_.pop_back();
  }

  const std::vector<SpanRec>& spans() const noexcept { return spans_; }

  /// Host seconds of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRec& s : spans_) {
      if (name == s.name) {
        out.push_back(s.end - s.start);
      }
    }
    return out;
  }
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const double d : durations(name)) {
      sum += d;
    }
    return sum;
  }

 private:
  double now() const { return since(origin_); }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call; a no-op while the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name, id) : -1) {}
  ~Scope() {
    if (index_ >= 0) {
      tracer_.close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, so
/// time is never subtracted twice).
std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [begin, end] : kids) {
      const double b = std::max(begin, spans[i].start);
      const double e = std::min(end, spans[i].end);
      if (e <= b) {
        continue;
      }
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
      } else {
        if (open) {
          covered += run_end - run_start;
        }
        run_start = b;
        run_end = e;
        open = true;
      }
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Small statistics and hashing helpers.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident memory of this process so far.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Reads the named counters out of the obs metrics registry (the registry
/// has no lookup by name; its JSON dump is the public read path).
std::map<std::string, double> read_obs_counters() {
  std::ostringstream os;
  wsim::obs::write_metrics_json(os);
  const std::string text = os.str();
  std::map<std::string, double> out;
  const std::size_t begin = text.find("\"counters\"");
  const std::size_t end = text.find('}', begin);
  std::size_t pos = begin + 10;
  while (true) {
    const std::size_t q1 = text.find('"', pos);
    if (q1 == std::string::npos || q1 > end) {
      break;
    }
    const std::size_t q2 = text.find('"', q1 + 1);
    const std::size_t colon = text.find(':', q2);
    out[text.substr(q1 + 1, q2 - q1 - 1)] = std::strtod(text.c_str() + colon + 1, nullptr);
    pos = text.find_first_of(",}", colon);
  }
  return out;
}

/// Empties every cache a fresh CLI process starts without.
void start_cold() {
  wsim::simt::shared_decoded_cache().clear();
  wsim::simt::shared_engine().clear_cost_cache();
  wsim::obs::reset();
}

/// A counter's value, 0 when the program never registered it.
double counter(const std::map<std::string, double>& counters, const char* name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

/// Engine and decode-cache counters of a traced rep, read right after its
/// timed phase (before any probe launches kernels of its own). Returns
/// every counter read, for the workload's own layers.
std::map<std::string, double> record_engine_counters(std::map<std::string, double>& layer) {
  auto c = read_obs_counters();
  layer["engine.launches"] = counter(c, "engine.launches");
  layer["engine.blocks_executed"] = counter(c, "engine.blocks_executed");
  layer["simt.decode_hits"] = counter(c, "simt.decode_cache.hits");
  layer["simt.decode_misses"] = counter(c, "simt.decode_cache.misses");
  layer["engine.cost_cache_entries"] =
      static_cast<double>(wsim::simt::shared_engine().cost_cache_size());
  return c;
}

/// Keeps timed hash results observable, so the calls are not elided.
volatile std::uint64_t g_identity_sink = 0;

/// Median per-call host microseconds of simt::kernel_identity, cycling
/// over `kernels`.
double identity_us(const std::vector<const wsim::simt::Kernel*>& kernels,
                   const wsim::simt::DeviceSpec& device) {
  constexpr int kCalls = 200;
  std::vector<double> per_call;
  for (int round = 0; round < 9; ++round) {
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      sink ^= wsim::simt::kernel_identity(*kernels[static_cast<std::size_t>(i) % kernels.size()],
                                          device);
    }
    per_call.push_back(since(t0) * 1e6 / kCalls);
    g_identity_sink = g_identity_sink ^ sink;
  }
  return median(per_call);
}

std::vector<const wsim::simt::Kernel*> ph_kernel_set(const wsim::kernels::PhRunner& runner) {
  std::vector<const wsim::simt::Kernel*> out;
  for (int v = 0; v < wsim::kernels::kPhVariants; ++v) {
    out.push_back(&runner.kernel_for_read_len(static_cast<std::size_t>(32 * v + 1)));
  }
  return out;
}

// PairHMM outputs are checked against the host reference within this
// tolerance: the device kernel sums in f32 in a different order than the
// SIMD reference (the same bound run_pipeline's own sampler uses).
bool ph_close(double got, double ref) {
  return std::isfinite(got) && std::abs(got - ref) <= 5e-3 + 1e-3 * std::abs(ref);
}

bool same_alignment(const wsim::align::SwAlignment& a, const wsim::align::SwAlignment& b) {
  return a.score == b.score && a.cigar == b.cigar && a.query_begin == b.query_begin &&
         a.query_end == b.query_end && a.target_begin == b.target_begin &&
         a.target_end == b.target_end;
}

/// Keeps regions in order until the running DP-cell totals reach the
/// budgets, so the input size is the same whatever the seed draws.
wsim::workload::Dataset trim_to_cells(const wsim::workload::Dataset& ds, std::size_t sw_budget,
                                      std::size_t ph_budget) {
  wsim::workload::Dataset out;
  std::size_t sw = 0;
  std::size_t ph = 0;
  for (const auto& region : ds.regions) {
    if (sw >= sw_budget && ph >= ph_budget) {
      break;
    }
    wsim::workload::Region kept;
    for (const auto& task : region.sw_tasks) {
      if (sw < sw_budget) {
        sw += task.cells();
        kept.sw_tasks.push_back(task);
      }
    }
    for (const auto& task : region.ph_tasks) {
      if (ph < ph_budget) {
        ph += wsim::workload::cells(task);
        kept.ph_tasks.push_back(task);
      }
    }
    out.regions.push_back(std::move(kept));
  }
  if (sw < sw_budget || ph < ph_budget) {
    throw std::runtime_error("generated dataset is smaller than the cell budget");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Outcome of one rep.
struct Rep {
  int variant = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::string failure;  ///< first failure, for the log
  double cells = 0.0;   ///< simulated DP cells completed in the timed phase
  double sim_gcups = 0.0;
  double sim_p99_ms = 0.0;
  double sim_device_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::map<std::string, double> layer;  ///< traced reps only

  void fail(std::size_t n, const std::string& why) {
    failed += n;
    if (failure.empty()) {
      failure = why;
    }
  }
};

/// What a workload needs from the rep loop: its input seed, the tracer
/// (enabled on traced reps) and whether to run the full host-reference
/// check (first rep of each input variant; later reps of that variant must
/// reproduce its fingerprint).
struct Ctx {
  const Options& opt;
  std::uint64_t seed;  ///< the rep's input seed (see variant_seed)
  Tracer& tracer;
  bool check_reference = false;
};

double ratio_median(const std::vector<double>& num, const std::vector<double>& den) {
  std::vector<double> r;
  for (std::size_t i = 0; i < num.size(); ++i) {
    if (den[i] > 0.0) {
      r.push_back(num[i] / den[i]);
    }
  }
  return median(r);
}

// --- offline-pipeline --------------------------------------------------------

Rep run_offline_pipeline(Ctx& ctx) {
  namespace wl = wsim::workload;
  Rep rep;
  const bool traced = ctx.tracer.enabled();
  const std::size_t rebatch = 32;
  // Fig. 10 shape at the CLI's pipeline density (24 PairHMM tasks per
  // region), trimmed to a fixed cell budget (~32 regions' worth).
  const std::size_t sw_budget = ctx.opt.smoke ? 2'000'000 : 9'000'000;
  const std::size_t ph_budget = ctx.opt.smoke ? 2'000'000 : 9'000'000;

  const auto t_setup = Clock::now();
  wl::Dataset ds;
  {
    Scope s(ctx.tracer, "workload.generate_dataset");
    const auto t0 = Clock::now();
    wl::GeneratorConfig gen;
    gen.seed = ctx.seed;
    gen.regions = ctx.opt.smoke ? 24 : 96;
    gen.ph_tasks_per_region_mean = 24.0;
    ds = trim_to_cells(wl::generate_dataset(gen), sw_budget, ph_budget);
    rep.layer["workload.gen_s"] = since(t0);
  }
  wl::SwBatch sw_tasks;
  wl::PhBatch ph_tasks;
  {
    Scope s(ctx.tracer, "workload.flatten");
    const auto t0 = Clock::now();
    sw_tasks = wl::sw_all_tasks(ds);
    ph_tasks = wl::ph_all_tasks(ds);
    rep.layer["workload.rebatch_s"] = since(t0);
  }
  wsim::pipeline::PipelineConfig cfg;  // Titan X, shuffle designs
  cfg.rebatch_size = rebatch;
  rep.setup_s = since(t_setup);

  const auto t_run = Clock::now();
  wsim::pipeline::PipelineReport report;
  {
    Scope s(ctx.tracer, "pipeline.run_pipeline");
    report = wsim::pipeline::run_pipeline(ds, cfg);
  }
  rep.wall_s = since(t_run);

  rep.ops = sw_tasks.size() + ph_tasks.size();
  rep.cells = static_cast<double>(report.sw.cells + report.ph.cells);
  rep.sim_device_s = report.sw.seconds + report.ph.seconds;
  rep.sim_gcups = rep.cells / rep.sim_device_s / 1e9;
  // Every task is submitted at t=0 and the stages run back to back, so
  // the job's simulated makespan bounds every request's latency.
  rep.sim_p99_ms = rep.sim_device_s * 1e3;

  Fnv fp;
  for (const auto& a : report.sw_alignments) {
    fp.u64(static_cast<std::uint64_t>(a.score));
    fp.str(a.cigar);
    fp.u64(a.query_begin);
    fp.u64(a.target_begin);
  }
  for (const double v : report.ph_log10) {
    fp.f64(v);
  }
  fp.f64(rep.sim_device_s);
  rep.fingerprint = fp.value();

  if (report.sw_alignments.size() != sw_tasks.size() ||
      report.ph_log10.size() != ph_tasks.size()) {
    rep.fail(rep.ops, "pipeline returned the wrong number of outputs");
    return rep;
  }
  if (ctx.check_reference) {
    // Task by task, so the reference never holds more memory than the
    // pipeline itself (peak_rss_mb is the program's, not the checker's).
    for (std::size_t i = 0; i < sw_tasks.size(); ++i) {
      const auto ref = wsim::align::sw_align(sw_tasks[i].query, sw_tasks[i].target, {});
      if (!same_alignment(ref, report.sw_alignments[i])) {
        rep.fail(1, "SW task " + std::to_string(i) + " differs from the host reference");
      }
    }
    const auto ref_ph = wsim::guard::cpu_ph(ph_tasks);  // one double per task
    for (std::size_t i = 0; i < ph_tasks.size(); ++i) {
      if (!ph_close(report.ph_log10[i], ref_ph[i])) {
        rep.fail(1, "PairHMM task " + std::to_string(i) + " outside tolerance");
      }
    }
  }

  if (traced) {
    record_engine_counters(rep.layer);
    // Probe: the pipeline's own batches sent through the runners one
    // call at a time, which the single run_pipeline call hides.
    const auto t_build = Clock::now();
    std::optional<wsim::kernels::SwRunner> sw_runner;
    std::optional<wsim::kernels::PhRunner> ph_runner;
    {
      Scope s(ctx.tracer, "kernels.build");
      sw_runner.emplace(cfg.sw_design);
      ph_runner.emplace(cfg.ph_design);
    }
    rep.layer["kernels.build_s"] = since(t_build);
    const auto sw_batches = wl::sw_rebatch(ds, rebatch);
    const auto ph_batches = wl::ph_rebatch(ds, rebatch);
    double instr = 0.0;
    std::vector<double> sw_obs, sw_pred, ph_obs, ph_pred;
    const double sw_rate = wsim::fleet::predicted_sw_gcups(cfg.device, cfg.sw_design);
    const double ph_rate = wsim::fleet::predicted_ph_gcups(cfg.device, cfg.ph_design);
    std::uint64_t id = 0;
    for (const auto& batch : sw_batches) {
      wsim::kernels::SwRunOptions o;
      o.collect_outputs = true;
      Scope s(ctx.tracer, "kernels.sw_run_batch", ++id);
      const auto r = sw_runner->run_batch(cfg.device, batch, o);
      instr += static_cast<double>(r.run.launch.instructions);
      sw_obs.push_back(r.run.launch.total_seconds());
      sw_pred.push_back(wsim::fleet::predicted_batch_seconds(cfg.device, sw_rate, r.run.cells));
    }
    for (const auto& batch : ph_batches) {
      wsim::kernels::PhRunOptions o;
      o.collect_outputs = true;
      o.double_fallback = cfg.double_fallback;
      Scope s(ctx.tracer, "kernels.ph_run_batch", ++id);
      const auto r = ph_runner->run_batch(cfg.device, batch, o);
      instr += static_cast<double>(r.run.launch.instructions);
      ph_obs.push_back(r.run.launch.total_seconds());
      ph_pred.push_back(wsim::fleet::predicted_batch_seconds(cfg.device, ph_rate, r.run.cells));
    }
    const double sw_s = ctx.tracer.total("kernels.sw_run_batch");
    const double ph_s = ctx.tracer.total("kernels.ph_run_batch");
    rep.layer["kernels.sw_run_s"] = sw_s;
    rep.layer["kernels.ph_run_s"] = ph_s;
    rep.layer["simt.sim_instr_per_host_s"] = instr / (sw_s + ph_s);
    rep.layer["model.sw_obs_over_pred"] = ratio_median(sw_obs, sw_pred);
    rep.layer["model.ph_obs_over_pred"] = ratio_median(ph_obs, ph_pred);
    rep.layer["simt.identity_us_sw"] = identity_us({&sw_runner->kernel()}, cfg.device);
    rep.layer["simt.identity_us_ph"] = identity_us(ph_kernel_set(*ph_runner), cfg.device);
  }
  return rep;
}

// --- cluster-bursty ----------------------------------------------------------

Rep run_cluster_bursty(Ctx& ctx) {
  namespace wl = wsim::workload;
  Rep rep;
  const bool traced = ctx.tracer.enabled();

  const auto t_setup = Clock::now();
  wl::Dataset ds;
  wl::Trace trace;
  {
    Scope s(ctx.tracer, "workload.generate");
    const auto t0 = Clock::now();
    // A task pool four times the size of cluster-sim's 8-region one (~128
    // SW and ~6000 PairHMM tasks), drawn from 256 small regions so that its
    // task-size mix, and with it the p99 latency, does not swing with the
    // seed (lengths correlate within a region).
    wl::GeneratorConfig gen;
    gen.seed = ctx.seed;
    gen.regions = 256;
    gen.sw_tasks_per_region_mean = 0.5;
    gen.ph_tasks_per_region_mean = 189.0 / 8.0;
    ds = wl::generate_dataset(gen);
    // cluster-sim --shape bursty --rate 16000 --tenants 4. At 20000 req/s
    // an occasional burst outruns the autoscaler and misses the SLO.
    wl::TraceConfig tc;
    tc.seed = ctx.seed;
    tc.duration_seconds = ctx.opt.smoke ? 0.1 : 6.0;
    tc.shape = wl::TraceShape::kBursty;
    for (int i = 0; i < 4; ++i) {
      wl::TenantTraffic traffic;
      traffic.name = "tenant-" + std::to_string(i);
      traffic.rate_hz = 16000.0 / 4.0;
      tc.tenants.push_back(std::move(traffic));
    }
    trace = wl::generate_trace(tc);
    rep.layer["workload.gen_s"] = since(t0);
  }
  // cluster-sim's defaults, which are ClusterConfig's: autoscaler on with
  // 1..8 workers, 2 ms control tick and join warm-up, 5 ms backlog target,
  // model-guided placement. Every tenant gets --slo 20.
  wsim::cluster::ClusterConfig cfg;
  cfg.worker.device = wsim::simt::make_k1200();
  for (const std::string& name : trace.tenants) {
    wsim::serve::TenantConfig tenant;
    tenant.name = name;
    tenant.slo_seconds = 20e-3;
    cfg.tenants.push_back(std::move(tenant));
  }
  rep.setup_s = since(t_setup);

  const auto t_run = Clock::now();
  wsim::cluster::ClusterReport report;
  {
    Scope s(ctx.tracer, "cluster.run_cluster");
    report = wsim::cluster::run_cluster(ds, trace, cfg);
  }
  rep.wall_s = since(t_run);

  const auto& st = report.service;
  rep.ops = trace.events.size();
  rep.cells = static_cast<double>(st.completed_cells);
  rep.sim_device_s = report.device_hours * 3600.0;
  rep.sim_gcups = static_cast<double>(report.fleet.total_cells()) /
                  report.fleet.total_busy_seconds() / 1e9;
  rep.sim_p99_ms = st.latency.p99 * 1e3;
  {
    std::ostringstream os;
    wsim::cluster::write_cluster_json(os, report);
    Fnv fp;
    fp.str(os.str());
    rep.fingerprint = fp.value();
  }

  const std::size_t accounted = st.completed() + st.failed + st.rejected();
  if (accounted != trace.events.size() || st.queue_depth != 0 || st.in_flight_batches != 0) {
    rep.fail(rep.ops, "cluster left requests unaccounted for");
  }
  if (st.rejected() + st.failed + st.deadlines_missed > 0) {
    rep.fail(st.rejected() + st.failed + st.deadlines_missed,
             "cluster rejected, failed or late requests");
  }

  if (traced) {
    const auto c = record_engine_counters(rep.layer);
    rep.layer["cluster.run_s"] = ctx.tracer.total("cluster.run_cluster");
    rep.layer["cluster.ticks"] = counter(c, "cluster.ticks");
    rep.layer["cluster.scale_ups"] = counter(c, "cluster.scale_ups");
    rep.layer["cluster.scale_downs"] = counter(c, "cluster.scale_downs");
    rep.layer["cluster.peak_workers"] = static_cast<double>(report.peak_workers);
    rep.layer["serve.sw_batches"] = counter(c, "serve.sw_batches");
    rep.layer["serve.ph_batches"] = counter(c, "serve.ph_batches");
    rep.layer["serve.tasks_per_batch"] = st.batch_sizes.mean_size();
    rep.layer["serve.rejected"] = static_cast<double>(st.rejected());
    rep.layer["serve.deadline_missed"] = static_cast<double>(st.deadlines_missed);
    rep.layer["fleet.dispatches"] = static_cast<double>(report.fleet.dispatches);
    rep.layer["fleet.retries"] = static_cast<double>(report.fleet.retries);
    const auto t_build = Clock::now();
    const wsim::kernels::SwRunner sw_runner(wsim::kernels::CommMode::kShuffle);
    const wsim::kernels::PhRunner ph_runner(wsim::kernels::PhDesign::kShuffle);
    rep.layer["kernels.build_s"] = since(t_build);
    rep.layer["simt.identity_us_sw"] = identity_us({&sw_runner.kernel()}, cfg.worker.device);
    rep.layer["simt.identity_us_ph"] = identity_us(ph_kernel_set(ph_runner), cfg.worker.device);
  }
  return rep;
}

// --- guard-sdc ---------------------------------------------------------------

Rep run_guard_sdc(Ctx& ctx) {
  namespace wl = wsim::workload;
  namespace fl = wsim::fleet;
  Rep rep;
  const bool traced = ctx.tracer.enabled();
  // guard-sim --batch 32 --detect dual on "K1200,Titan X" at flip rates
  // low enough that re-executions stay a minor, steady share of host time
  // (the per-event SDC draws cost the same at any rate). Tasks are drawn
  // from many small regions (task lengths are correlated within a region)
  // and trimmed to a cell budget with guard-sim's SW:PairHMM cell ratio.
  const std::size_t batch_size = 32;
  const std::vector<double> flip_probs = {1e-7, 3e-7};
  const std::size_t sw_budget = ctx.opt.smoke ? 200'000 : 350'000;
  const std::size_t ph_budget = ctx.opt.smoke ? 1'000'000 : 2'800'000;

  const auto t_setup = Clock::now();
  wl::Dataset ds;
  {
    Scope s(ctx.tracer, "workload.generate_dataset");
    const auto t0 = Clock::now();
    wl::GeneratorConfig gen;
    gen.seed = ctx.seed;
    gen.regions = 96;
    gen.sw_tasks_per_region_mean = 1.0;
    gen.ph_tasks_per_region_mean = 8.0;
    ds = trim_to_cells(wl::generate_dataset(gen), sw_budget, ph_budget);
    rep.layer["workload.gen_s"] = since(t0);
  }
  std::vector<wl::SwBatch> sw_batches;
  std::vector<wl::PhBatch> ph_batches;
  {
    Scope s(ctx.tracer, "workload.rebatch");
    const auto t0 = Clock::now();
    sw_batches = wl::sw_rebatch(ds, batch_size);
    ph_batches = wl::ph_rebatch(ds, batch_size);
    rep.layer["workload.rebatch_s"] = since(t0);
  }
  std::vector<fl::WorkerConfig> workers(2);
  workers[0].device = wsim::simt::make_k1200();
  workers[1].device = wsim::simt::make_titan_x();
  // One fleet per pass, all built before the first timed call.
  std::vector<std::unique_ptr<fl::FleetExecutor>> fleets;
  {
    Scope s(ctx.tracer, "fleet.construct");
    const auto t0 = Clock::now();
    for (std::size_t pass = 0; pass <= flip_probs.size(); ++pass) {
      fl::FleetConfig fc;
      fc.workers = workers;
      if (pass > 0) {
        fc.guard.detect = wsim::guard::DetectMode::kDual;
        fc.guard.sdc.seed = ctx.seed ^ 0x5dc5dc5dc5dc5dc5ULL;
        fc.guard.sdc.flip_prob = flip_probs[pass - 1];
      }
      fleets.push_back(std::make_unique<fl::FleetExecutor>(std::move(fc)));
    }
    rep.layer["kernels.build_s"] = since(t0);
  }
  rep.setup_s = since(t_setup);

  std::size_t tasks_per_pass = 0;
  double cells_per_pass = 0.0;
  for (const auto& b : sw_batches) {
    tasks_per_pass += b.size();
    cells_per_pass += static_cast<double>(wl::batch_cells(b));
  }
  for (const auto& b : ph_batches) {
    tasks_per_pass += b.size();
    cells_per_pass += static_cast<double>(wl::batch_cells(b));
  }

  // Delivered outputs per pass: fingerprints, CPU-fallback flags and the
  // simulated completion time of every batch (SW batches first).
  struct Delivered {
    std::vector<std::uint64_t> prints;
    std::vector<bool> cpu;
    std::vector<double> completion;
    std::vector<std::size_t> tasks;
  };
  std::vector<Delivered> passes(fleets.size());
  std::vector<fl::SwExecution> base_sw;
  std::vector<fl::PhExecution> base_ph;
  std::vector<double> inject_pass_s;
  double baseline_instr = 0.0;

  const auto t_run = Clock::now();
  for (std::size_t pass = 0; pass < fleets.size(); ++pass) {
    const auto t_pass = Clock::now();
    Scope s(ctx.tracer, pass == 0 ? "guard.baseline_pass" : "guard.inject_pass", pass);
    fl::FleetExecutor& fleet = *fleets[pass];
    Delivered& d = passes[pass];
    std::uint64_t id = 0;
    for (const auto& batch : sw_batches) {
      fl::SwExecution e;
      {
        Scope c(ctx.tracer, "fleet.execute_sw", ++id);
        e = fleet.execute_sw(batch, 0.0);
      }
      d.prints.push_back(wsim::guard::fingerprint_sw(e.result.outputs));
      d.cpu.push_back(e.exec.cpu_fallback);
      d.completion.push_back(e.exec.completion_time);
      d.tasks.push_back(batch.size());
      if (pass == 0) {
        baseline_instr += static_cast<double>(e.result.run.launch.instructions);
        for (auto& out : e.result.outputs) {
          out.btrack = {};  // fingerprinted above; the checks need no matrix
        }
        base_sw.push_back(std::move(e));
      }
    }
    for (const auto& batch : ph_batches) {
      fl::PhExecution e;
      {
        Scope c(ctx.tracer, "fleet.execute_ph", ++id);
        e = fleet.execute_ph(batch, 0.0);
      }
      d.prints.push_back(wsim::guard::fingerprint_ph(e.result.log10));
      d.cpu.push_back(e.exec.cpu_fallback);
      d.completion.push_back(e.exec.completion_time);
      d.tasks.push_back(batch.size());
      if (pass == 0) {
        baseline_instr += static_cast<double>(e.result.run.launch.instructions);
        base_ph.push_back(std::move(e));
      }
    }
    if (pass == 0) {
      rep.layer["guard.baseline_pass_s"] = since(t_pass);
    } else {
      inject_pass_s.push_back(since(t_pass));
    }
  }
  rep.wall_s = since(t_run);

  rep.ops = tasks_per_pass * fleets.size();
  rep.cells = cells_per_pass * static_cast<double>(fleets.size());
  wsim::guard::GuardStats gs;
  std::size_t dispatches = 0;
  std::size_t retries = 0;
  for (const auto& fleet : fleets) {
    const fl::FleetStats st = fleet->stats();
    rep.sim_device_s += st.total_busy_seconds();
    gs.merge(st.guard);
    dispatches += st.dispatches;
    retries += st.retries;
  }
  rep.sim_gcups = rep.cells / rep.sim_device_s / 1e9;
  {
    // Per-task latency on the clean pass (every batch is submitted at
    // t=0). The injected passes' extra device time shows in sim_device_s;
    // their tail is set by a handful of re-executed batches and would make
    // this figure a draw of the SDC stream rather than of the model.
    std::vector<double> latency;
    const Delivered& d = passes[0];
    for (std::size_t b = 0; b < d.completion.size(); ++b) {
      latency.insert(latency.end(), d.tasks[b], d.completion[b]);
    }
    rep.sim_p99_ms = quantile(std::move(latency), 0.99) * 1e3;
  }
  Fnv fp;
  for (const Delivered& d : passes) {
    for (std::size_t b = 0; b < d.prints.size(); ++b) {
      fp.u64(d.prints[b]);
      fp.f64(d.completion[b]);
    }
  }
  fp.u64(gs.sdc_flips);
  rep.fingerprint = fp.value();

  // Baseline against the host references; injected passes against the
  // baseline, bit for bit. A PairHMM batch answered by the CPU reference is
  // accurate but not bit-identical to the device run, so it is checked
  // against guard::cpu_ph itself.
  const std::size_t n_sw = sw_batches.size();
  std::vector<std::vector<double>> ph_ref(ph_batches.size());
  const auto ph_reference = [&](std::size_t b) -> const std::vector<double>& {
    if (ph_ref[b].empty()) {
      ph_ref[b] = wsim::guard::cpu_ph(ph_batches[b]);
    }
    return ph_ref[b];
  };
  if (ctx.check_reference) {
    for (std::size_t b = 0; b < n_sw; ++b) {
      const auto ref = wsim::guard::cpu_sw(sw_batches[b], wsim::align::SwParams{});
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!same_alignment(ref[i].alignment, base_sw[b].result.outputs[i].alignment)) {
          rep.fail(1, "baseline SW output differs from the host reference");
        }
      }
    }
    for (std::size_t b = 0; b < ph_batches.size(); ++b) {
      const auto& ref = ph_reference(b);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!ph_close(base_ph[b].result.log10[i], ref[i])) {
          rep.fail(1, "baseline PairHMM output outside tolerance");
        }
      }
    }
  }
  std::size_t escaped = 0;
  for (std::size_t pass = 1; pass < passes.size(); ++pass) {
    const Delivered& d = passes[pass];
    for (std::size_t b = 0; b < d.prints.size(); ++b) {
      if (b >= n_sw && d.cpu[b]) {
        continue;  // checked below against cpu_ph
      }
      if (d.prints[b] != passes[0].prints[b]) {
        ++escaped;
        rep.fail(d.tasks[b], "an injected pass delivered a corrupted batch");
      }
    }
  }
  if (ctx.check_reference) {
    // CPU-answered PairHMM batches of the injected passes must carry the
    // host reference's exact outputs.
    for (std::size_t pass = 1; pass < passes.size(); ++pass) {
      for (std::size_t b = n_sw; b < passes[pass].prints.size(); ++b) {
        if (passes[pass].cpu[b]) {
          const auto& ref = ph_reference(b - n_sw);
          if (wsim::guard::fingerprint_ph(ref) != passes[pass].prints[b]) {
            rep.fail(passes[pass].tasks[b], "CPU-answered PairHMM batch differs from cpu_ph");
          }
        }
      }
    }
  }

  if (traced) {
    record_engine_counters(rep.layer);
    const double baseline_s = rep.layer["guard.baseline_pass_s"];
    rep.layer["guard.inject_pass_s"] = median(inject_pass_s);
    rep.layer["guard.inject_overhead"] = median(inject_pass_s) / baseline_s;
    rep.layer["guard.sdc_flips"] = static_cast<double>(gs.sdc_flips);
    rep.layer["guard.sdc_detected"] = static_cast<double>(gs.sdc_detected);
    rep.layer["guard.reexecutions"] = static_cast<double>(gs.reexecutions);
    rep.layer["guard.cpu_fallbacks"] = static_cast<double>(gs.cpu_fallbacks);
    rep.layer["guard.escaped"] = static_cast<double>(escaped);
    rep.layer["fleet.dispatches"] = static_cast<double>(dispatches);
    rep.layer["fleet.retries"] = static_cast<double>(retries);
    const auto sw_calls = ctx.tracer.durations("fleet.execute_sw");
    const auto ph_calls = ctx.tracer.durations("fleet.execute_ph");
    rep.layer["fleet.execute_sw_us"] = ctx.tracer.total("fleet.execute_sw") * 1e6 /
                                       static_cast<double>(std::max<std::size_t>(1, sw_calls.size()));
    rep.layer["fleet.execute_ph_us"] = ctx.tracer.total("fleet.execute_ph") * 1e6 /
                                       static_cast<double>(std::max<std::size_t>(1, ph_calls.size()));
    rep.layer["simt.sim_instr_per_host_s"] = baseline_instr / baseline_s;

    // Probe: the ABFT validators timed from outside on the clean outputs.
    const auto t_val = Clock::now();
    std::size_t flagged = 0;
    for (std::size_t b = 0; b < n_sw; ++b) {
      Scope s(ctx.tracer, "guard.validate_sw", b);
      flagged += wsim::guard::validate_sw(sw_batches[b], base_sw[b].result.outputs,
                                          wsim::align::SwParams{})
                     .has_value();
    }
    for (std::size_t b = 0; b < ph_batches.size(); ++b) {
      Scope s(ctx.tracer, "guard.validate_ph", b);
      flagged += wsim::guard::validate_ph(ph_batches[b], base_ph[b].result.log10).has_value();
    }
    rep.layer["guard.validate_us_per_batch"] =
        since(t_val) * 1e6 / static_cast<double>(n_sw + ph_batches.size());
    if (flagged > 0) {
      rep.fail(flagged, "a validator flagged a clean baseline batch");
    }

    // Model: simulated service seconds over the placement model's price,
    // on the clean batches.
    const fl::FleetExecutor& base = *fleets[0];
    std::vector<double> sw_obs, sw_pred, ph_obs, ph_pred;
    for (std::size_t b = 0; b < n_sw; ++b) {
      const auto idx = static_cast<std::size_t>(base_sw[b].exec.device_index);
      const auto& dev = base.device(idx);
      sw_obs.push_back(base_sw[b].exec.service_seconds);
      sw_pred.push_back(fl::predicted_batch_seconds(
          dev, fl::predicted_sw_gcups(dev, base.sw_design(idx)), wl::batch_cells(sw_batches[b])));
    }
    for (std::size_t b = 0; b < ph_batches.size(); ++b) {
      const auto idx = static_cast<std::size_t>(base_ph[b].exec.device_index);
      const auto& dev = base.device(idx);
      ph_obs.push_back(base_ph[b].exec.service_seconds);
      ph_pred.push_back(fl::predicted_batch_seconds(
          dev, fl::predicted_ph_gcups(dev, base.ph_design(idx)), wl::batch_cells(ph_batches[b])));
    }
    rep.layer["model.sw_obs_over_pred"] = ratio_median(sw_obs, sw_pred);
    rep.layer["model.ph_obs_over_pred"] = ratio_median(ph_obs, ph_pred);

    const wsim::kernels::SwRunner sw_runner(base.sw_design(0));
    const wsim::kernels::PhRunner ph_runner(base.ph_design(0));
    rep.layer["simt.identity_us_sw"] = identity_us({&sw_runner.kernel()}, base.device(0));
    rep.layer["simt.identity_us_ph"] = identity_us(ph_kernel_set(ph_runner), base.device(0));
  }
  return rep;
}

// --- serve-deadline ----------------------------------------------------------

Rep run_serve_deadline(Ctx& ctx) {
  namespace wl = wsim::workload;
  namespace sv = wsim::serve;
  Rep rep;
  const bool traced = ctx.tracer.enabled();
  // serve-sim --rate 10000 --delay 300 --deadline 5000 on K1200, timing
  // only (the CLI default), over a fixed number of requests. At this rate
  // the device runs about 40% busy, every deadline is met, and the p99
  // is set by batching and service rather than by rare queue build-ups.
  const double rate = 10000.0;
  const double delay_s = 300e-6;
  const double deadline_s = 5000e-6;
  const std::size_t regions = ctx.opt.smoke ? 8 : 96;

  const auto t_setup = Clock::now();
  wl::Dataset ds;
  {
    Scope s(ctx.tracer, "workload.generate_dataset");
    const auto t0 = Clock::now();
    wl::GeneratorConfig gen;
    gen.seed = ctx.seed;
    gen.regions = static_cast<int>(regions + regions / 4);  // margin for the trim below
    ds = wl::generate_dataset(gen);
    rep.layer["workload.gen_s"] = since(t0);
  }
  wl::SwBatch sw_tasks;
  wl::PhBatch ph_tasks;
  {
    Scope s(ctx.tracer, "workload.flatten");
    const auto t0 = Clock::now();
    sw_tasks = wl::sw_all_tasks(ds);
    ph_tasks = wl::ph_all_tasks(ds);
    rep.layer["workload.rebatch_s"] = since(t0);
  }
  // Fixed request counts: 4 SW and 170 PairHMM per region, below the
  // generator's means (4 and 189) so the extra regions always cover them.
  const std::size_t want_sw = 4 * regions;
  const std::size_t want_ph = 170 * regions;
  if (sw_tasks.size() < want_sw || ph_tasks.size() < want_ph) {
    throw std::runtime_error("generated dataset is smaller than the request budget");
  }
  sw_tasks.resize(want_sw);
  ph_tasks.resize(want_ph);
  struct Arrival {
    bool is_sw = false;
    std::size_t index = 0;
    double time = 0.0;
  };
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < sw_tasks.size(); ++i) {
    arrivals.push_back({true, i, 0.0});
  }
  for (std::size_t i = 0; i < ph_tasks.size(); ++i) {
    arrivals.push_back({false, i, 0.0});
  }
  wsim::util::Rng rng(ctx.seed ^ 0x5e27e5e27e5e27e5ULL);
  rng.shuffle(arrivals);
  double t = 0.0;
  for (Arrival& a : arrivals) {  // open loop on the simulated clock
    t += -std::log(1.0 - rng.uniform01()) / rate;
    a.time = t;
  }

  std::optional<sv::AlignmentService> service;
  {
    Scope s(ctx.tracer, "serve.construct");
    const auto t0 = Clock::now();
    sv::ServiceConfig cfg;
    cfg.device = wsim::simt::make_k1200();
    cfg.policy.max_batch_delay = delay_s;
    cfg.max_queue_tasks = 4096;
    cfg.collect_outputs = false;
    service.emplace(std::move(cfg));
    rep.layer["kernels.build_s"] = since(t0);
  }
  rep.setup_s = since(t_setup);

  std::vector<sv::Ticket<sv::SwResponse>> sw_tickets;
  std::vector<sv::Ticket<sv::PairHmmResponse>> ph_tickets;
  std::size_t rejected = 0;
  const auto t_run = Clock::now();
  {
    std::uint64_t id = 0;
    for (const Arrival& a : arrivals) {
      ++id;
      {
        Scope s(ctx.tracer, "serve.advance_to", id);
        service->advance_to(a.time);
      }
      Scope s(ctx.tracer, "serve.submit", id);
      if (a.is_sw) {
        sv::SwRequest request;
        request.task = sw_tasks[a.index];
        request.deadline = a.time + deadline_s;
        auto sub = service->submit(std::move(request));
        rejected += !sub.admitted();
        sw_tickets.push_back(std::move(sub.ticket));
      } else {
        sv::PairHmmRequest request;
        request.task = ph_tasks[a.index];
        request.deadline = a.time + deadline_s;
        auto sub = service->submit(std::move(request));
        rejected += !sub.admitted();
        ph_tickets.push_back(std::move(sub.ticket));
      }
    }
    Scope s(ctx.tracer, "serve.drain");
    service->drain();
  }
  rep.wall_s = since(t_run);

  const sv::ServiceStats st = service->stats();
  rep.ops = arrivals.size();
  rep.cells = static_cast<double>(st.completed_cells);
  rep.sim_device_s = st.device_busy_seconds;
  rep.sim_gcups = rep.cells / rep.sim_device_s / 1e9;
  rep.sim_p99_ms = st.latency.p99 * 1e3;

  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t missed = 0;
  Fnv fp;
  const auto tally = [&](const auto& ticket) {
    if (!ticket.valid()) {
      return;
    }
    if (ticket.failed()) {
      ++failed;
    } else if (ticket.ready()) {
      ++done;
      missed += !ticket.get().deadline_met;
      fp.f64(ticket.get().latency.completion_time);
    }
  };
  for (const auto& ticket : sw_tickets) {
    tally(ticket);
  }
  for (const auto& ticket : ph_tickets) {
    tally(ticket);
  }
  rep.fingerprint = fp.value();
  if (done + failed + rejected != arrivals.size()) {
    rep.fail(rep.ops, "service left requests unaccounted for");
  }
  if (rejected + failed + missed > 0) {
    rep.fail(rejected + failed + missed, "service rejected, failed or late requests");
  }

  if (traced) {
    const auto c = record_engine_counters(rep.layer);
    std::vector<double> submit_us = ctx.tracer.durations("serve.submit");
    std::vector<double> advance_us = ctx.tracer.durations("serve.advance_to");
    for (double& v : submit_us) {
      v *= 1e6;
    }
    for (double& v : advance_us) {
      v *= 1e6;
    }
    rep.layer["serve.submit_us_p50"] = quantile(submit_us, 0.5);
    rep.layer["serve.submit_us_p99"] = quantile(submit_us, 0.99);
    rep.layer["serve.advance_us_p50"] = quantile(advance_us, 0.5);
    rep.layer["serve.advance_us_p99"] = quantile(advance_us, 0.99);
    rep.layer["serve.sw_batches"] = counter(c, "serve.sw_batches");
    rep.layer["serve.ph_batches"] = counter(c, "serve.ph_batches");
    rep.layer["serve.tasks_per_batch"] = st.batch_sizes.mean_size();
    rep.layer["serve.rejected"] = static_cast<double>(rejected);
    rep.layer["serve.deadline_missed"] = static_cast<double>(missed);
    const wsim::kernels::SwRunner sw_runner(service->config().sw_design);
    const wsim::kernels::PhRunner ph_runner(service->config().ph_design);
    rep.layer["simt.identity_us_sw"] = identity_us({&sw_runner.kernel()}, service->config().device);
    rep.layer["simt.identity_us_ph"] =
        identity_us(ph_kernel_set(ph_runner), service->config().device);
  }
  return rep;
}

using WorkloadFn = Rep (*)(Ctx&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"offline-pipeline", run_offline_pipeline},
      {"cluster-bursty", run_cluster_bursty},
      {"guard-sdc", run_guard_sdc},
      {"serve-deadline", run_serve_deadline},
  };
  return table;
}

// ---------------------------------------------------------------------------
// Rep loop.

/// Input seed of one variant. A run cycles its reps over kVariants inputs
/// drawn from --seed, so a run averages over several inputs while the same
/// --seed still gives the same inputs.
std::uint64_t variant_seed(std::uint64_t seed, int variant) {
  return seed + static_cast<std::uint64_t>(variant) * 0x9E3779B97F4A7C15ULL;
}

Rep run_rep(WorkloadFn fn, const Options& opt, int variant, bool traced, bool check_reference) {
  start_cold();
  Tracer tracer;
  tracer.enable(traced);
  wsim::obs::set_level(traced ? wsim::obs::Level::kMetrics : wsim::obs::Level::kOff);
  Ctx ctx{opt, variant_seed(opt.seed, variant), tracer, check_reference};
  Rep rep = fn(ctx);
  rep.variant = variant;
  if (traced) {
    // Host time per span name, in total and self (children subtracted).
    std::map<std::string, std::pair<double, double>> by_name;
    const auto self = self_times(tracer.spans());
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const SpanRec& s = tracer.spans()[i];
      by_name[s.name].first += s.end - s.start;
      by_name[s.name].second += self[i];
    }
    std::cout << "{\"spans\": {";
    bool first = true;
    for (const auto& [name, ts] : by_name) {
      std::cout << (first ? "" : ", ") << '"' << name << "\": {\"total_s\": " << ts.first
                << ", \"self_s\": " << ts.second << '}';
      first = false;
    }
    std::cout << "}}\n";
  }
  wsim::obs::set_level(wsim::obs::Level::kOff);
  return rep;
}

/// Median over variants of the per-variant median, so every input weighs
/// the same however many reps each one got.
template <typename Get>
double variant_median(const std::vector<Rep>& reps, Get get) {
  std::map<int, std::vector<double>> by_variant;
  for (const Rep& r : reps) {
    by_variant[r.variant].push_back(get(r));
  }
  std::vector<double> medians;
  for (const auto& [variant, values] : by_variant) {
    medians.push_back(median(values));
  }
  return median(medians);
}

void print_metric(std::ostream& os, bool& first, const std::string& name, double value,
                  const char* unit) {
  os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << std::setprecision(17)
     << value << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int run(const Options& opt) {
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end()) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const WorkloadFn fn = it->second;
  const int variants = opt.smoke ? 1 : 4;
  const std::size_t max_reps = 400;

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<int, std::uint64_t> fingerprints;  // per variant
  bool fingerprints_agree = true;
  const auto t_start = Clock::now();
  const auto account = [&](const Rep& rep, const char* kind, std::size_t index) {
    attempted += rep.ops;
    failed += rep.failed;
    const auto [known, fresh] = fingerprints.emplace(rep.variant, rep.fingerprint);
    fingerprints_agree &= fresh || known->second == rep.fingerprint;
    std::cout << "{\"rep\": " << index << ", \"kind\": \"" << kind
              << "\", \"variant\": " << rep.variant << ", \"ops\": " << rep.ops
              << ", \"failed\": " << rep.failed << ", \"setup_s\": " << rep.setup_s
              << ", \"wall_s\": " << rep.wall_s << ", \"peak_rss_mb\": " << peak_rss_mb()
              << ", \"fingerprint\": \"" << std::hex << rep.fingerprint << std::dec << "\"}"
              << std::endl;
    if (!rep.failure.empty()) {
      std::cerr << kind << " rep " << index << ": " << rep.failure << "\n";
    }
  };

  // Every variant runs at least once per kind. A traced run alternates
  // untraced and traced reps, so both see the same machine state.
  for (std::size_t i = 0; i < max_reps; ++i) {
    const std::size_t have = opt.trace ? std::min(plain.size(), traced.size()) : plain.size();
    if (since(t_start) >= opt.seconds && have >= static_cast<std::size_t>(variants)) {
      break;
    }
    const bool as_traced = opt.trace && (i % 2 == 1);
    std::vector<Rep>& bucket = as_traced ? traced : plain;
    const int variant = static_cast<int>(bucket.size() % static_cast<std::size_t>(variants));
    const bool first_of_variant = bucket.size() < static_cast<std::size_t>(variants);
    bucket.push_back(run_rep(fn, opt, variant, as_traced, first_of_variant));
    account(bucket.back(), as_traced ? "traced" : "timed", bucket.size() - 1);
  }
  if (!fingerprints_agree) {
    std::cerr << "fingerprints differ between reps of one input\n";
    failed = attempted;
  }
  Fnv run_print;
  for (const auto& [variant, print] : fingerprints) {
    run_print.u64(print);
  }
  std::cout << "{\"fingerprint\": \"" << std::hex << run_print.value() << std::dec << "\"}\n";

  const double wall_med = variant_median(plain, [](const Rep& r) { return r.wall_s; });
  std::map<std::string, double> values;
  if (!opt.trace) {
    values["wall_s"] = wall_med;
    values["setup_s"] = variant_median(plain, [](const Rep& r) { return r.setup_s; });
    values["sim_mcells_per_host_s"] =
        variant_median(plain, [](const Rep& r) { return r.cells / r.wall_s / 1e6; });
    values["peak_rss_mb"] = peak_rss_mb();
    values["sim_gcups"] = variant_median(plain, [](const Rep& r) { return r.sim_gcups; });
    values["sim_p99_ms"] = variant_median(plain, [](const Rep& r) { return r.sim_p99_ms; });
    values["sim_device_s"] = variant_median(plain, [](const Rep& r) { return r.sim_device_s; });
    // Quartiles and sample counts of the host-time figures, for the log.
    std::cout << "{\"summary\": {";
    bool first = true;
    for (const auto& [name, get] :
         std::vector<std::pair<const char*, double (*)(const Rep&)>>{
             {"wall_s", [](const Rep& r) { return r.wall_s; }},
             {"setup_s", [](const Rep& r) { return r.setup_s; }}}) {
      std::vector<double> v;
      for (const Rep& r : plain) {
        v.push_back(get(r));
      }
      std::cout << (first ? "" : ", ") << '"' << name << "\": {\"q1\": " << quantile(v, 0.25)
                << ", \"median\": " << quantile(v, 0.5) << ", \"q3\": " << quantile(v, 0.75)
                << ", \"n\": " << v.size() << '}';
      first = false;
    }
    std::cout << "}}\n";
  } else {
    for (const MetricDef& m : kPerLayer) {
      values[m.name] = variant_median(traced, [&m](const Rep& r) {
        const auto f = r.layer.find(m.name);
        return f == r.layer.end() ? 0.0 : f->second;
      });
    }
    const double traced_wall = variant_median(traced, [](const Rep& r) { return r.wall_s; });
    const double launches = values["engine.launches"];
    values["bench.trace_overhead"] = traced_wall / wall_med - 1.0;
    values["engine.blocks_per_launch"] =
        launches > 0 ? values["engine.blocks_executed"] / launches : 0.0;
    values["engine.host_us_per_launch"] = launches > 0 ? wall_med * 1e6 / launches : 0.0;
    // Estimate: per-call identity cost (mean of the SW and PairHMM kernels)
    // times the launch count, over the untraced timed phase.
    values["simt.identity_share_est"] =
        0.5 * (values["simt.identity_us_sw"] + values["simt.identity_us_ph"]) * 1e-6 * launches /
        wall_med;
    values["error_rate"] =
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  }

  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    print_metric(out, first, m.name, values[m.name], m.unit);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test of the span arithmetic on a synthetic tree.

int selftest() {
  // root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: cover
  // [1, 6] = 5) and c [8, 9]; a has child d [2, 3]. Expected self times:
  // root 10 - 6 = 4, a 3 - 1 = 2, b 3, c 1, d 1.
  std::vector<SpanRec> spans = {
      {"root", 0, 10, -1, 0}, {"a", 1, 4, 0, 1}, {"b", 3, 6, 0, 2},
      {"c", 8, 9, 0, 3},      {"d", 2, 3, 1, 4},
  };
  const std::vector<double> want = {4, 2, 3, 1, 1};
  const auto got = self_times(spans);
  int bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::abs(got[i] - want[i]) > 1e-12) {
      std::cerr << "self time of " << spans[i].name << ": got " << got[i] << ", want "
                << want[i] << "\n";
      ++bad;
    }
  }
  // A recorded tree: nested scopes must give non-negative self times that
  // sum to the root's duration.
  Tracer tracer;
  tracer.enable(true);
  {
    Scope root(tracer, "root");
    for (int i = 0; i < 3; ++i) {
      Scope child(tracer, "child", static_cast<std::uint64_t>(i));
      Scope leaf(tracer, "leaf");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto self = self_times(tracer.spans());
  double sum = 0.0;
  for (const double s : self) {
    sum += s;
    bad += s < 0.0;
  }
  const SpanRec& root = tracer.spans().front();
  if (std::abs(sum - (root.end - root.start)) > 1e-9) {
    std::cerr << "self times do not sum to the root span\n";
    ++bad;
  }
  std::cout << "{\"end_to_end\": [";
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    std::cout << (i ? ", " : "") << "[\"" << kEndToEnd[i].name << "\", \"" << kEndToEnd[i].unit
              << "\"]";
  }
  std::cout << "], \"per_layer\": [";
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
    std::cout << (i ? ", " : "") << "[\"" << kPerLayer[i].name << "\", \"" << kPerLayer[i].unit
              << "\"]";
  }
  std::cout << "], \"selftest_failures\": " << bad << "}\n";
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() == "1";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--selftest") {
        self = true;
      } else {
        std::cerr << "unknown argument " << arg << "\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "bad argument: " << e.what() << "\n";
      return 2;
    }
  }
  if (self) {
    return selftest();
  }
  // The program's own defaults for interpreter and SIMD tier are what is
  // measured. The shared engine runs on one executor. With more, the
  // ThreadPool completion race (ROADMAP item 1) can strand a worker on a
  // destroyed Job's mutex: the rest of the run loses that worker's share
  // (about +25% wall_s at four executors) and the process hangs in the
  // pool's destructor at exit. That makes host time depend on when the race
  // fires rather than on the code under test. Once the race is fixed, more
  // executors can be measured; that changes the baseline.
  unsetenv("WSIM_INTERP");
  unsetenv("WSIM_VECTOR_ISA");
  setenv("WSIM_THREADS", "1", 1);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 3;
  }
}
