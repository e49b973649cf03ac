#include "wsim/simt/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/sdc.hpp"
#include "wsim/simt/trace.hpp"
#include "wsim/util/check.hpp"

namespace wsim::simt {

namespace {

/// splitmix64 finalizer: spreads composite cache keys across shards and
/// hash buckets.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int threads_from_env() {
  const char* env = std::getenv("WSIM_THREADS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      return parsed;
    }
  }
  return 0;  // one per hardware thread
}

}  // namespace

std::optional<BlockCost> ShardedBlockCostCache::find(std::uint64_t key) const {
  const Shard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return std::nullopt;
  }
  return it->second;
}

void ShardedBlockCostCache::insert(std::uint64_t key, const BlockCost& cost) {
  Shard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map.emplace(key, cost);
}

std::size_t ShardedBlockCostCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void ShardedBlockCostCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
}

ExecutionEngine::ExecutionEngine(EngineOptions options)
    : options_(options), pool_(options.threads) {}

LaunchResult ExecutionEngine::launch(const Kernel& kernel, const DeviceSpec& device,
                                     GlobalMemory& gmem,
                                     std::span<const BlockLaunch> blocks,
                                     const LaunchOptions& options) {
  util::require(!blocks.empty(), "launch: grid must contain at least one block");
  util::require(!(options.cost_cache != nullptr && options.use_engine_cache),
                "launch: cost_cache and use_engine_cache are mutually exclusive");
  util::require(!options.sdc.enabled() || options.mode == ExecMode::kFull,
                "launch: SDC injection requires ExecMode::kFull — injecting into a "
                "shape-cached launch would poison the shared cost cache");

  LaunchResult result;
  result.occupancy = compute_occupancy(device, kernel);

  // Resolve the interpreter path once per launch; on the predecoded paths
  // (fast and vector) the (kernel, device) pair is predecoded here —
  // through the process-wide cache — and every block below reuses the
  // same DecodedProgram.
  const InterpPath path = resolve_interp_path(options.interp);
  std::shared_ptr<const DecodedProgram> decoded;
  if (path == InterpPath::kFast || path == InterpPath::kVector) {
    static obs::Counter c_decode_misses("engine.decode_misses");
    if (obs::tracing_enabled() || obs::metrics_enabled()) {
      const std::size_t before = shared_decoded_cache().size();
      decoded = shared_decoded_cache().get(kernel, device);
      if (shared_decoded_cache().size() != before) {
        c_decode_misses.add();
        obs::instant(obs::sim_time(), obs::Layer::kEngine, "engine.decode_miss");
      }
    } else {
      decoded = shared_decoded_cache().get(kernel, device);
    }
  }

  const std::size_t n = blocks.size();
  const bool cached_mode = options.mode == ExecMode::kCachedByShape;
  BlockCostCache local_cache;
  BlockCostCache* plain_cache = nullptr;
  std::uint64_t identity = 0;
  if (cached_mode) {
    if (options.use_engine_cache) {
      // The decoded program already carries the content hash; only the
      // legacy path recomputes it. The interpreter path salts the key:
      // the engines are bit-identical by contract, but letting a cached
      // fast-path cost stand in for a vector-path execution would mask
      // any divergence from differential A/B runs.
      identity = decoded != nullptr ? decoded->identity
                                    : kernel_identity(kernel, device);
      identity = mix(identity ^ (static_cast<std::uint64_t>(path) + 1));
    } else {
      plain_cache = options.cost_cache != nullptr ? options.cost_cache : &local_cache;
    }
  }
  const auto engine_key = [&](std::uint64_t shape) {
    return mix(identity ^ mix(shape));
  };

  // --- plan (host thread, grid order): decide which blocks execute -------
  // kFull: all of them. kCachedByShape: the first block of each shape not
  // already memoized — so exactly one worker executes each distinct shape
  // and the choice is identical to what the sequential loop made.
  std::vector<std::size_t> execute;  // ascending block indices
  std::vector<std::ptrdiff_t> exec_slot(n, -1);
  std::unordered_map<std::uint64_t, BlockCost> preseeded;
  std::unordered_map<std::uint64_t, std::size_t> shape_executor;
  if (!cached_mode) {
    execute.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      execute[i] = i;
      exec_slot[i] = static_cast<std::ptrdiff_t>(i);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = blocks[i].shape_key;
      if (preseeded.count(key) != 0 || shape_executor.count(key) != 0) {
        continue;
      }
      std::optional<BlockCost> hit;
      if (plain_cache != nullptr) {
        const auto it = plain_cache->find(key);
        if (it != plain_cache->end()) {
          hit = it->second;
        }
      } else {
        hit = cost_cache_.find(engine_key(key));
      }
      if (hit.has_value()) {
        preseeded.emplace(key, *hit);
      } else {
        shape_executor.emplace(key, i);
        exec_slot[i] = static_cast<std::ptrdiff_t>(execute.size());
        execute.push_back(i);
      }
    }
  }

  // --- execute (worker pool): blocks are independent, results land in ----
  // slot-indexed vectors so aggregation below sees grid order.
  std::vector<BlockResult> executed(execute.size());
  std::vector<GmemWriteSet> writes(
      options_.check_write_overlap ? execute.size() : 0);
  const bool inject = options.sdc.enabled();
  const std::uint64_t device_hash = inject ? sdc_device_hash(device.name) : 0;
  pool_.parallel_for(execute.size(), [&](std::size_t slot) {
    const std::size_t i = execute[slot];
    BlockRunOptions run_options;
    run_options.trace = slot == 0 ? options.trace_representative : nullptr;
    run_options.writes = options_.check_write_overlap ? &writes[slot] : nullptr;
    run_options.sdc = inject ? &options.sdc : nullptr;
    // Stream keyed by the *grid* index, so a block's flips don't depend on
    // which other blocks the cache happened to skip.
    run_options.sdc_stream =
        inject ? sdc_stream(device_hash, options.sdc_launch_id, i) : 0;
    run_options.max_cycles = options.max_block_cycles;
    run_options.interp = path;
    run_options.decoded = decoded.get();
    executed[slot] = run_block(kernel, device, gmem, blocks[i].args, run_options);
  });

  if (options_.check_write_overlap) {
    check_overlaps(kernel, execute, writes);
  }

  // --- aggregate (host thread, grid order): bit-identical to sequential --
  if (!execute.empty()) {
    result.representative = executed[0];
  }
  result.blocks_executed = execute.size();
  std::vector<BlockCost> costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (exec_slot[i] >= 0) {
      const BlockResult& res = executed[static_cast<std::size_t>(exec_slot[i])];
      BlockCost& cost = costs[i];
      cost.latency_cycles = res.cycles;
      cost.issue_slots = res.instructions;
      cost.smem_transactions = res.smem_transactions;
      result.instructions += res.instructions;
      result.smem_transactions += res.smem_transactions;
      result.sdc_flips += res.sdc_flips;
    } else {
      // Reused shape: cost from a pre-launch cache hit or from this
      // launch's executor (always at a lower grid index).
      const std::uint64_t key = blocks[i].shape_key;
      const auto pre = preseeded.find(key);
      const BlockCost& cost =
          pre != preseeded.end() ? pre->second : costs[shape_executor.at(key)];
      costs[i] = cost;
      // The skipped block would have issued the same instruction mix.
      result.instructions += cost.issue_slots;
      result.smem_transactions += cost.smem_transactions;
    }
  }

  // --- commit fresh costs (host thread, grid order) ----------------------
  for (const std::size_t i : execute) {
    if (!cached_mode) {
      break;
    }
    const std::uint64_t key = blocks[i].shape_key;
    const BlockCost& cost = costs[i];
    if (plain_cache != nullptr) {
      plain_cache->emplace(key, cost);
    } else {
      cost_cache_.insert(engine_key(key), cost);
    }
  }

  result.timing = schedule_blocks(device, result.occupancy, costs);
  result.kernel_seconds = result.timing.seconds;

  const double pcie_bytes_per_second = device.pcie_bw_gbps * 1e9;
  if (options.transfer.h2d_bytes > 0) {
    result.h2d_seconds =
        static_cast<double>(options.transfer.h2d_bytes) / pcie_bytes_per_second +
        device.pcie_latency_us * 1e-6;
  }
  if (options.transfer.d2h_bytes > 0) {
    result.d2h_seconds =
        static_cast<double>(options.transfer.d2h_bytes) / pcie_bytes_per_second +
        device.pcie_latency_us * 1e-6;
  }
  result.transfer_seconds = result.h2d_seconds + result.d2h_seconds;
  result.overhead_seconds = device.kernel_launch_overhead_us * 1e-6;
  result.transfers_overlapped = options.overlap_transfers;

  static obs::Counter c_launches("engine.launches");
  static obs::Counter c_blocks("engine.blocks_executed");
  static obs::Histogram h_kernel_seconds("engine.kernel_seconds");
  c_launches.add();
  c_blocks.add(result.blocks_executed);
  h_kernel_seconds.observe(result.kernel_seconds);
  obs::instant(obs::sim_time(), obs::Layer::kEngine, "engine.launch", -1, 0,
               static_cast<double>(result.blocks_executed),
               result.kernel_seconds);
  return result;
}

void ExecutionEngine::check_overlaps(const Kernel& kernel,
                                     const std::vector<std::size_t>& execute,
                                     const std::vector<GmemWriteSet>& writes) {
  // Sweep all written spans in address order: any two spans from different
  // blocks that intersect violate the race-free contract.
  struct Span {
    std::int64_t begin;
    std::int64_t end;
    std::size_t block;
  };
  std::vector<Span> spans;
  for (std::size_t slot = 0; slot < writes.size(); ++slot) {
    for (const auto& [begin, end] : writes[slot].spans()) {
      spans.push_back({begin, end, execute[slot]});
    }
  }
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    return x.begin != y.begin ? x.begin < y.begin : x.block < y.block;
  });
  for (std::size_t s = 1; s < spans.size(); ++s) {
    const Span& prev = spans[s - 1];
    const Span& cur = spans[s];
    if (cur.begin < prev.end && cur.block != prev.block) {
      throw util::CheckError(
          "write overlap in kernel '" + kernel.name() + "': blocks " +
          std::to_string(prev.block) + " and " + std::to_string(cur.block) +
          " both wrote global memory bytes [" +
          std::to_string(std::max(prev.begin, cur.begin)) + ", " +
          std::to_string(std::min(prev.end, cur.end)) +
          ") — blocks of one launch must write disjoint ranges");
    }
  }
}

ExecutionEngine& shared_engine() {
  static ExecutionEngine engine(EngineOptions{.threads = threads_from_env()});
  return engine;
}

}  // namespace wsim::simt
