#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsim::simt {

/// GPU micro-architecture generation. The paper contrasts Kepler (K40)
/// against Maxwell (K1200, Titan X); instruction latencies differ per
/// generation (paper Section II-B / Figure 3).
enum class Arch {
  kKepler,
  kMaxwell,
};

std::string_view to_string(Arch arch) noexcept;

/// Dependent-instruction latencies in cycles, per architecture. Values for
/// Maxwell are seeded from the paper's own measurements (shared memory
/// ~21 cy, __syncthreads ~57 cy, shfl/up/down ~9 cy derived from the
/// paper's 183- and 22-cycle critical-path estimates, shfl_xor slower than
/// the other variants); Kepler values follow the paper's qualitative
/// findings (everything slower, shfl_xor the *fastest* variant) scaled to
/// published microbenchmark studies of GK110.
struct LatencyTable {
  int reg_access = 1;        ///< paper convention: direct register access = 1
  int ialu = 6;              ///< integer add/logic/compare/select
  int imul = 13;             ///< integer multiply
  int falu = 6;              ///< f32 add/mul/fma/max
  int shfl = 9;              ///< __shfl (any-to-any)
  int shfl_up = 9;           ///< __shfl_up
  int shfl_down = 9;         ///< __shfl_down
  int shfl_xor = 12;         ///< __shfl_xor
  int smem_load = 21;        ///< shared-memory load
  int smem_store = 21;       ///< shared-memory store
  int bank_conflict = 2;     ///< extra cycles per additional conflicting transaction
  int sync_barrier = 57;     ///< __syncthreads
  int gmem_load = 350;        ///< global-memory load, cold (DRAM)
  int gmem_load_cached = 80;  ///< load hitting a 128 B segment this block already touched
  int gmem_store = 40;        ///< global-memory store (fire-and-forget commit)
  int issue_interval = 1;    ///< cycles between issue groups from one warp
  /// Independent instructions one warp may issue in the same cycle
  /// (Kepler/Maxwell schedulers dual-issue); dependent instructions still
  /// pay full latency.
  int issues_per_cycle = 2;

  bool operator==(const LatencyTable&) const = default;
};

/// Static description of a simulated device: resource limits drive the
/// occupancy calculator (paper Eq. 8), clocks drive CUPS conversion, and
/// the latency table drives the warp interpreter.
struct DeviceSpec {
  std::string name;
  Arch arch = Arch::kMaxwell;
  int sm_count = 1;
  int cores_per_sm = 128;
  double clock_ghz = 1.0;
  int warp_size = 32;
  int max_threads_per_sm = 2048;
  int max_warps_per_sm = 64;
  int max_blocks_per_sm = 32;
  int registers_per_sm = 65536;
  int max_registers_per_thread = 255;
  int register_alloc_granularity = 256;  ///< registers per warp allocation unit
  int shared_mem_per_sm = 65536;         ///< bytes
  int shared_mem_per_block = 49152;      ///< bytes
  int shared_mem_alloc_granularity = 256;  ///< bytes
  int smem_banks = 32;
  int schedulers_per_sm = 4;  ///< warp instructions issued per cycle per SM
  double global_mem_bw_gbps = 100.0;
  double pcie_bw_gbps = 11.0;
  double pcie_latency_us = 8.0;
  double kernel_launch_overhead_us = 6.0;
  LatencyTable lat;

  /// Peak single-precision throughput: 2 FLOP (FMA) per core per cycle.
  double peak_gflops() const noexcept;

  /// Aggregate shared-memory bandwidth: every SM serves one 4-byte word
  /// per bank per cycle (Table I's smem BW column).
  double shared_mem_bw_gbps() const noexcept;

  /// Latency for one shuffle variant; see isa.hpp for variant meaning.
  int shuffle_latency(int variant) const;

  bool operator==(const DeviceSpec&) const = default;
};

/// Nvidia Tesla K40 (Kepler GK110B) — used for Figure 3's architecture
/// comparison.
DeviceSpec make_k40();

/// Nvidia Quadro K1200 (Maxwell GM107) — the paper's low-power device.
DeviceSpec make_k1200();

/// Nvidia GeForce GTX Titan X (Maxwell GM200) — the paper's high-end
/// device.
DeviceSpec make_titan_x();

/// All three devices the paper evaluates, in paper order.
std::vector<DeviceSpec> all_devices();

/// Lookup by (case-sensitive) name: "K40", "K1200", "Titan X". Throws
/// util::CheckError on unknown names.
DeviceSpec device_by_name(std::string_view name);

}  // namespace wsim::simt
