#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>

#include "wsim/simt/device.hpp"
#include "wsim/simt/isa.hpp"
#include "wsim/simt/memory.hpp"

namespace wsim::simt {

/// Coalesced byte intervals of GlobalMemory written by one block. The
/// ExecutionEngine's debug write-overlap checker records one per executed
/// block and cross-checks them: the interpreter's "sequential functional
/// execution is race-free for correct kernels" contract requires distinct
/// blocks to write disjoint ranges, and this makes the assumption
/// verifiable instead of trusted.
class GmemWriteSet {
 public:
  /// Records [addr, addr + bytes); adjacent/overlapping spans coalesce.
  void add(std::int64_t addr, std::size_t bytes);

  bool empty() const noexcept { return spans_.empty(); }

  /// begin -> end byte offsets, disjoint and sorted.
  const std::map<std::int64_t, std::int64_t>& spans() const noexcept {
    return spans_;
  }

  /// True when any byte is covered by both sets.
  bool overlaps(const GmemWriteSet& other) const noexcept;

 private:
  std::map<std::int64_t, std::int64_t> spans_;
};

/// Execution record of one thread block: functional side effects land in
/// the GlobalMemory arena; the numbers here feed the SM scheduler and the
/// performance model.
struct BlockResult {
  long long cycles = 0;                   ///< block makespan (max over warps)
  std::uint64_t instructions = 0;         ///< warp-level instructions issued
  std::uint64_t smem_transactions = 0;    ///< shared-memory transactions incl. bank-conflict replays
  std::uint64_t gmem_transactions = 0;    ///< 128-byte global segments touched
  std::uint64_t barriers = 0;             ///< __syncthreads executed (per block)
  std::uint64_t sdc_flips = 0;            ///< injected-and-activated bit flips (simt::SdcPlan)
  std::array<std::uint64_t, kNumOps> op_counts{};  ///< warp-level issue count per opcode

  std::uint64_t count(Op op) const noexcept {
    return op_counts[static_cast<std::size_t>(op)];
  }
  std::uint64_t shuffle_count() const noexcept {
    return count(Op::kShfl) + count(Op::kShflUp) + count(Op::kShflDown) +
           count(Op::kShflXor);
  }
  std::uint64_t smem_instr_count() const noexcept {
    return count(Op::kLds) + count(Op::kSts);
  }
};

/// Executes one block of `kernel` on `device`, with the given scalar
/// launch parameters (block-uniform; missing parameters read as zero).
///
/// Timing model: each warp runs an in-order pipeline with a per-register
/// scoreboard — an instruction issues when its sources are ready, completes
/// after the architecture's dependent latency, and consecutive issues from
/// the same warp are one `issue_interval` apart. Warps execute
/// independently between barriers (sequential functional execution is
/// race-free for correct kernels); at a `kBar` every warp's clock joins at
/// the slowest arrival plus the barrier latency. Shared-memory bank
/// conflicts serialize transactions and add `bank_conflict` cycles per
/// replay.
///
/// Throws util::CheckError on malformed kernels, out-of-bounds memory
/// accesses, or barrier divergence.
///
/// When `trace` is non-null, every executed instruction is recorded with
/// its issue/completion cycles (see simt::Trace) — expensive for big
/// kernels, intended for debugging.
///
/// When `writes` is non-null, every global-memory store's byte range is
/// recorded (for the engine's write-overlap checker).
BlockResult run_block(const Kernel& kernel, const DeviceSpec& device,
                      GlobalMemory& gmem, std::span<const std::uint64_t> scalar_args,
                      class Trace* trace = nullptr, GmemWriteSet* writes = nullptr);

struct SdcPlan;         // simt/sdc.hpp
struct DecodedProgram;  // simt/decode.hpp

/// Which interpreter executes a block / launch.
///
/// kVector, the default, runs the lane-vector engine: all 32 lanes of an
/// unpredicated instruction in a handful of SIMD ops (AVX-512/AVX2/generic
/// variants picked once at runtime, overridable via WSIM_VECTOR_ISA), with
/// a masked per-lane fallback for divergent warps; SDC-injected blocks run
/// on kFast wholesale. kFast runs the predecoded per-lane fast path
/// (per-(kernel, device) DecodedProgram from the shared cache, handler
/// dispatch, superinstruction fusion). kLegacy runs the original switch
/// interpreter. All three are bit-identical in functional outputs,
/// BlockResult counters, and SDC write-event numbering; kFast and kLegacy
/// are kept for A/B comparison and as differential-testing oracles.
/// kDefault defers to the WSIM_INTERP environment variable ("fast" selects
/// kFast, "legacy" kLegacy; unset or anything else kVector).
enum class InterpPath : std::uint8_t { kDefault, kFast, kLegacy, kVector };

/// Resolves kDefault against WSIM_INTERP; returns kFast, kLegacy, or
/// kVector.
InterpPath resolve_interp_path(InterpPath requested) noexcept;

/// Name of the SIMD tier the lane-vector engine resolved to for this
/// process: "avx512", "avx2", or "generic". Detection runs once (CPU
/// features clamped by the WSIM_VECTOR_ISA environment variable: a
/// requested tier the CPU lacks falls back to the detected one; requesting
/// a lower tier — e.g. WSIM_VECTOR_ISA=generic on an AVX-512 machine —
/// always works, which is how the no-AVX CI job pins the fallback path).
const char* vector_isa_name() noexcept;

/// Extended per-block execution knobs (the engine's dispatch path).
struct BlockRunOptions {
  class Trace* trace = nullptr;
  GmemWriteSet* writes = nullptr;
  /// Deterministic bit-flip injection; null disables (see simt/sdc.hpp).
  /// Flips land on vector-register writes, shared-memory stores, and
  /// shuffle payloads; loads and scalar (control-flow) registers stay
  /// clean, so injection perturbs values, never loop trip counts.
  const SdcPlan* sdc = nullptr;
  /// Stream id identifying (device, launch, block) for injection draws
  /// (simt::sdc_stream).
  std::uint64_t sdc_stream = 0;
  /// Watchdog: a block whose makespan exceeds this many cycles throws
  /// simt::LaunchTimeout (see simt/watchdog.hpp). 0 = unlimited. A block
  /// finishing at exactly the budget completes normally. Barrier
  /// deadlocks — warps done while others wait at __syncthreads, or warps
  /// waiting at different barriers — throw LaunchTimeout regardless of
  /// budget.
  long long max_cycles = 0;
  /// Interpreter selection (see InterpPath).
  InterpPath interp = InterpPath::kDefault;
  /// Fast path only: predecoded program for (kernel, device), usually
  /// resolved once per launch by the ExecutionEngine. When null the block
  /// fetches it from simt::shared_decoded_cache() itself. Must match the
  /// (kernel, device) passed to run_block.
  const DecodedProgram* decoded = nullptr;
};

/// Like the overload above, with injection and watchdog knobs.
BlockResult run_block(const Kernel& kernel, const DeviceSpec& device,
                      GlobalMemory& gmem, std::span<const std::uint64_t> scalar_args,
                      const BlockRunOptions& options);

/// The predecoded fast path: executes one block of `program` (obtained
/// from simt::decode_program / the shared cache) with the same timing
/// model, functional semantics, SDC event numbering, and error surface as
/// the legacy interpreter. `options.interp`/`options.decoded` are ignored
/// (the caller already resolved them).
BlockResult run_block_fast(const DecodedProgram& program, const DeviceSpec& device,
                           GlobalMemory& gmem,
                           std::span<const std::uint64_t> scalar_args,
                           const BlockRunOptions& options);

/// The lane-vector engine (vectorpath.cpp): same contract as
/// run_block_fast, executing unpredicated instructions 32 lanes at a time
/// with the SIMD tier reported by vector_isa_name(). Blocks with SDC
/// injection enabled delegate to run_block_fast wholesale (injection
/// numbers per-lane write events sequentially, which pins the scalar
/// execution order), so injection parity is inherited rather than
/// re-implemented.
BlockResult run_block_vector(const DecodedProgram& program, const DeviceSpec& device,
                             GlobalMemory& gmem,
                             std::span<const std::uint64_t> scalar_args,
                             const BlockRunOptions& options);

}  // namespace wsim::simt
