#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "wsim/simt/device.hpp"
#include "wsim/simt/isa.hpp"

namespace wsim::simt {

/// Content hash identifying a (kernel, device) pair: kernel name, shape,
/// every instruction, the device name, and the device's latency table.
/// Used to key both the engine's block-cost cache and the decoded-program
/// cache, so neither can alias entries across kernels or architectures.
/// The kernel half is hashed once, on first use, and memoized on the
/// Kernel (whose content is immutable, see isa.hpp); every call after that
/// hashes only the device half, so a launch costs O(1) here instead of
/// O(instructions).
std::uint64_t kernel_identity(const Kernel& kernel, const DeviceSpec& device);

/// Dispatch class of a decoded instruction: which fast-path handler
/// executes it. Decoding collapses the ISA's per-opcode semantics into a
/// small set of execution shapes so the interpreter's hot loop dispatches
/// once per instruction instead of switching per lane.
enum class ExecClass : std::uint8_t {
  kSimple,   ///< per-lane pure op (moves, ALU, compare, select) — see LaneOp
  kScalar,   ///< block-uniform scalar op (kSMov..kSMax), one execution per warp
  kShuffle,  ///< cross-lane shuffle (4 variants)
  kLds,
  kSts,
  kLdg,
  kStg,
  kBar,
  kLoop,
  kEndLoop,
};

/// Per-lane pure operation of an ExecClass::kSimple instruction, resolved
/// at decode time (kSetp splits into its two data types; the comparison
/// predicate stays in DecodedInstr::cmp).
enum class LaneOp : std::uint8_t {
  kNop,
  kMov,
  kTid,
  kLaneId,
  kWarpId,
  kFAdd,
  kFSub,
  kFMul,
  kFFma,
  kFMax,
  kFMin,
  kIAdd,
  kISub,
  kIMul,
  kIMax,
  kIMin,
  kIAnd,
  kIOr,
  kIXor,
  kShl,
  kShr,
  kSetpF32,
  kSetpI64,
  kSelp,
  kCount,
};

constexpr std::size_t kNumLaneOps = static_cast<std::size_t>(LaneOp::kCount);

/// Superinstruction kind of a fused group leader. A fused group is a run
/// of `fuse_len` consecutive instructions executed by one handler call:
/// the constituents keep their individual issue slots, latencies, counter
/// increments, and register writes (the timing model and BlockResult are
/// bit-identical), but share one dispatch, one active-mask computation,
/// and one pass over the lanes.
enum class FusedKind : std::uint8_t {
  kNone,
  kSimplePair,   ///< two kSimple ops, value-forwarded through one lane loop
  kShflAlu,      ///< shuffle feeding a kSimple consumer (wavefront update)
  kShflAluMov,   ///< shuffle + consumer + kMov (the builder's assign idiom)
  kSmemPair,     ///< two shared-memory ops under one predicate mask
};

/// The simple-op pairs the fast path has a specialized fused handler for.
/// Decode only marks FusedKind::kSimplePair when this holds, so the
/// matcher and the handler table stay in sync. The set covers the idioms
/// the SW/NW/PairHMM builders emit: fadd/fmul feeding fma-style chains,
/// compare→select (kSetp→kSelp) wavefront updates, and op→kMov copies
/// from KernelBuilder::assign.
constexpr bool fusible_simple_pair(LaneOp a, LaneOp b) noexcept {
  const bool a_alu = a == LaneOp::kFAdd || a == LaneOp::kFSub ||
                     a == LaneOp::kFMul || a == LaneOp::kFFma ||
                     a == LaneOp::kFMax || a == LaneOp::kFMin ||
                     a == LaneOp::kIAdd || a == LaneOp::kISub ||
                     a == LaneOp::kIMul || a == LaneOp::kIMax ||
                     a == LaneOp::kIMin || a == LaneOp::kIAnd ||
                     a == LaneOp::kIOr || a == LaneOp::kIXor ||
                     a == LaneOp::kSelp;
  if (b == LaneOp::kMov) {
    return a_alu || a == LaneOp::kMov;
  }
  if (b == LaneOp::kSelp) {
    return a == LaneOp::kSetpF32 || a == LaneOp::kSetpI64;
  }
  const bool b_f32 = b == LaneOp::kFAdd || b == LaneOp::kFMul ||
                     b == LaneOp::kFFma || b == LaneOp::kFMax ||
                     b == LaneOp::kFMin;
  if (a == LaneOp::kFAdd || a == LaneOp::kFMul || a == LaneOp::kFFma) {
    return b_f32;
  }
  if (a == LaneOp::kIAdd) {
    return b == LaneOp::kIAdd || b == LaneOp::kIMax || b == LaneOp::kIMin;
  }
  return false;
}

/// Simple ops a fused shuffle group may feed (the shfl→max/min/mul/add
/// wavefront updates of the SW/PairHMM register designs).
constexpr bool fusible_shfl_consumer(LaneOp op) noexcept {
  return op == LaneOp::kFMul || op == LaneOp::kFAdd || op == LaneOp::kFMax ||
         op == LaneOp::kFMin || op == LaneOp::kIMax || op == LaneOp::kIMin ||
         op == LaneOp::kIAdd;
}

/// One predecoded instruction: operand kinds resolved, scoreboard inputs
/// (which vector/scalar ready cells gate issue) flattened, the dependent
/// latency baked in from the device's latency table, and structured
/// control flow pre-matched. Mirrors Kernel::code one-to-one so program
/// counters and loop targets carry over unchanged.
struct DecodedInstr {
  Op op = Op::kNop;            ///< original opcode (counters, trace)
  ExecClass cls = ExecClass::kSimple;
  LaneOp lane = LaneOp::kNop;  ///< kSimple payload
  Cmp cmp = Cmp::kLt;
  MemWidth width = MemWidth::kB4;
  std::int16_t dst = -1;
  bool scalar_dst = false;     ///< dst indexes the scalar register file
  std::int16_t pred = -1;
  bool pred_negate = false;
  FusedKind fused = FusedKind::kNone;  ///< set on group leaders only
  std::uint8_t fuse_len = 1;           ///< instructions in the fused group
  /// Lane-vectorizable: an unpredicated kSimple (lane != kNop) or
  /// unpredicated kShuffle, i.e. the vector engine computes all 32 lanes
  /// in SIMD form instead of a per-lane loop.
  bool vec = false;
  /// Masked-vectorizable: a predicated kSimple whose lane op is pure, so
  /// the vector engine computes all 32 lanes in SIMD form and blends the
  /// result into the destination under the predicate mask (inactive lanes
  /// keep their old bits, exactly like the per-lane fallback).
  bool vec_masked = false;
  /// kLoop leaders only: index into DecodedProgram::accel_loops when the
  /// loop body is eligible for the vector engine's steady-state
  /// fast-forward; -1 otherwise.
  std::int16_t accel = -1;
  std::int32_t latency = 0;    ///< baked base latency (kLdg resolves per access)
  std::uint32_t match = 0;     ///< matching kLoop/kEndLoop pc
  Operand a;
  Operand b;
  Operand c;
  /// Vector registers whose ready cycle gates issue: a, b, c, pred
  /// (-1 = not a vector register).
  std::array<std::int16_t, 4> rv{{-1, -1, -1, -1}};
  /// Scalar registers gating issue: a, b, c (-1 = not a scalar register).
  std::array<std::int16_t, 3> rs{{-1, -1, -1}};
};

/// A kernel compiled for one device architecture: validated once, operand
/// and latency resolution done once, superinstructions fused once — then
/// reused by every block, launch, engine worker, fleet worker, and serving
/// loop that executes this (kernel, device) pair.
struct DecodedProgram {
  /// Register-usage summary of one loop whose body the vector engine may
  /// fast-forward (see DecodedInstr::accel and vectorpath.cpp). A loop is
  /// eligible when its body contains only kSimple/kShuffle/kScalar/kLds/
  /// kSts instructions — plus kBar when the program has a single warp, in
  /// which case the barrier degenerates to a fixed cursor bump (no nested
  /// loops or global memory): for
  /// such a body the per-iteration timing profile is a pure function of
  /// the warp's timing state relative to its own cursor plus the
  /// shared-memory replay cycles, so once two consecutive iterations
  /// produce identical relative profiles, the remaining iterations can run
  /// value-only with the timing deltas replayed — bit-identically.
  struct AccelLoop {
    std::uint32_t begin = 0;  ///< pc of the kLoop instruction
    /// Vector/scalar registers written by a body instruction (finish()
    /// rewrites their ready cells every iteration, so the fast-forward
    /// shifts them by the steady per-iteration delta).
    std::vector<std::int16_t> vregs_written;
    std::vector<std::int16_t> sregs_written;
    /// Registers the body reads but never writes: their ready cells stay
    /// frozen, so they only gate issue while still in flight (the steady
    /// check clamps them at "ready in the past").
    std::vector<std::int16_t> vregs_read;
    std::vector<std::int16_t> sregs_read;
    /// Per body instruction (pc - begin - 1): true when the instruction's
    /// predicate register is not written inside the body, i.e. the active
    /// mask is loop-invariant during the fast-forwarded iterations.
    std::vector<std::uint8_t> pred_stable;
  };

  std::string name;
  int threads_per_block = 32;
  int warps = 1;
  int vreg_count = 1;   ///< clamped to >= 1, like the legacy interpreter
  int sreg_count = 1;
  int smem_bytes = 1;
  std::uint64_t identity = 0;   ///< kernel_identity(kernel, device)
  std::size_t fused_groups = 0; ///< superinstructions formed (stats/tests)
  std::size_t vec_instrs = 0;   ///< instructions with vec or vec_masked set
  std::vector<AccelLoop> accel_loops;
  std::vector<DecodedInstr> code;
};

/// Predecodes `kernel` for `device`: runs validate() once, bakes latencies
/// from the device's latency table, flattens operand/scoreboard metadata,
/// and fuses superinstruction groups. Throws util::CheckError on malformed
/// kernels (exactly the kernels the legacy interpreter rejects per block).
std::shared_ptr<const DecodedProgram> decode_program(const Kernel& kernel,
                                                     const DeviceSpec& device);

/// Thread-safe decoded-program store, sharded like ShardedBlockCostCache
/// so concurrent engine workers, fleet workers, and serving threads do not
/// serialize on one mutex. Decoding happens under the key's shard lock, so
/// each (kernel, device) identity is decoded exactly once per process no
/// matter how many threads race on first use (pinned by decode_cache_test
/// under TSan).
class DecodedProgramCache {
 public:
  /// Returns the cached program, decoding on first use.
  std::shared_ptr<const DecodedProgram> get(const Kernel& kernel,
                                            const DeviceSpec& device);

  /// Distinct (kernel, device) programs currently cached.
  std::size_t size() const;

  /// Total decode_program invocations this cache performed (a cache that
  /// works never decodes one identity twice).
  std::uint64_t decode_count() const noexcept {
    return decodes_.load(std::memory_order_relaxed);
  }

  void clear();

 private:
  /// Re-publishes the entry-count and shards-occupied obs gauges (called
  /// on miss and clear, the only occupancy-changing events).
  void refresh_occupancy_metrics() const;

  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::shared_ptr<const DecodedProgram>> map;
  };
  static std::size_t shard_of(std::uint64_t key) noexcept {
    return static_cast<std::size_t>(key >> 59) % kShards;
  }
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> decodes_{0};
};

/// The process-wide decoded-program cache used by the fast interpreter
/// path (run_block and every ExecutionEngine launch).
DecodedProgramCache& shared_decoded_cache();

}  // namespace wsim::simt
