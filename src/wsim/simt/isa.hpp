#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wsim::simt {

/// The simulator's SASS-like instruction set. Kernels are lists of these
/// instructions, executed by every thread of a block in SIMT lockstep
/// (warp granularity). Registers hold 64 raw bits; f32 opcodes interpret
/// the low 32 bits as an IEEE float, integer opcodes interpret all 64 bits
/// as a signed integer.
enum class Op : std::uint8_t {
  kNop,
  // --- moves / identifiers ---
  kMov,      ///< dst = a                        (vector)
  kTid,      ///< dst = threadIdx.x              (vector)
  kLaneId,   ///< dst = lane index within warp   (vector)
  kWarpId,   ///< dst = warp index within block  (vector)
  // --- f32 arithmetic ---
  kFAdd,     ///< dst = a + b
  kFSub,     ///< dst = a - b
  kFMul,     ///< dst = a * b
  kFFma,     ///< dst = a * b + c
  kFMax,     ///< dst = max(a, b)
  kFMin,     ///< dst = min(a, b)
  // --- integer arithmetic (64-bit signed; add/sub/mul wrap mod 2^64) ---
  kIAdd,     ///< dst = a + b
  kISub,     ///< dst = a - b
  kIMul,     ///< dst = a * b
  kIMax,     ///< dst = max(a, b)
  kIMin,     ///< dst = min(a, b)
  kIAnd,     ///< dst = a & b
  kIOr,      ///< dst = a | b
  kIXor,     ///< dst = a ^ b
  kShl,      ///< dst = a << b
  kShr,      ///< dst = a >> b (arithmetic)
  // --- compare / select ---
  kSetp,     ///< dst = (a <cmp> b) ? 1 : 0, type from `dtype`
  kSelp,     ///< dst = (c != 0) ? a : b
  // --- warp shuffle (paper Fig. 1) ---
  kShfl,        ///< dst = value of lane b (any-to-any, wraps modulo width c)
  kShflUp,      ///< dst = value of lane (lane - b); keeps own value if lane < b
  kShflDown,    ///< dst = value of lane (lane + b); keeps own value if out of segment
  kShflXor,     ///< dst = value of lane (lane ^ b) within width c
  // --- memory ---
  kLds,      ///< dst = shared[a + b]   (byte address; width from `width`)
  kSts,      ///< shared[a + b] = c
  kLdg,      ///< dst = global[a + b]
  kStg,      ///< global[a + b] = c
  // --- synchronization ---
  kBar,      ///< __syncthreads()
  // --- scalar (block-uniform) arithmetic; add/sub/mul wrap like kIAdd ---
  kSMov,     ///< sdst = a
  kSAdd,     ///< sdst = a + b
  kSSub,     ///< sdst = a - b
  kSMul,     ///< sdst = a * b
  kSMin,     ///< sdst = min(a, b)
  kSMax,     ///< sdst = max(a, b)
  // --- structured control flow ---
  kLoop,     ///< repeat the region until matching kEndLoop `a` times (scalar/imm)
  kEndLoop,  ///< end of loop region
  kOpCount,  ///< sentinel: number of opcodes
};

constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kOpCount);

std::string_view to_string(Op op) noexcept;

/// Comparison predicate for kSetp.
enum class Cmp : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

/// Data interpretation for kSetp.
enum class DType : std::uint8_t { kF32, kI64 };

/// Memory access width for kLds/kSts/kLdg/kStg. One-byte loads
/// zero-extend (sequence characters); four-byte loads sign-extend to 64
/// bits so stored negative i32 DP scores survive the round trip (f32
/// consumers only read the low 32 bits, so they are unaffected).
enum class MemWidth : std::uint8_t { kB1, kB4 };

/// Operand: a vector register (per-lane), a scalar register
/// (block-uniform), or an immediate (raw 64 bits).
struct Operand {
  enum class Kind : std::uint8_t { kNone, kVector, kScalar, kImmediate };
  Kind kind = Kind::kNone;
  int reg = -1;
  std::uint64_t imm = 0;

  static Operand none() noexcept { return {}; }
  static Operand vreg(int id) noexcept { return {Kind::kVector, id, 0}; }
  static Operand sreg(int id) noexcept { return {Kind::kScalar, id, 0}; }
  static Operand immediate(std::uint64_t bits) noexcept {
    return {Kind::kImmediate, -1, bits};
  }
};

/// One instruction. `dst` is a vector-register id for vector ops and a
/// scalar-register id for scalar ops (-1 when the op produces no value).
/// `pred` optionally guards the instruction: lanes whose predicate vector
/// register is zero (or non-zero when `pred_negate`) skip the write and
/// any memory side effect, exactly like PTX @p predication. The warp still
/// pays the instruction's issue slot and latency (SIMT execution).
struct Instr {
  Op op = Op::kNop;
  int dst = -1;
  Operand a;
  Operand b;
  Operand c;
  Cmp cmp = Cmp::kLt;
  DType dtype = DType::kI64;
  MemWidth width = MemWidth::kB4;
  int pred = -1;
  bool pred_negate = false;
};

struct DeviceSpec;

/// A compiled kernel: the instruction list plus the static resources that
/// feed the occupancy calculator (paper Eq. 8). `vreg_count` plays the
/// role of nvcc's reported registers/thread; `smem_bytes` is the static
/// shared-memory allocation per block.
///
/// The content is fixed at construction (KernelBuilder::build, or the
/// constructor below for hand-written kernels); there are no setters. That
/// is what lets kernel_identity memoize the kernel half of its hash on the
/// Kernel at first use, so later launches hash only the device: the memo
/// cannot go stale. Copies carry the memo; a moved-from kernel drops it. To
/// change a kernel, build or construct a new one — assigning it replaces
/// the content and the memo together.
class Kernel {
 public:
  Kernel() = default;
  Kernel(std::string name, int threads_per_block, std::vector<Instr> code = {},
         int vreg_count = 0, int sreg_count = 0, int smem_bytes = 0)
      : name_(std::move(name)),
        code_(std::move(code)),
        threads_per_block_(threads_per_block),
        vreg_count_(vreg_count),
        sreg_count_(sreg_count),
        smem_bytes_(smem_bytes) {}

  const std::string& name() const noexcept { return name_; }
  const std::vector<Instr>& code() const noexcept { return code_; }
  int threads_per_block() const noexcept { return threads_per_block_; }
  int vreg_count() const noexcept { return vreg_count_; }
  int sreg_count() const noexcept { return sreg_count_; }
  int smem_bytes() const noexcept { return smem_bytes_; }

  int warps_per_block() const noexcept { return (threads_per_block_ + 31) / 32; }

  /// Whether kernel_identity has memoized this kernel's content hash yet.
  bool identity_memoized() const noexcept {
    return content_hash_.value.load() != 0;
  }

 private:
  friend std::uint64_t kernel_identity(const Kernel& kernel, const DeviceSpec& device);

  /// FNV state after the kernel half of kernel_identity; 0 until first
  /// use. Atomic so concurrent first launches race benignly (they store
  /// the same value), copied by value so Kernel stays a value type.
  struct HashMemo {
    mutable std::atomic<std::uint64_t> value{0};

    HashMemo() = default;
    HashMemo(const HashMemo& other) noexcept : value(other.value.load()) {}
    HashMemo(HashMemo&& other) noexcept : value(other.value.exchange(0)) {}
    HashMemo& operator=(const HashMemo& other) noexcept {
      value = other.value.load();
      return *this;
    }
    HashMemo& operator=(HashMemo&& other) noexcept {
      value = other.value.exchange(0);
      return *this;
    }
  };

  std::string name_;
  std::vector<Instr> code_;
  int threads_per_block_ = 32;
  int vreg_count_ = 0;
  int sreg_count_ = 0;
  int smem_bytes_ = 0;
  HashMemo content_hash_;
};

/// Structural validation: balanced loops, register ids in range, operand
/// kinds legal for each opcode. Throws util::CheckError on violations.
void validate(const Kernel& kernel);

/// Human-readable disassembly (one instruction per line), for debugging
/// and golden tests.
std::string disassemble(const Kernel& kernel);

}  // namespace wsim::simt
