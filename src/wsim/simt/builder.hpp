#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "wsim/simt/isa.hpp"

namespace wsim::simt {

/// Handle to a virtual vector register produced by KernelBuilder.
struct VReg {
  int id = -1;
  operator Operand() const noexcept { return Operand::vreg(id); }  // NOLINT(google-explicit-constructor)
};

/// Handle to a scalar (block-uniform) register.
struct SReg {
  int id = -1;
  operator Operand() const noexcept { return Operand::sreg(id); }  // NOLINT(google-explicit-constructor)
};

/// Immediate holding a signed integer.
inline Operand imm_i64(std::int64_t value) noexcept {
  return Operand::immediate(static_cast<std::uint64_t>(value));
}

/// Immediate holding an f32 bit pattern (low 32 bits).
inline Operand imm_f32(float value) noexcept {
  return Operand::immediate(std::bit_cast<std::uint32_t>(value));
}

/// Fluent IR builder for simulator kernels. Emits SSA-style virtual
/// registers; build() runs a liveness-based linear-scan register
/// allocator so the resulting Kernel reports a realistic registers/thread
/// figure for the occupancy calculator — reusing registers exactly where
/// a real compiler could.
///
/// Scalar launch parameters: the first `param()` calls return s0, s1, ...
/// in order; at launch each block supplies one value per parameter.
class KernelBuilder {
 public:
  KernelBuilder(std::string name, int threads_per_block);

  // --- resources -------------------------------------------------------
  VReg vreg();                       ///< raw virtual register (rarely needed)
  SReg sreg();                       ///< scratch scalar register
  SReg param();                      ///< next scalar launch parameter
  int alloc_smem(int bytes, int align = 4);  ///< static shared memory, returns byte offset

  // --- identifiers -----------------------------------------------------
  VReg tid();
  VReg laneid();
  VReg warpid();

  // --- moves -----------------------------------------------------------
  VReg mov(Operand src);
  void assign(VReg dst, Operand src);

  // --- f32 arithmetic ----------------------------------------------------
  VReg fadd(Operand a, Operand b);
  VReg fsub(Operand a, Operand b);
  VReg fmul(Operand a, Operand b);
  VReg ffma(Operand a, Operand b, Operand c);
  VReg fmax(Operand a, Operand b);
  VReg fmin(Operand a, Operand b);

  // --- integer arithmetic ------------------------------------------------
  VReg iadd(Operand a, Operand b);
  VReg isub(Operand a, Operand b);
  VReg imul(Operand a, Operand b);
  VReg imax(Operand a, Operand b);
  VReg imin(Operand a, Operand b);
  VReg iand(Operand a, Operand b);
  VReg ior(Operand a, Operand b);
  VReg ixor(Operand a, Operand b);
  VReg shl(Operand a, Operand b);
  VReg shr(Operand a, Operand b);

  // --- compare / select --------------------------------------------------
  VReg setp(Cmp cmp, DType dtype, Operand a, Operand b);
  VReg selp(Operand pred, Operand if_true, Operand if_false);

  // --- warp shuffle ------------------------------------------------------
  VReg shfl(Operand value, Operand src_lane, int width = 32);
  VReg shfl_up(Operand value, Operand delta, int width = 32);
  VReg shfl_down(Operand value, Operand delta, int width = 32);
  VReg shfl_xor(Operand value, Operand lane_mask, int width = 32);

  // --- memory ------------------------------------------------------------
  VReg lds(Operand addr, std::int64_t offset = 0, MemWidth width = MemWidth::kB4);
  void sts(Operand addr, Operand value, std::int64_t offset = 0,
           MemWidth width = MemWidth::kB4);
  VReg ldg(Operand addr, std::int64_t offset = 0, MemWidth width = MemWidth::kB4);
  void stg(Operand addr, Operand value, std::int64_t offset = 0,
           MemWidth width = MemWidth::kB4);

  /// Load into an existing register (used under predication, where the
  /// destination must be pre-initialized for inactive lanes).
  void lds_to(VReg dst, Operand addr, std::int64_t offset = 0,
              MemWidth width = MemWidth::kB4);
  void ldg_to(VReg dst, Operand addr, std::int64_t offset = 0,
              MemWidth width = MemWidth::kB4);

  // --- synchronization -----------------------------------------------------
  void bar();

  // --- scalar arithmetic ---------------------------------------------------
  SReg smov(Operand src);
  SReg sadd(Operand a, Operand b);
  SReg ssub(Operand a, Operand b);
  SReg smul(Operand a, Operand b);
  SReg smin(Operand a, Operand b);
  SReg smax(Operand a, Operand b);
  void sassign(SReg dst, Operand src);

  // --- structured control flow ----------------------------------------------
  void loop(Operand trip_count);  ///< trip count must be scalar or immediate
  void endloop();

  /// All instructions emitted between begin_pred and end_pred execute
  /// under @p (or @!p): inactive lanes skip register writes and memory
  /// side effects, as in PTX predication.
  void begin_pred(VReg pred, bool negate = false);
  void end_pred();

  /// Writes an existing destination with any vector op (mutation form of
  /// the SSA helpers above, used for in-place updates such as the paper's
  /// register rotation reg3 = reg2).
  void emit_to(VReg dst, Op op, Operand a, Operand b = Operand::none(),
               Operand c = Operand::none());

  /// Low-level escape hatch returning a fresh destination register.
  VReg emit(Op op, Operand a, Operand b = Operand::none(),
            Operand c = Operand::none());

  /// Finalizes the kernel: validates structure, allocates physical
  /// registers, and returns the compiled Kernel.
  Kernel build();

 private:
  void push(Instr instr);
  VReg emit_val(Op op, Operand a, Operand b = Operand::none(),
                Operand c = Operand::none());
  SReg emit_scalar(Op op, Operand a, Operand b = Operand::none());

  std::string name_;
  int threads_per_block_ = 32;
  std::vector<Instr> code_;
  int next_vreg_ = 0;
  int next_sreg_ = 0;
  int smem_cursor_ = 0;
  int loop_depth_ = 0;
  int cur_pred_ = -1;
  bool cur_pred_negate_ = false;
  bool built_ = false;
};

}  // namespace wsim::simt
