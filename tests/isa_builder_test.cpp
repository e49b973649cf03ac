#include <gtest/gtest.h>

#include "wsim/simt/builder.hpp"
#include "wsim/simt/isa.hpp"
#include "wsim/util/check.hpp"

namespace {

using wsim::simt::imm_i64;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::Op;
using wsim::simt::Operand;
using wsim::simt::VReg;
using wsim::util::CheckError;

TEST(Builder, RequiresWarpMultipleThreads) {
  EXPECT_THROW(KernelBuilder("bad", 33), CheckError);
  EXPECT_THROW(KernelBuilder("bad", 0), CheckError);
  EXPECT_NO_THROW(KernelBuilder("ok", 128));
}

TEST(Builder, SmemAllocationAlignsAndAccumulates) {
  KernelBuilder kb("smem", 32);
  EXPECT_EQ(kb.alloc_smem(6, 4), 0);
  EXPECT_EQ(kb.alloc_smem(4, 4), 8);  // 6 rounded up to 8
  EXPECT_EQ(kb.alloc_smem(4, 16), 16);
  kb.mov(imm_i64(0));
  const Kernel k = kb.build();
  EXPECT_EQ(k.smem_bytes(), 20);
}

TEST(Builder, SmemAllocationRejectsBadArgs) {
  KernelBuilder kb("smem", 32);
  EXPECT_THROW(kb.alloc_smem(0), CheckError);
  EXPECT_THROW(kb.alloc_smem(4, 3), CheckError);
}

TEST(Builder, ScalarParamsNumberInOrder) {
  KernelBuilder kb("params", 32);
  EXPECT_EQ(kb.param().id, 0);
  EXPECT_EQ(kb.param().id, 1);
  EXPECT_EQ(kb.sreg().id, 2);
}

TEST(Builder, UnbalancedLoopRejected) {
  KernelBuilder kb("loop", 32);
  kb.loop(imm_i64(4));
  EXPECT_THROW(kb.build(), CheckError);
}

TEST(Builder, EndLoopWithoutLoopRejected) {
  KernelBuilder kb("loop", 32);
  EXPECT_THROW(kb.endloop(), CheckError);
}

TEST(Builder, LoopTripMustBeUniform) {
  KernelBuilder kb("loop", 32);
  const VReg v = kb.tid();
  EXPECT_THROW(kb.loop(v), CheckError);
}

TEST(Builder, PredicationMustBeClosed) {
  KernelBuilder kb("pred", 32);
  const VReg p = kb.setp(wsim::simt::Cmp::kLt, wsim::simt::DType::kI64, kb.tid(),
                         imm_i64(4));
  kb.begin_pred(p);
  kb.mov(imm_i64(1));
  EXPECT_THROW(kb.build(), CheckError);
}

TEST(Builder, NestedPredicationRejected) {
  KernelBuilder kb("pred", 32);
  const VReg p = kb.setp(wsim::simt::Cmp::kLt, wsim::simt::DType::kI64, kb.tid(),
                         imm_i64(4));
  kb.begin_pred(p);
  EXPECT_THROW(kb.begin_pred(p), CheckError);
}

TEST(Builder, BuildIsSingleUse) {
  KernelBuilder kb("once", 32);
  kb.mov(imm_i64(0));
  kb.build();
  EXPECT_THROW(kb.build(), CheckError);
}

// --- register allocator behaviour ---------------------------------------

TEST(RegisterAllocator, SequentialTemporariesReuseOneRegister) {
  KernelBuilder kb("reuse", 32);
  // Ten dead-on-arrival temporaries plus a final live one: consecutive
  // disjoint live ranges must map onto very few physical registers.
  const VReg base = kb.tid();
  VReg last = base;
  for (int i = 0; i < 10; ++i) {
    last = kb.iadd(base, imm_i64(i));
  }
  kb.stg(kb.imul(last, imm_i64(4)), last);
  const Kernel k = kb.build();
  EXPECT_LE(k.vreg_count(), 4);
}

TEST(RegisterAllocator, SimultaneouslyLiveValuesGetDistinctRegisters) {
  KernelBuilder kb("live", 32);
  const VReg a = kb.mov(imm_i64(1));
  const VReg b = kb.mov(imm_i64(2));
  const VReg c = kb.mov(imm_i64(3));
  const VReg sum = kb.iadd(kb.iadd(a, b), c);
  kb.stg(kb.mov(imm_i64(0)), sum);
  const Kernel k = kb.build();
  EXPECT_GE(k.vreg_count(), 3);
}

TEST(RegisterAllocator, LoopCarriedValueSurvivesWholeLoop) {
  // reg2/reg3 rotation inside a loop: the rotated registers are read at
  // the top of each iteration and written at the bottom, so they must not
  // be coalesced with body temporaries.
  KernelBuilder kb("carry", 32);
  const VReg reg2 = kb.mov(imm_i64(5));
  const VReg reg3 = kb.mov(imm_i64(7));
  kb.loop(imm_i64(8));
  const VReg up = kb.shfl_up(reg2, imm_i64(1));
  const VReg diag = kb.shfl_up(reg3, imm_i64(1));
  const VReg cur = kb.iadd(up, diag);
  kb.assign(reg3, reg2);
  kb.assign(reg2, cur);
  kb.endloop();
  kb.stg(kb.mov(imm_i64(0)), reg2);
  const Kernel k = kb.build();
  // reg2, reg3, cur and the two shuffle results overlap inside the loop.
  EXPECT_GE(k.vreg_count(), 3);

  // Functional spot check happens in interpreter_test; here we only check
  // that validation passes on the rewritten code.
  EXPECT_NO_THROW(wsim::simt::validate(k));
}

TEST(Isa, ValidateRejectsOutOfRangeRegisters) {
  wsim::simt::Instr ins;
  ins.op = Op::kMov;
  ins.dst = 5;  // out of range
  ins.a = Operand::immediate(0);
  const Kernel k("bad", 32, {ins}, /*vreg_count=*/1);
  EXPECT_THROW(wsim::simt::validate(k), CheckError);
}

TEST(Isa, DisassembleContainsOpcodesAndRegisters) {
  KernelBuilder kb("disasm", 32);
  const VReg t = kb.tid();
  const VReg v = kb.shfl_down(t, imm_i64(4));
  kb.stg(kb.imul(t, imm_i64(4)), v);
  const Kernel k = kb.build();
  const std::string text = wsim::simt::disassemble(k);
  EXPECT_NE(text.find("shfl.down"), std::string::npos);
  EXPECT_NE(text.find("stg"), std::string::npos);
  EXPECT_NE(text.find(".kernel disasm"), std::string::npos);
}

TEST(Isa, OpToStringCoversShuffleVariants) {
  EXPECT_EQ(wsim::simt::to_string(Op::kShfl), "shfl");
  EXPECT_EQ(wsim::simt::to_string(Op::kShflUp), "shfl.up");
  EXPECT_EQ(wsim::simt::to_string(Op::kShflDown), "shfl.down");
  EXPECT_EQ(wsim::simt::to_string(Op::kShflXor), "shfl.xor");
}

}  // namespace
