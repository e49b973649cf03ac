// Regression fingerprints for the compiled kernels: resource usage and
// structural properties that the paper's analysis depends on. Ranges are
// deliberately loose enough to survive benign compiler-pass changes but
// tight enough to catch a broken register allocator or an accidentally
// quadratic IR.

#include <gtest/gtest.h>

#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/isa.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::simt::Kernel;
using wsim::simt::Op;

std::size_t count_op(const Kernel& k, Op op) {
  std::size_t n = 0;
  for (const auto& ins : k.code()) {
    n += ins.op == op ? 1 : 0;
  }
  return n;
}

TEST(KernelFingerprint, Sw1Resources) {
  const Kernel k = wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {});
  EXPECT_EQ(k.name(), "sw1_shared_b32");
  EXPECT_EQ(k.threads_per_block(), 32);
  EXPECT_GE(k.vreg_count(), 30);
  EXPECT_LE(k.vreg_count(), 90);
  // 7 line buffers (32 words) + padded 32x33 tile.
  EXPECT_EQ(k.smem_bytes(), 7 * 32 * 4 + 32 * 33 * 4);
  EXPECT_EQ(count_op(k, Op::kBar), 1U);       // one sync in the step loop
  EXPECT_EQ(count_op(k, Op::kLoop), 4U);      // band, tile, step, flush
  EXPECT_LT(k.code().size(), 250U);
}

TEST(KernelFingerprint, Sw2Resources) {
  const Kernel k = wsim::kernels::build_sw_kernel(CommMode::kShuffle, {});
  EXPECT_EQ(k.name(), "sw2_shuffle");
  EXPECT_EQ(k.smem_bytes(), 0);
  EXPECT_EQ(count_op(k, Op::kBar), 0U);
  EXPECT_EQ(count_op(k, Op::kShflUp), 4U);  // H(-1), H(-2), F, kv
  EXPECT_EQ(count_op(k, Op::kLoop), 3U);    // band, tile, step
  EXPECT_LT(k.vreg_count(), wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {})
                              .vreg_count() +
                              16);
}

TEST(KernelFingerprint, PhSharedResources) {
  const Kernel k = wsim::kernels::build_ph_shared_kernel(128);
  EXPECT_EQ(k.threads_per_block(), 128);
  EXPECT_EQ(k.smem_bytes(), 9 * 128 * 4);
  EXPECT_GE(k.vreg_count(), 25);
  EXPECT_LE(k.vreg_count(), 70);
  EXPECT_EQ(count_op(k, Op::kLds), 5U);
  EXPECT_EQ(count_op(k, Op::kSts), 3U);
}

TEST(KernelFingerprint, PhShuffleRegisterGrowth) {
  // Register blocking must grow roughly linearly with cells/thread — a
  // broken allocator shows up as superlinear growth or collapse.
  int prev = 0;
  for (int cells = 1; cells <= 4; ++cells) {
    const Kernel k = wsim::kernels::build_ph_shuffle_kernel(cells);
    EXPECT_GT(k.vreg_count(), prev);
    EXPECT_LE(k.vreg_count(), 40 + cells * 25);
    EXPECT_EQ(k.smem_bytes(), 0);
    EXPECT_EQ(count_op(k, Op::kShflUp), 5U);
    prev = k.vreg_count();
  }
}

TEST(KernelFingerprint, AllKernelsStayWithinDeviceLimits) {
  const auto dev = wsim::simt::make_k1200();
  const auto check = [&](const Kernel& k) {
    EXPECT_LE(k.vreg_count(), dev.max_registers_per_thread) << k.name();
    EXPECT_LE(k.smem_bytes(), dev.shared_mem_per_block) << k.name();
    EXPECT_NO_THROW(wsim::simt::validate(k)) << k.name();
  };
  check(wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {}));
  check(wsim::kernels::build_sw_kernel(CommMode::kShuffle, {}));
  check(wsim::kernels::build_sw_kernel(CommMode::kSharedMemory, {}, 96));
  check(wsim::kernels::build_nw_kernel(CommMode::kSharedMemory, {}));
  check(wsim::kernels::build_nw_kernel(CommMode::kShuffle, {}));
  for (int v = 1; v <= 4; ++v) {
    check(wsim::kernels::build_ph_shared_kernel(32 * v));
    check(wsim::kernels::build_ph_shuffle_kernel(v));
    check(wsim::kernels::build_ph_hybrid_kernel(32 * v));
  }
}

TEST(KernelFingerprint, DisassemblyIsStableInShape) {
  const Kernel k = wsim::kernels::build_sw_kernel(CommMode::kShuffle, {});
  const std::string text = wsim::simt::disassemble(k);
  EXPECT_NE(text.find(".kernel sw2_shuffle"), std::string::npos);
  EXPECT_NE(text.find("shfl.up"), std::string::npos);
  EXPECT_EQ(text.find("bar.sync"), std::string::npos);
}

}  // namespace
