#include "wsim/kernels/scan_kernels.hpp"

#include "wsim/simt/builder.hpp"
#include "wsim/simt/memory.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/util/check.hpp"

namespace wsim::kernels {

using simt::Cmp;
using simt::DType;
using simt::imm_i64;
using simt::KernelBuilder;
using simt::Op;
using simt::SReg;
using simt::VReg;

simt::Kernel build_scan_kernel(CommMode mode, int threads_per_block) {
  util::require(threads_per_block > 0 && threads_per_block % 32 == 0 &&
                    threads_per_block <= 1024,
                "build_scan_kernel: threads must be a positive multiple of 32");
  const bool shared = mode == CommMode::kSharedMemory;
  const int warps = threads_per_block / 32;
  KernelBuilder kb(std::string(shared ? "scan_shared_t" : "scan_shuffle_t") +
                       std::to_string(threads_per_block),
                   threads_per_block);

  const SReg p_in = kb.param();
  const SReg p_out = kb.param();
  const SReg p_n = kb.param();

  const VReg tid = kb.tid();
  const VReg in_range = kb.setp(Cmp::kLt, DType::kI64, tid, p_n);
  const VReg addr = kb.imul(tid, imm_i64(4));
  const VReg x = kb.mov(imm_i64(0));  // identity for out-of-range lanes
  kb.begin_pred(in_range);
  kb.ldg_to(x, kb.iadd(p_in, addr));
  kb.end_pred();

  if (shared) {
    // Hillis-Steele with double-buffered shared memory; every stage pays a
    // load, a store and a barrier — design A's cost structure.
    const int buf_a = kb.alloc_smem(threads_per_block * 4);
    const int buf_b = kb.alloc_smem(threads_per_block * 4);
    SReg cur = kb.smov(imm_i64(buf_a));
    SReg nxt = kb.smov(imm_i64(buf_b));
    kb.sts(kb.iadd(cur, addr), x);
    kb.bar();
    for (int d = 1; d < threads_per_block; d *= 2) {
      const VReg has_left = kb.setp(Cmp::kGe, DType::kI64, tid, imm_i64(d));
      const VReg left = kb.mov(imm_i64(0));
      kb.begin_pred(has_left);
      kb.lds_to(left, kb.iadd(cur, kb.imul(kb.isub(tid, imm_i64(d)), imm_i64(4))));
      kb.end_pred();
      const VReg own = kb.lds(kb.iadd(cur, addr));
      kb.sts(kb.iadd(nxt, addr), kb.iadd(own, left));
      kb.bar();
      const SReg tmp = kb.smov(cur);
      kb.sassign(cur, nxt);
      kb.sassign(nxt, tmp);
    }
    const VReg result = kb.lds(kb.iadd(cur, addr));
    kb.begin_pred(in_range);
    kb.stg(kb.iadd(p_out, addr), result);
    kb.end_pred();
    return kb.build();
  }

  // Design B: warp-local shuffle scan (5 stages, no memory, no barriers).
  const VReg lane = kb.laneid();
  for (int d = 1; d < 32; d *= 2) {
    const VReg y = kb.shfl_up(x, imm_i64(d));
    const VReg has_left = kb.setp(Cmp::kGe, DType::kI64, lane, imm_i64(d));
    kb.emit_to(x, Op::kSelp, kb.iadd(x, y), x, has_left);
  }

  if (warps > 1) {
    // Cross-warp fix-up: one total per warp through shared memory, once —
    // not per stage. Lane 31 publishes, a single barrier, then every
    // thread adds the totals of the warps before it.
    const int totals = kb.alloc_smem(warps * 4);
    const VReg wid = kb.warpid();
    const VReg is_last_lane = kb.setp(Cmp::kEq, DType::kI64, lane, imm_i64(31));
    kb.begin_pred(is_last_lane);
    kb.sts(kb.iadd(imm_i64(totals), kb.imul(wid, imm_i64(4))), x);
    kb.end_pred();
    kb.bar();
    for (int w = 0; w + 1 < warps; ++w) {
      const VReg after = kb.setp(Cmp::kGt, DType::kI64, wid, imm_i64(w));
      const VReg total = kb.mov(imm_i64(0));
      kb.begin_pred(after);
      kb.lds_to(total, imm_i64(totals + w * 4));
      kb.end_pred();
      kb.assign(x, kb.iadd(x, total));
    }
  }

  kb.begin_pred(in_range);
  kb.stg(kb.iadd(p_out, addr), x);
  kb.end_pred();
  return kb.build();
}

std::vector<std::int32_t> run_scan(const simt::Kernel& kernel,
                                   const simt::DeviceSpec& device,
                                   const std::vector<std::int32_t>& values,
                                   long long* cycles) {
  util::require(!values.empty(), "run_scan: input must be non-empty");
  util::require(values.size() <= static_cast<std::size_t>(kernel.threads_per_block()),
                "run_scan: input exceeds one block");
  simt::GlobalMemory gmem;
  const auto in = gmem.alloc(static_cast<std::size_t>(kernel.threads_per_block()) * 4);
  const auto out = gmem.alloc(static_cast<std::size_t>(kernel.threads_per_block()) * 4);
  gmem.write_i32(in, values);
  std::vector<simt::BlockLaunch> blocks(1);
  blocks[0].args = {static_cast<std::uint64_t>(in), static_cast<std::uint64_t>(out),
                    values.size()};
  const auto result = simt::launch(kernel, device, gmem, blocks);
  if (cycles != nullptr) {
    *cycles = result.representative.cycles;
  }
  return gmem.read_i32(out, values.size());
}

}  // namespace wsim::kernels
