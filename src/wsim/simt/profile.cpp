#include "wsim/simt/profile.hpp"

#include <sstream>

#include "wsim/simt/occupancy.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/table.hpp"

namespace wsim::simt {

ProfileReport profile_block(const Kernel& kernel, const DeviceSpec& device,
                            const BlockResult& block, std::size_t cells) {
  ProfileReport r;
  r.kernel_name = kernel.name();
  r.threads_per_block = kernel.threads_per_block();
  r.regs_per_thread = kernel.vreg_count();
  r.smem_bytes = kernel.smem_bytes();
  const Occupancy occ = compute_occupancy(device, kernel);
  r.occupancy = occ.fraction;
  r.occupancy_limiter = std::string(to_string(occ.limiter));

  r.cycles = block.cycles;
  r.instructions = block.instructions;
  r.ipc = block.cycles > 0
              ? static_cast<double>(block.instructions) / static_cast<double>(block.cycles)
              : 0.0;

  r.shuffle_ops = block.shuffle_count();
  r.smem_ops = block.smem_instr_count();
  r.gmem_ops = block.count(Op::kLdg) + block.count(Op::kStg);
  r.barriers = block.count(Op::kBar);
  r.alu_ops = block.instructions - r.shuffle_ops - r.smem_ops - r.gmem_ops -
              r.barriers;
  r.smem_transactions = block.smem_transactions;
  r.gmem_transactions = block.gmem_transactions;
  r.bank_conflict_ratio =
      r.smem_ops > 0 ? static_cast<double>(block.smem_transactions) /
                           static_cast<double>(r.smem_ops)
                     : 0.0;

  r.cells = cells;
  if (cells > 0) {
    r.instructions_per_cell =
        static_cast<double>(block.instructions) / static_cast<double>(cells);
    r.cycles_per_cell =
        static_cast<double>(block.cycles) / static_cast<double>(cells);
  }
  return r;
}

std::string format_profile(const ProfileReport& r) {
  std::ostringstream oss;
  oss << "=== profile: " << r.kernel_name << " ===\n";
  util::Table resources({"threads/block", "regs/thread", "smem/block (B)",
                         "occupancy", "limiter"});
  resources.add_row({std::to_string(r.threads_per_block),
                     std::to_string(r.regs_per_thread), std::to_string(r.smem_bytes),
                     util::format_percent(r.occupancy), r.occupancy_limiter});
  resources.print(oss);

  util::Table execution({"cycles", "warp instrs", "IPC", "instrs/cell",
                         "cycles/cell"});
  execution.add_row({std::to_string(r.cycles), std::to_string(r.instructions),
                     util::format_fixed(r.ipc, 2),
                     util::format_fixed(r.instructions_per_cell, 2),
                     util::format_fixed(r.cycles_per_cell, 2)});
  execution.print(oss);

  util::Table mix({"ALU", "shuffle", "smem ops", "smem tx", "conflict ratio",
                   "gmem ops", "gmem tx", "barriers"});
  mix.add_row({std::to_string(r.alu_ops), std::to_string(r.shuffle_ops),
               std::to_string(r.smem_ops), std::to_string(r.smem_transactions),
               util::format_fixed(r.bank_conflict_ratio, 2),
               std::to_string(r.gmem_ops), std::to_string(r.gmem_transactions),
               std::to_string(r.barriers)});
  mix.print(oss);
  return oss.str();
}

}  // namespace wsim::simt
