#include "wsim/simt/interpreter.hpp"

#include "wsim/simt/decode.hpp"
#include "wsim/simt/sdc.hpp"
#include "wsim/simt/trace.hpp"
#include "wsim/simt/watchdog.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::simt {

void GmemWriteSet::add(std::int64_t addr, std::size_t bytes) {
  if (bytes == 0) {
    return;
  }
  std::int64_t begin = addr;
  std::int64_t end = addr + static_cast<std::int64_t>(bytes);
  // Absorb every span that touches [begin, end), including ones that
  // merely abut it, then insert the union.
  auto it = spans_.upper_bound(begin);
  if (it != spans_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {
      it = prev;
    }
  }
  while (it != spans_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    it = spans_.erase(it);
  }
  spans_.emplace(begin, end);
}

bool GmemWriteSet::overlaps(const GmemWriteSet& other) const noexcept {
  auto a = spans_.begin();
  auto b = other.spans_.begin();
  while (a != spans_.end() && b != other.spans_.end()) {
    if (a->second <= b->first) {
      ++a;
    } else if (b->second <= a->first) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

namespace {

constexpr int kWarpSize = 32;
/// Cycles lost to the taken backward branch closing each loop iteration.
constexpr long long kBranchCycles = 2;

using Lanes = std::array<std::uint64_t, kWarpSize>;

float as_f32(std::uint64_t bits) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
}

std::uint64_t from_f32(float value) noexcept {
  return std::bit_cast<std::uint32_t>(value);
}

std::int64_t as_i64(std::uint64_t bits) noexcept {
  return static_cast<std::int64_t>(bits);
}

std::uint64_t from_i64(std::int64_t value) noexcept {
  return static_cast<std::uint64_t>(value);
}

/// B1 zero-extends; B4 sign-extends (see MemWidth documentation).
std::uint64_t load_bits(const std::uint8_t* src, MemWidth width) noexcept {
  if (width == MemWidth::kB1) {
    return *src;
  }
  std::int32_t word = 0;
  std::memcpy(&word, src, 4);
  return from_i64(word);
}

/// Per-warp execution state.
struct WarpState {
  int warp_index = 0;
  std::size_t pc = 0;
  long long cursor = 0;         ///< next issue cycle
  long long cur_cycle = -1;     ///< cycle of the current issue group
  int issued_this_cycle = 0;    ///< instructions issued in cur_cycle (dual issue)
  long long last_complete = 0;  ///< completion time of the latest instruction
  std::vector<Lanes> vregs;
  std::vector<long long> vready;
  std::vector<std::uint64_t> sregs;
  std::vector<long long> sready;
  struct LoopFrame {
    std::size_t begin_pc;
    std::int64_t remaining;
  };
  std::vector<LoopFrame> loops;
  bool at_barrier = false;
  std::size_t barrier_pc = 0;  ///< pc of the kBar this warp waits at
  bool done = false;
};

struct SharedMemory {
  std::vector<std::uint8_t> data;
};

class BlockEngine {
 public:
  BlockEngine(const Kernel& kernel, const DeviceSpec& device, GlobalMemory& gmem,
              std::span<const std::uint64_t> scalar_args, const BlockRunOptions& options)
      : kernel_(kernel),
        dev_(device),
        gmem_(gmem),
        trace_(options.trace),
        writes_(options.writes),
        sdc_(options.sdc != nullptr && options.sdc->enabled() ? options.sdc : nullptr),
        sdc_stream_(options.sdc_stream),
        max_cycles_(options.max_cycles) {
    validate(kernel);
    build_loop_matches();
    smem_.data.assign(static_cast<std::size_t>(std::max(kernel.smem_bytes(), 1)), 0);
    const int warps = kernel.warps_per_block();
    warps_.resize(static_cast<std::size_t>(warps));
    for (int w = 0; w < warps; ++w) {
      WarpState& warp = warps_[static_cast<std::size_t>(w)];
      warp.warp_index = w;
      warp.vregs.assign(static_cast<std::size_t>(std::max(kernel.vreg_count(), 1)), Lanes{});
      warp.vready.assign(warp.vregs.size(), 0);
      warp.sregs.assign(static_cast<std::size_t>(std::max(kernel.sreg_count(), 1)), 0);
      warp.sready.assign(warp.sregs.size(), 0);
      for (std::size_t i = 0; i < scalar_args.size() && i < warp.sregs.size(); ++i) {
        warp.sregs[i] = scalar_args[i];
      }
    }
  }

  BlockResult run() {
    while (true) {
      bool any_running = false;
      for (WarpState& warp : warps_) {
        if (!warp.done && !warp.at_barrier) {
          run_until_barrier(warp);
          any_running = true;
        }
      }
      if (!any_running) {
        break;
      }
      const bool all_done =
          std::all_of(warps_.begin(), warps_.end(), [](const WarpState& w) { return w.done; });
      if (all_done) {
        break;
      }
      const bool any_barrier = std::any_of(warps_.begin(), warps_.end(),
                                           [](const WarpState& w) { return w.at_barrier; });
      if (any_barrier) {
        // Deadlock detection: warps can never join when some ran to
        // completion while others wait at a __syncthreads, or when waiting
        // warps sit at *different* __syncthreads (divergent barriers via
        // predication — undefined behaviour that hangs real hardware).
        // The interpreter's run-until-barrier discipline means every warp
        // is done or waiting here, so these two checks are exhaustive.
        bool any_done = false;
        bool divergent = false;
        bool have_pc = false;
        std::size_t join_pc = 0;
        long long waited = 0;
        for (const WarpState& warp : warps_) {
          if (warp.done) {
            any_done = true;
          } else if (warp.at_barrier) {
            waited = std::max(waited, warp.cursor);
            if (!have_pc) {
              join_pc = warp.barrier_pc;
              have_pc = true;
            } else if (warp.barrier_pc != join_pc) {
              divergent = true;
            }
          }
        }
        if (any_done || divergent) {
          throw LaunchTimeout(
              LaunchTimeout::Kind::kBarrierDeadlock,
              "barrier deadlock in kernel " + kernel_.name() + ": " +
                  (any_done
                       ? "some warps finished while others wait at __syncthreads"
                       : "warps wait at different __syncthreads"),
              waited, max_cycles_);
        }
        long long arrival = 0;
        for (const WarpState& warp : warps_) {
          arrival = std::max(arrival, warp.cursor);
        }
        const long long released = arrival + dev_.lat.sync_barrier;
        for (WarpState& warp : warps_) {
          if (!warp.done) {
            if (trace_ != nullptr) {
              trace_->add({"bar.sync", warp.warp_index, warp.cursor, released});
            }
            warp.cursor = released;
            warp.last_complete = std::max(warp.last_complete, released);
            warp.at_barrier = false;
          }
        }
        result_.barriers += 1;
      }
    }
    for (const WarpState& warp : warps_) {
      result_.cycles = std::max(result_.cycles, std::max(warp.cursor, warp.last_complete));
    }
    check_budget(result_.cycles);
    return result_;
  }

 private:
  void build_loop_matches() {
    loop_match_.assign(kernel_.code().size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < kernel_.code().size(); ++i) {
      if (kernel_.code()[i].op == Op::kLoop) {
        stack.push_back(i);
      } else if (kernel_.code()[i].op == Op::kEndLoop) {
        util::ensure(!stack.empty(), "interpreter: unbalanced loops");
        loop_match_[stack.back()] = i;
        loop_match_[i] = stack.back();
        stack.pop_back();
      }
    }
  }

  // --- operand evaluation -------------------------------------------------
  std::uint64_t lane_value(const WarpState& warp, const Operand& operand, int lane) const {
    switch (operand.kind) {
      case Operand::Kind::kVector:
        return warp.vregs[static_cast<std::size_t>(operand.reg)][static_cast<std::size_t>(lane)];
      case Operand::Kind::kScalar:
        return warp.sregs[static_cast<std::size_t>(operand.reg)];
      case Operand::Kind::kImmediate:
        return operand.imm;
      case Operand::Kind::kNone:
        return 0;
    }
    return 0;
  }

  std::uint64_t scalar_value(const WarpState& warp, const Operand& operand) const {
    util::ensure(operand.kind != Operand::Kind::kVector,
                 "interpreter: vector operand in scalar context");
    return lane_value(warp, operand, 0);
  }

  long long operand_ready(const WarpState& warp, const Operand& operand) const {
    switch (operand.kind) {
      case Operand::Kind::kVector:
        return warp.vready[static_cast<std::size_t>(operand.reg)];
      case Operand::Kind::kScalar:
        return warp.sready[static_cast<std::size_t>(operand.reg)];
      default:
        return 0;
    }
  }

  /// Lanes of this warp whose predicate enables the instruction.
  std::array<bool, kWarpSize> active_lanes(const WarpState& warp, const Instr& ins) const {
    std::array<bool, kWarpSize> active{};
    const int base_tid = warp.warp_index * kWarpSize;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      bool on = base_tid + lane < kernel_.threads_per_block();
      if (on && ins.pred >= 0) {
        const bool p =
            warp.vregs[static_cast<std::size_t>(ins.pred)][static_cast<std::size_t>(lane)] != 0;
        on = ins.pred_negate ? !p : p;
      }
      active[static_cast<std::size_t>(lane)] = on;
    }
    return active;
  }

  // --- timing ---------------------------------------------------------------
  int base_latency(const Instr& ins) const {
    const LatencyTable& lat = dev_.lat;
    switch (ins.op) {
      case Op::kMov:
        return lat.reg_access;
      case Op::kTid:
      case Op::kLaneId:
      case Op::kWarpId:
      case Op::kIAdd:
      case Op::kISub:
      case Op::kIMax:
      case Op::kIMin:
      case Op::kIAnd:
      case Op::kIOr:
      case Op::kIXor:
      case Op::kShl:
      case Op::kShr:
      case Op::kSetp:
      case Op::kSelp:
      case Op::kSMov:
      case Op::kSAdd:
      case Op::kSSub:
      case Op::kSMin:
      case Op::kSMax:
        return lat.ialu;
      case Op::kIMul:
      case Op::kSMul:
        return lat.imul;
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFFma:
      case Op::kFMax:
      case Op::kFMin:
        return lat.falu;
      case Op::kShfl:
        return lat.shfl;
      case Op::kShflUp:
        return lat.shfl_up;
      case Op::kShflDown:
        return lat.shfl_down;
      case Op::kShflXor:
        return lat.shfl_xor;
      case Op::kLds:
        return lat.smem_load;
      case Op::kSts:
        return lat.smem_store;
      case Op::kLdg:
        return 0;  // resolved per access in exec_gmem (warm vs cold segment)
      case Op::kStg:
        return lat.gmem_store;
      default:
        return 1;
    }
  }

  // --- execution --------------------------------------------------------------
  void run_until_barrier(WarpState& warp) {
    while (warp.pc < kernel_.code().size()) {
      const Instr& ins = kernel_.code()[warp.pc];
      if (ins.op == Op::kBar) {
        // A predicated barrier a warp's lanes are all disabled for is
        // skipped — that warp never arrives, which is how divergent
        // __syncthreads (and the deadlocks run() detects) arise.
        if (ins.pred >= 0) {
          const auto active = active_lanes(warp, ins);
          if (std::none_of(active.begin(), active.end(), [](bool on) { return on; })) {
            ++warp.pc;
            continue;
          }
        }
        warp.at_barrier = true;
        warp.barrier_pc = warp.pc;
        ++warp.pc;
        count_issue(ins);
        return;
      }
      step(warp, ins);
      ++warp.pc;
    }
    warp.done = true;
  }

  void count_issue(const Instr& ins) {
    result_.instructions += 1;
    result_.op_counts[static_cast<std::size_t>(ins.op)] += 1;
  }

  void step(WarpState& warp, const Instr& ins) {
    count_issue(ins);

    // Control flow carries no register dependences.
    if (ins.op == Op::kLoop) {
      const auto trips = as_i64(scalar_value(warp, ins.a));
      if (trips <= 0) {
        // Jump to the matching kEndLoop; the caller's ++pc steps past it.
        // No frame is pushed because the region never executes.
        warp.pc = loop_match_[warp.pc];
      } else {
        warp.loops.push_back({warp.pc, trips});
      }
      warp.cursor += dev_.lat.issue_interval;
      return;
    }
    if (ins.op == Op::kEndLoop) {
      util::ensure(!warp.loops.empty(), "interpreter: endloop without loop");
      WarpState::LoopFrame& frame = warp.loops.back();
      if (--frame.remaining > 0) {
        warp.pc = frame.begin_pc;  // caller increments to first body instruction
      } else {
        warp.loops.pop_back();
      }
      warp.cursor += kBranchCycles;
      return;
    }

    long long start = warp.cursor;
    start = std::max(start, operand_ready(warp, ins.a));
    start = std::max(start, operand_ready(warp, ins.b));
    start = std::max(start, operand_ready(warp, ins.c));
    if (ins.pred >= 0) {
      start = std::max(start, warp.vready[static_cast<std::size_t>(ins.pred)]);
    }

    long long latency = base_latency(ins);
    const auto active = active_lanes(warp, ins);

    switch (ins.op) {
      case Op::kLds:
      case Op::kSts:
        latency += exec_smem(warp, ins, active);
        break;
      case Op::kLdg:
      case Op::kStg:
        latency += exec_gmem(warp, ins, active);
        break;
      default:
        exec_alu(warp, ins, active);
        break;
    }

    const long long complete = start + latency;
    if (ins.dst >= 0) {
      if (ins.op == Op::kSMov || ins.op == Op::kSAdd || ins.op == Op::kSSub ||
          ins.op == Op::kSMul || ins.op == Op::kSMin || ins.op == Op::kSMax) {
        warp.sready[static_cast<std::size_t>(ins.dst)] = complete;
      } else {
        warp.vready[static_cast<std::size_t>(ins.dst)] = complete;
      }
    }
    warp.last_complete = std::max(warp.last_complete, complete);
    if (trace_ != nullptr) {
      trace_->add({std::string(to_string(ins.op)), warp.warp_index, start, complete});
    }

    // Dual issue: up to issues_per_cycle independent instructions share an
    // issue cycle; the group advances once the slots are used.
    if (start > warp.cur_cycle) {
      warp.cur_cycle = start;
      warp.issued_this_cycle = 1;
    } else {
      ++warp.issued_this_cycle;
    }
    warp.cursor = warp.issued_this_cycle >= dev_.lat.issues_per_cycle
                      ? warp.cur_cycle + dev_.lat.issue_interval
                      : warp.cur_cycle;
    // Watchdog: a warp whose clock ran past the budget can only push the
    // block makespan further, so abort mid-run instead of simulating a
    // runaway loop to completion. Strict '>' both here and in the final
    // check keeps budget-exactly-reached kernels legal.
    check_budget(std::max(warp.cursor, warp.last_complete));
  }

  void check_budget(long long cycles) const {
    if (max_cycles_ > 0 && cycles > max_cycles_) {
      throw LaunchTimeout(LaunchTimeout::Kind::kCycleBudget,
                          "cycle budget exceeded in kernel " + kernel_.name() + ": " +
                              std::to_string(cycles) + " > " +
                              std::to_string(max_cycles_) + " cycles",
                          cycles, max_cycles_);
    }
  }

  /// Routes every eligible write event through the SDC plan; a fired event
  /// XORs one bit of the written word. The event counter advances whether
  /// or not the draw fires, so flip positions are a pure function of the
  /// plan and the block's execution, never of other blocks or threads.
  std::uint64_t maybe_corrupt(std::uint64_t value, SdcSite site) {
    if (sdc_ == nullptr) {
      return value;
    }
    int bit = 0;
    if (sdc_->flips(sdc_stream_, sdc_events_++, site, &bit)) {
      result_.sdc_flips += 1;
      value ^= std::uint64_t{1} << bit;
    }
    return value;
  }

  void write_lane(WarpState& warp, int dst, int lane, std::uint64_t value) {
    warp.vregs[static_cast<std::size_t>(dst)][static_cast<std::size_t>(lane)] = value;
  }

  void exec_alu(WarpState& warp, const Instr& ins, const std::array<bool, kWarpSize>& active) {
    // Scalar ops execute once per warp.
    switch (ins.op) {
      case Op::kSMov:
        warp.sregs[static_cast<std::size_t>(ins.dst)] = scalar_value(warp, ins.a);
        return;
      case Op::kSAdd:
        warp.sregs[static_cast<std::size_t>(ins.dst)] = from_i64(
            as_i64(scalar_value(warp, ins.a)) + as_i64(scalar_value(warp, ins.b)));
        return;
      case Op::kSSub:
        warp.sregs[static_cast<std::size_t>(ins.dst)] = from_i64(
            as_i64(scalar_value(warp, ins.a)) - as_i64(scalar_value(warp, ins.b)));
        return;
      case Op::kSMul:
        warp.sregs[static_cast<std::size_t>(ins.dst)] = from_i64(
            as_i64(scalar_value(warp, ins.a)) * as_i64(scalar_value(warp, ins.b)));
        return;
      case Op::kSMin:
        warp.sregs[static_cast<std::size_t>(ins.dst)] = from_i64(std::min(
            as_i64(scalar_value(warp, ins.a)), as_i64(scalar_value(warp, ins.b))));
        return;
      case Op::kSMax:
        warp.sregs[static_cast<std::size_t>(ins.dst)] = from_i64(std::max(
            as_i64(scalar_value(warp, ins.a)), as_i64(scalar_value(warp, ins.b))));
        return;
      default:
        break;
    }

    // Shuffles read source-lane values before any lane writes its result.
    if (ins.op == Op::kShfl || ins.op == Op::kShflUp || ins.op == Op::kShflDown ||
        ins.op == Op::kShflXor) {
      exec_shuffle(warp, ins, active);
      return;
    }

    const int base_tid = warp.warp_index * kWarpSize;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!active[static_cast<std::size_t>(lane)]) {
        continue;
      }
      const std::uint64_t a = lane_value(warp, ins.a, lane);
      const std::uint64_t b = lane_value(warp, ins.b, lane);
      const std::uint64_t c = lane_value(warp, ins.c, lane);
      std::uint64_t out = 0;
      switch (ins.op) {
        case Op::kNop:
          continue;
        case Op::kMov:
          out = a;
          break;
        case Op::kTid:
          out = from_i64(base_tid + lane);
          break;
        case Op::kLaneId:
          out = from_i64(lane);
          break;
        case Op::kWarpId:
          out = from_i64(warp.warp_index);
          break;
        case Op::kFAdd:
          out = from_f32(as_f32(a) + as_f32(b));
          break;
        case Op::kFSub:
          out = from_f32(as_f32(a) - as_f32(b));
          break;
        case Op::kFMul:
          out = from_f32(as_f32(a) * as_f32(b));
          break;
        case Op::kFFma:
          out = from_f32(as_f32(a) * as_f32(b) + as_f32(c));
          break;
        case Op::kFMax:
          out = from_f32(std::max(as_f32(a), as_f32(b)));
          break;
        case Op::kFMin:
          out = from_f32(std::min(as_f32(a), as_f32(b)));
          break;
        case Op::kIAdd:
          out = from_i64(as_i64(a) + as_i64(b));
          break;
        case Op::kISub:
          out = from_i64(as_i64(a) - as_i64(b));
          break;
        case Op::kIMul:
          out = from_i64(as_i64(a) * as_i64(b));
          break;
        case Op::kIMax:
          out = from_i64(std::max(as_i64(a), as_i64(b)));
          break;
        case Op::kIMin:
          out = from_i64(std::min(as_i64(a), as_i64(b)));
          break;
        case Op::kIAnd:
          out = a & b;
          break;
        case Op::kIOr:
          out = a | b;
          break;
        case Op::kIXor:
          out = a ^ b;
          break;
        case Op::kShl:
          out = from_i64(as_i64(a) << (as_i64(b) & 63));
          break;
        case Op::kShr:
          out = from_i64(as_i64(a) >> (as_i64(b) & 63));
          break;
        case Op::kSetp: {
          bool result = false;
          if (ins.dtype == DType::kF32) {
            const float x = as_f32(a);
            const float y = as_f32(b);
            switch (ins.cmp) {
              case Cmp::kLt: result = x < y; break;
              case Cmp::kLe: result = x <= y; break;
              case Cmp::kGt: result = x > y; break;
              case Cmp::kGe: result = x >= y; break;
              case Cmp::kEq: result = x == y; break;
              case Cmp::kNe: result = x != y; break;
            }
          } else {
            const std::int64_t x = as_i64(a);
            const std::int64_t y = as_i64(b);
            switch (ins.cmp) {
              case Cmp::kLt: result = x < y; break;
              case Cmp::kLe: result = x <= y; break;
              case Cmp::kGt: result = x > y; break;
              case Cmp::kGe: result = x >= y; break;
              case Cmp::kEq: result = x == y; break;
              case Cmp::kNe: result = x != y; break;
            }
          }
          out = result ? 1 : 0;
          break;
        }
        case Op::kSelp:
          out = (c != 0) ? a : b;
          break;
        default:
          throw util::CheckError("interpreter: unhandled opcode in ALU path");
      }
      write_lane(warp, ins.dst, lane, maybe_corrupt(out, SdcSite::kRegWrite));
    }
  }

  void exec_shuffle(WarpState& warp, const Instr& ins,
                    const std::array<bool, kWarpSize>& active) {
    const auto width = static_cast<int>(as_i64(lane_value(warp, ins.c, 0)));
    util::require(width > 0 && width <= kWarpSize && (width & (width - 1)) == 0,
                  "shuffle width must be a power of two in [1, 32]");
    Lanes source{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      source[static_cast<std::size_t>(lane)] = lane_value(warp, ins.a, lane);
    }
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!active[static_cast<std::size_t>(lane)]) {
        continue;
      }
      const int base = lane & ~(width - 1);
      const auto arg = static_cast<int>(as_i64(lane_value(warp, ins.b, lane)));
      int src = lane;
      switch (ins.op) {
        case Op::kShfl: {
          // CUDA: source lane id taken modulo width within the segment.
          int idx = arg % width;
          if (idx < 0) {
            idx += width;
          }
          src = base + idx;
          break;
        }
        case Op::kShflUp:
          // Lanes whose segment offset is below delta keep their own value.
          if ((lane - base) >= arg && arg >= 0) {
            src = lane - arg;
          }
          break;
        case Op::kShflDown:
          if ((lane - base) + arg < width && arg >= 0) {
            src = lane + arg;
          }
          break;
        case Op::kShflXor: {
          const int target = lane ^ arg;
          if (target >= base && target < base + width) {
            src = target;
          }
          break;
        }
        default:
          break;
      }
      write_lane(warp, ins.dst, lane,
                 maybe_corrupt(source[static_cast<std::size_t>(src)], SdcSite::kShuffle));
    }
  }

  /// Executes a shared-memory access and returns the extra cycles caused by
  /// bank-conflict replays.
  long long exec_smem(WarpState& warp, const Instr& ins,
                      const std::array<bool, kWarpSize>& active) {
    const std::int64_t offset = as_i64(lane_value(warp, ins.b, 0));
    const std::size_t bytes = ins.width == MemWidth::kB1 ? 1 : 4;
    // Bank-conflict analysis: transactions = max distinct 4-byte words
    // mapped to the same bank (same-word broadcasts are free).
    std::array<std::vector<std::int64_t>, 32> bank_words;
    bool any_active = false;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!active[static_cast<std::size_t>(lane)]) {
        continue;
      }
      any_active = true;
      const std::int64_t addr = as_i64(lane_value(warp, ins.a, lane)) + offset;
      util::require(addr >= 0 && static_cast<std::size_t>(addr) + bytes <= smem_.data.size(),
                    "shared memory access out of bounds in kernel " + kernel_.name());
      const std::int64_t word = addr / 4;
      auto& words = bank_words[static_cast<std::size_t>(word % dev_.smem_banks)];
      if (std::find(words.begin(), words.end(), word) == words.end()) {
        words.push_back(word);
      }
      if (ins.op == Op::kLds) {
        write_lane(warp, ins.dst, lane, load_bits(smem_.data.data() + addr, ins.width));
      } else {
        const std::uint64_t value =
            maybe_corrupt(lane_value(warp, ins.c, lane), SdcSite::kSmemStore);
        std::memcpy(smem_.data.data() + addr, &value, bytes);
      }
    }
    std::size_t transactions = any_active ? 1 : 0;
    for (const auto& words : bank_words) {
      transactions = std::max(transactions, words.size());
    }
    result_.smem_transactions += transactions;
    return transactions > 1
               ? static_cast<long long>(transactions - 1) * dev_.lat.bank_conflict
               : 0;
  }

  /// Executes a global-memory access and returns the dependent load
  /// latency: cold (DRAM) when any touched 128 B segment is new to this
  /// block, cached when the block already touched every segment — a
  /// one-bit L1/texture-cache approximation.
  long long exec_gmem(WarpState& warp, const Instr& ins,
                      const std::array<bool, kWarpSize>& active) {
    const std::int64_t offset = as_i64(lane_value(warp, ins.b, 0));
    const std::size_t bytes = ins.width == MemWidth::kB1 ? 1 : 4;
    std::vector<std::int64_t> segments;
    bool any_cold = false;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!active[static_cast<std::size_t>(lane)]) {
        continue;
      }
      const std::int64_t addr = as_i64(lane_value(warp, ins.a, lane)) + offset;
      const std::int64_t segment = addr / 128;
      if (std::find(segments.begin(), segments.end(), segment) == segments.end()) {
        segments.push_back(segment);
      }
      if (warm_segments_.insert(segment).second) {
        any_cold = true;
      }
      if (ins.op == Op::kLdg) {
        write_lane(warp, ins.dst, lane, load_bits(gmem_.at(addr, bytes), ins.width));
      } else {
        const std::uint64_t value = lane_value(warp, ins.c, lane);
        std::memcpy(gmem_.at(addr, bytes), &value, bytes);
        if (writes_ != nullptr) {
          writes_->add(addr, bytes);
        }
      }
    }
    result_.gmem_transactions += segments.size();
    if (ins.op != Op::kLdg) {
      return 0;  // store latency is charged via base_latency
    }
    return any_cold ? dev_.lat.gmem_load : dev_.lat.gmem_load_cached;
  }

  const Kernel& kernel_;
  const DeviceSpec& dev_;
  GlobalMemory& gmem_;
  SharedMemory smem_;
  std::vector<WarpState> warps_;
  std::vector<std::size_t> loop_match_;
  std::unordered_set<std::int64_t> warm_segments_;
  Trace* trace_ = nullptr;
  GmemWriteSet* writes_ = nullptr;
  const SdcPlan* sdc_ = nullptr;
  std::uint64_t sdc_stream_ = 0;
  std::uint64_t sdc_events_ = 0;
  long long max_cycles_ = 0;
  BlockResult result_;
};

}  // namespace

BlockResult run_block(const Kernel& kernel, const DeviceSpec& device, GlobalMemory& gmem,
                      std::span<const std::uint64_t> scalar_args, Trace* trace,
                      GmemWriteSet* writes) {
  BlockRunOptions options;
  options.trace = trace;
  options.writes = writes;
  return run_block(kernel, device, gmem, scalar_args, options);
}

BlockResult run_block(const Kernel& kernel, const DeviceSpec& device, GlobalMemory& gmem,
                      std::span<const std::uint64_t> scalar_args,
                      const BlockRunOptions& options) {
  const InterpPath path = resolve_interp_path(options.interp);
  if (path == InterpPath::kFast || path == InterpPath::kVector) {
    const auto dispatch = [&](const DecodedProgram& program) {
      return path == InterpPath::kVector
                 ? run_block_vector(program, device, gmem, scalar_args, options)
                 : run_block_fast(program, device, gmem, scalar_args, options);
    };
    if (options.decoded != nullptr) {
      return dispatch(*options.decoded);
    }
    const std::shared_ptr<const DecodedProgram> program =
        shared_decoded_cache().get(kernel, device);
    return dispatch(*program);
  }
  BlockEngine engine(kernel, device, gmem, scalar_args, options);
  return engine.run();
}

}  // namespace wsim::simt
