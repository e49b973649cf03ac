#pragma once

// Shared execution core of the predecoded interpreters (see decode.hpp).
//
// EngineBase is the CRTP base both engines in front of the DecodedProgram
// stream derive from:
//
//   * FastEngine (fastpath.cpp) — per-opcode scalar handler dispatch with
//     superinstruction fusion; the reference fast path.
//   * VectorEngine (vectorpath.cpp) — lane-vector execution: all 32 lanes
//     of an unpredicated instruction in a handful of SIMD ops, falling
//     back to the scalar handlers here for divergent (predicated) work.
//
// Everything timing- or semantics-bearing lives in the base so the two
// engines cannot drift: the warp state, the scoreboard bookkeeping
// (issue_start/finish), the memory models (exec_smem/exec_gmem), the
// barrier rendezvous in run(), SDC injection, and the scalar handler
// tables. A derived engine customizes dispatch only, by shadowing
// run_until_barrier; run() calls it through the CRTP downcast.
//
// The contract, enforced by interp_equivalence_test: functional outputs,
// every BlockResult counter, SDC write-event numbering, trace contents,
// and the error surface (messages included) are bit-identical to the
// legacy BlockEngine in interpreter.cpp. Any change here must preserve
// the legacy path's exact operation order per warp; warps still execute
// sequentially in warp order between barriers.

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "wsim/simt/decode.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/sdc.hpp"
#include "wsim/simt/trace.hpp"
#include "wsim/simt/watchdog.hpp"
#include "wsim/util/check.hpp"

namespace wsim::simt::fastdetail {

constexpr int kWarpSize = 32;
/// Cycles lost to the taken backward branch closing each loop iteration
/// (must match the legacy interpreter's constant).
constexpr long long kBranchCycles = 2;

inline float as_f32(std::uint64_t bits) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
}

inline std::uint64_t from_f32(float value) noexcept {
  return std::bit_cast<std::uint32_t>(value);
}

inline std::int64_t as_i64(std::uint64_t bits) noexcept {
  return static_cast<std::int64_t>(bits);
}

inline std::uint64_t from_i64(std::int64_t value) noexcept {
  return static_cast<std::uint64_t>(value);
}

inline std::uint64_t load_bits(const std::uint8_t* src, MemWidth width) noexcept {
  if (width == MemWidth::kB1) {
    return *src;
  }
  std::int32_t word = 0;
  std::memcpy(&word, src, 4);
  return from_i64(word);
}

template <typename T>
bool compare(Cmp cmp, T x, T y) noexcept {
  switch (cmp) {
    case Cmp::kLt: return x < y;
    case Cmp::kLe: return x <= y;
    case Cmp::kGt: return x > y;
    case Cmp::kGe: return x >= y;
    case Cmp::kEq: return x == y;
    case Cmp::kNe: return x != y;
  }
  return false;
}

/// Resolved operand: per-lane pointer for vector registers, broadcast
/// value for scalars/immediates — replaces the legacy per-lane kind
/// switch with one predictable branch.
struct Ref {
  const std::uint64_t* lanes = nullptr;
  std::uint64_t broadcast = 0;

  std::uint64_t value(int lane) const noexcept {
    return lanes != nullptr ? lanes[static_cast<std::size_t>(lane)] : broadcast;
  }
};

/// The per-lane pure computation of one ExecClass::kSimple op, selected at
/// compile time so the lane loop it sits in contains no opcode switch.
template <LaneOp L>
std::uint64_t lane_apply(const Ref& ra, const Ref& rb, const Ref& rc, Cmp cmp,
                         int base_tid, int warp_index, int lane) noexcept {
  [[maybe_unused]] const std::uint64_t a = ra.value(lane);
  [[maybe_unused]] const std::uint64_t b = rb.value(lane);
  [[maybe_unused]] const std::uint64_t c = rc.value(lane);
  if constexpr (L == LaneOp::kMov) {
    return a;
  } else if constexpr (L == LaneOp::kTid) {
    return from_i64(base_tid + lane);
  } else if constexpr (L == LaneOp::kLaneId) {
    return from_i64(lane);
  } else if constexpr (L == LaneOp::kWarpId) {
    return from_i64(warp_index);
  } else if constexpr (L == LaneOp::kFAdd) {
    return from_f32(as_f32(a) + as_f32(b));
  } else if constexpr (L == LaneOp::kFSub) {
    return from_f32(as_f32(a) - as_f32(b));
  } else if constexpr (L == LaneOp::kFMul) {
    return from_f32(as_f32(a) * as_f32(b));
  } else if constexpr (L == LaneOp::kFFma) {
    return from_f32(as_f32(a) * as_f32(b) + as_f32(c));
  } else if constexpr (L == LaneOp::kFMax) {
    return from_f32(std::max(as_f32(a), as_f32(b)));
  } else if constexpr (L == LaneOp::kFMin) {
    return from_f32(std::min(as_f32(a), as_f32(b)));
  } else if constexpr (L == LaneOp::kIAdd) {
    return a + b;  // wrapping: two's-complement arithmetic on the raw bits
  } else if constexpr (L == LaneOp::kISub) {
    return a - b;
  } else if constexpr (L == LaneOp::kIMul) {
    return a * b;
  } else if constexpr (L == LaneOp::kIMax) {
    return from_i64(std::max(as_i64(a), as_i64(b)));
  } else if constexpr (L == LaneOp::kIMin) {
    return from_i64(std::min(as_i64(a), as_i64(b)));
  } else if constexpr (L == LaneOp::kIAnd) {
    return a & b;
  } else if constexpr (L == LaneOp::kIOr) {
    return a | b;
  } else if constexpr (L == LaneOp::kIXor) {
    return a ^ b;
  } else if constexpr (L == LaneOp::kShl) {
    return from_i64(as_i64(a) << (as_i64(b) & 63));
  } else if constexpr (L == LaneOp::kShr) {
    return from_i64(as_i64(a) >> (as_i64(b) & 63));
  } else if constexpr (L == LaneOp::kSetpF32) {
    return compare(cmp, as_f32(a), as_f32(b)) ? 1 : 0;
  } else if constexpr (L == LaneOp::kSetpI64) {
    return compare(cmp, as_i64(a), as_i64(b)) ? 1 : 0;
  } else if constexpr (L == LaneOp::kSelp) {
    return (c != 0) ? a : b;
  } else {
    return 0;  // LaneOp::kNop — callers never write this
  }
}

template <class Derived>
struct EngineBase {
  /// Per-warp execution state; registers live in one flat per-warp array
  /// (reg * 32 + lane) so handler lane loops walk contiguous memory — and
  /// so the vector engine can load a register's 32 lanes as four (or two)
  /// full-width SIMD vectors.
  struct Warp {
    int warp_index = 0;
    std::size_t pc = 0;
    long long cursor = 0;         ///< next issue cycle
    long long cur_cycle = -1;     ///< cycle of the current issue group
    int issued_this_cycle = 0;    ///< instructions issued in cur_cycle
    long long last_complete = 0;  ///< completion time of the latest instruction
    std::vector<std::uint64_t> v;
    std::vector<long long> vready;
    std::vector<std::uint64_t> s;
    std::vector<long long> sready;
    struct LoopFrame {
      std::size_t begin_pc;
      std::int64_t remaining;
    };
    std::vector<LoopFrame> loops;
    bool at_barrier = false;
    std::size_t barrier_pc = 0;
    bool done = false;
  };

  EngineBase(const DecodedProgram& prog, const DeviceSpec& device, GlobalMemory& gmem,
             std::span<const std::uint64_t> scalar_args, const BlockRunOptions& options)
      : prog_(prog),
        dev_(device),
        gmem_(gmem),
        trace_(options.trace),
        writes_(options.writes),
        sdc_(options.sdc != nullptr ? options.sdc->block(options.sdc_stream)
                                    : SdcPlan::Block{}),
        max_cycles_(options.max_cycles),
        // Fused lane-interleaved loops reorder per-lane write events across
        // the group's constituents; under SDC injection that would renumber
        // events, so fused groups fall back to constituent-at-a-time
        // execution (still on the decoded form).
        use_fused_(!sdc_.active()) {
    smem_.assign(static_cast<std::size_t>(prog.smem_bytes), 0);
    warps_.resize(static_cast<std::size_t>(prog.warps));
    for (int w = 0; w < prog.warps; ++w) {
      Warp& warp = warps_[static_cast<std::size_t>(w)];
      warp.warp_index = w;
      warp.v.assign(static_cast<std::size_t>(prog.vreg_count) * kWarpSize, 0);
      warp.vready.assign(static_cast<std::size_t>(prog.vreg_count), 0);
      warp.s.assign(static_cast<std::size_t>(prog.sreg_count), 0);
      warp.sready.assign(warp.s.size(), 0);
      for (std::size_t i = 0; i < scalar_args.size() && i < warp.s.size(); ++i) {
        warp.s[i] = scalar_args[i];
      }
    }
  }

  Derived& derived() noexcept { return static_cast<Derived&>(*this); }

  BlockResult run() {
    while (true) {
      bool any_running = false;
      for (Warp& warp : warps_) {
        if (!warp.done && !warp.at_barrier) {
          derived().run_until_barrier(warp);
          any_running = true;
        }
      }
      if (!any_running) {
        break;
      }
      const bool all_done =
          std::all_of(warps_.begin(), warps_.end(), [](const Warp& w) { return w.done; });
      if (all_done) {
        break;
      }
      const bool any_barrier = std::any_of(warps_.begin(), warps_.end(),
                                           [](const Warp& w) { return w.at_barrier; });
      if (any_barrier) {
        bool any_done = false;
        bool divergent = false;
        bool have_pc = false;
        std::size_t join_pc = 0;
        long long waited = 0;
        for (const Warp& warp : warps_) {
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
              "barrier deadlock in kernel " + prog_.name + ": " +
                  (any_done
                       ? "some warps finished while others wait at __syncthreads"
                       : "warps wait at different __syncthreads"),
              waited, max_cycles_);
        }
        long long arrival = 0;
        for (const Warp& warp : warps_) {
          arrival = std::max(arrival, warp.cursor);
        }
        const long long released = arrival + dev_.lat.sync_barrier;
        for (Warp& warp : warps_) {
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
    for (const Warp& warp : warps_) {
      result_.cycles = std::max(result_.cycles, std::max(warp.cursor, warp.last_complete));
    }
    check_budget(result_.cycles);
    return result_;
  }

  // --- operand access -------------------------------------------------------
  Ref ref(const Warp& warp, const Operand& operand) const noexcept {
    switch (operand.kind) {
      case Operand::Kind::kVector:
        return {&warp.v[static_cast<std::size_t>(operand.reg) * kWarpSize], 0};
      case Operand::Kind::kScalar:
        return {nullptr, warp.s[static_cast<std::size_t>(operand.reg)]};
      case Operand::Kind::kImmediate:
        return {nullptr, operand.imm};
      case Operand::Kind::kNone:
        break;
    }
    return {};
  }

  std::uint64_t scalar_operand(const Warp& warp, const Operand& operand) const {
    util::ensure(operand.kind != Operand::Kind::kVector,
                 "interpreter: vector operand in scalar context");
    if (operand.kind == Operand::Kind::kScalar) {
      return warp.s[static_cast<std::size_t>(operand.reg)];
    }
    return operand.kind == Operand::Kind::kImmediate ? operand.imm : 0;
  }

  const std::uint64_t* pred_lanes(const Warp& warp, const DecodedInstr& d) const noexcept {
    return d.pred >= 0 ? &warp.v[static_cast<std::size_t>(d.pred) * kWarpSize] : nullptr;
  }

  static bool lane_active(const std::uint64_t* pv, bool negate, int lane) noexcept {
    if (pv == nullptr) {
      return true;
    }
    const bool p = pv[static_cast<std::size_t>(lane)] != 0;
    return negate ? !p : p;
  }

  // --- timing (identical to the legacy step()'s bookkeeping) ---------------
  long long issue_start(const Warp& warp, const DecodedInstr& d) const noexcept {
    long long start = warp.cursor;
    for (const std::int16_t r : d.rv) {
      if (r >= 0) {
        start = std::max(start, warp.vready[static_cast<std::size_t>(r)]);
      }
    }
    for (const std::int16_t r : d.rs) {
      if (r >= 0) {
        start = std::max(start, warp.sready[static_cast<std::size_t>(r)]);
      }
    }
    return start;
  }

  void finish(Warp& warp, const DecodedInstr& d, long long start, long long latency) {
    const long long complete = start + latency;
    if (d.dst >= 0) {
      if (d.scalar_dst) {
        warp.sready[static_cast<std::size_t>(d.dst)] = complete;
      } else {
        warp.vready[static_cast<std::size_t>(d.dst)] = complete;
      }
    }
    warp.last_complete = std::max(warp.last_complete, complete);
    if (trace_ != nullptr) {
      trace_->add({std::string(to_string(d.op)), warp.warp_index, start, complete});
    }
    if (start > warp.cur_cycle) {
      warp.cur_cycle = start;
      warp.issued_this_cycle = 1;
    } else {
      ++warp.issued_this_cycle;
    }
    warp.cursor = warp.issued_this_cycle >= dev_.lat.issues_per_cycle
                      ? warp.cur_cycle + dev_.lat.issue_interval
                      : warp.cur_cycle;
    check_budget(std::max(warp.cursor, warp.last_complete));
  }

  void check_budget(long long cycles) const {
    if (max_cycles_ > 0 && cycles > max_cycles_) {
      throw LaunchTimeout(LaunchTimeout::Kind::kCycleBudget,
                          "cycle budget exceeded in kernel " + prog_.name + ": " +
                              std::to_string(cycles) + " > " +
                              std::to_string(max_cycles_) + " cycles",
                          cycles, max_cycles_);
    }
  }

  void count_issue(const DecodedInstr& d) {
    result_.instructions += 1;
    result_.op_counts[static_cast<std::size_t>(d.op)] += 1;
  }

  std::uint64_t maybe_corrupt(std::uint64_t value, SdcSite site) {
    if (!sdc_.active()) {
      return value;
    }
    int bit = 0;
    if (sdc_.flips(sdc_events_++, site, &bit)) [[unlikely]] {
      result_.sdc_flips += 1;
      value ^= std::uint64_t{1} << bit;
    }
    return value;
  }

  // --- per-class handlers ---------------------------------------------------
  template <LaneOp L, bool Pred>
  static void exec_simple(EngineBase& e, Warp& warp, const DecodedInstr& d) {
    if constexpr (L == LaneOp::kNop) {
      (void)e;
      (void)warp;
      (void)d;
      return;  // issues and completes, writes nothing
    } else {
      const Ref a = e.ref(warp, d.a);
      const Ref b = e.ref(warp, d.b);
      const Ref c = e.ref(warp, d.c);
      const int base_tid = warp.warp_index * kWarpSize;
      std::uint64_t* dst = &warp.v[static_cast<std::size_t>(d.dst) * kWarpSize];
      [[maybe_unused]] const std::uint64_t* pv = nullptr;
      if constexpr (Pred) {
        pv = &warp.v[static_cast<std::size_t>(d.pred) * kWarpSize];
      }
      for (int lane = 0; lane < kWarpSize; ++lane) {
        if constexpr (Pred) {
          const bool p = pv[static_cast<std::size_t>(lane)] != 0;
          if (d.pred_negate ? p : !p) {
            continue;
          }
        }
        dst[static_cast<std::size_t>(lane)] = e.maybe_corrupt(
            lane_apply<L>(a, b, c, d.cmp, base_tid, warp.warp_index, lane),
            SdcSite::kRegWrite);
      }
    }
  }

  /// Fused superinstruction: two unpredicated per-lane-pure ops in one
  /// lane loop. Values forward through the register file (dst1 is written
  /// before the second op's operands are read in the same lane), which is
  /// order-equivalent to back-to-back execution because each constituent
  /// touches only its own lane.
  template <LaneOp A, LaneOp B>
  static void exec_fused_pair(EngineBase& e, Warp& warp, const DecodedInstr& d1,
                              const DecodedInstr& d2) {
    e.count_issue(d1);
    const long long start1 = e.issue_start(warp, d1);
    const Ref a1 = e.ref(warp, d1.a);
    const Ref b1 = e.ref(warp, d1.b);
    const Ref c1 = e.ref(warp, d1.c);
    const Ref a2 = e.ref(warp, d2.a);
    const Ref b2 = e.ref(warp, d2.b);
    const Ref c2 = e.ref(warp, d2.c);
    const int base_tid = warp.warp_index * kWarpSize;
    std::uint64_t* dst1 = &warp.v[static_cast<std::size_t>(d1.dst) * kWarpSize];
    std::uint64_t* dst2 = &warp.v[static_cast<std::size_t>(d2.dst) * kWarpSize];
    for (int lane = 0; lane < kWarpSize; ++lane) {
      dst1[static_cast<std::size_t>(lane)] =
          lane_apply<A>(a1, b1, c1, d1.cmp, base_tid, warp.warp_index, lane);
      dst2[static_cast<std::size_t>(lane)] =
          lane_apply<B>(a2, b2, c2, d2.cmp, base_tid, warp.warp_index, lane);
    }
    e.finish(warp, d1, start1, d1.latency);
    e.count_issue(d2);
    const long long start2 = e.issue_start(warp, d2);
    e.finish(warp, d2, start2, d2.latency);
  }

  /// Fused shuffle → consumer (→ mov) wavefront update. The shuffle's 32
  /// source lanes are pre-read exactly like the legacy path, then the
  /// whole group runs in one lane loop.
  template <LaneOp B, bool HasMov>
  static void exec_fused_shfl(EngineBase& e, Warp& warp, const DecodedInstr* g) {
    const DecodedInstr& d1 = g[0];
    const DecodedInstr& d2 = g[1];
    e.count_issue(d1);
    const long long start1 = e.issue_start(warp, d1);

    const Ref a1 = e.ref(warp, d1.a);
    const Ref b1 = e.ref(warp, d1.b);
    const Ref c1 = e.ref(warp, d1.c);
    const auto width = static_cast<int>(as_i64(c1.value(0)));
    util::require(width > 0 && width <= kWarpSize && (width & (width - 1)) == 0,
                  "shuffle width must be a power of two in [1, 32]");
    std::array<std::uint64_t, kWarpSize> source{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      source[static_cast<std::size_t>(lane)] = a1.value(lane);
    }

    const Ref a2 = e.ref(warp, d2.a);
    const Ref b2 = e.ref(warp, d2.b);
    const Ref c2 = e.ref(warp, d2.c);
    const int base_tid = warp.warp_index * kWarpSize;
    std::uint64_t* dst1 = &warp.v[static_cast<std::size_t>(d1.dst) * kWarpSize];
    std::uint64_t* dst2 = &warp.v[static_cast<std::size_t>(d2.dst) * kWarpSize];
    [[maybe_unused]] Ref a3;
    [[maybe_unused]] std::uint64_t* dst3 = nullptr;
    if constexpr (HasMov) {
      a3 = e.ref(warp, g[2].a);
      dst3 = &warp.v[static_cast<std::size_t>(g[2].dst) * kWarpSize];
    }
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const int src = shuffle_source(d1.op, lane, width,
                                     static_cast<int>(as_i64(b1.value(lane))));
      dst1[static_cast<std::size_t>(lane)] = source[static_cast<std::size_t>(src)];
      dst2[static_cast<std::size_t>(lane)] =
          lane_apply<B>(a2, b2, c2, d2.cmp, base_tid, warp.warp_index, lane);
      if constexpr (HasMov) {
        dst3[static_cast<std::size_t>(lane)] = a3.value(lane);
      }
    }

    e.finish(warp, d1, start1, d1.latency);
    e.count_issue(d2);
    const long long start2 = e.issue_start(warp, d2);
    e.finish(warp, d2, start2, d2.latency);
    if constexpr (HasMov) {
      e.count_issue(g[2]);
      const long long start3 = e.issue_start(warp, g[2]);
      e.finish(warp, g[2], start3, g[2].latency);
    }
  }

  /// Source-lane selection shared by the fused and generic shuffle
  /// handlers; mirrors the legacy exec_shuffle case for each variant.
  static int shuffle_source(Op op, int lane, int width, int arg) noexcept {
    const int base = lane & ~(width - 1);
    int src = lane;
    switch (op) {
      case Op::kShfl: {
        int idx = arg % width;
        if (idx < 0) {
          idx += width;
        }
        src = base + idx;
        break;
      }
      case Op::kShflUp:
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
    return src;
  }

  void exec_shuffle(Warp& warp, const DecodedInstr& d) {
    const Ref a = ref(warp, d.a);
    const Ref b = ref(warp, d.b);
    const Ref c = ref(warp, d.c);
    const auto width = static_cast<int>(as_i64(c.value(0)));
    util::require(width > 0 && width <= kWarpSize && (width & (width - 1)) == 0,
                  "shuffle width must be a power of two in [1, 32]");
    std::array<std::uint64_t, kWarpSize> source{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      source[static_cast<std::size_t>(lane)] = a.value(lane);
    }
    const std::uint64_t* pv = pred_lanes(warp, d);
    std::uint64_t* dst = &warp.v[static_cast<std::size_t>(d.dst) * kWarpSize];
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(pv, d.pred_negate, lane)) {
        continue;
      }
      const int src =
          shuffle_source(d.op, lane, width, static_cast<int>(as_i64(b.value(lane))));
      dst[static_cast<std::size_t>(lane)] =
          maybe_corrupt(source[static_cast<std::size_t>(src)], SdcSite::kShuffle);
    }
  }

  void exec_scalar(Warp& warp, const DecodedInstr& d) {
    // Scalar ops execute once per warp, unconditionally (the legacy path
    // ignores the active mask for them too).
    std::uint64_t& out = warp.s[static_cast<std::size_t>(d.dst)];
    switch (d.op) {
      case Op::kSMov:
        out = scalar_operand(warp, d.a);
        break;
      case Op::kSAdd:  // wrapping, like kIAdd
        out = scalar_operand(warp, d.a) + scalar_operand(warp, d.b);
        break;
      case Op::kSSub:
        out = scalar_operand(warp, d.a) - scalar_operand(warp, d.b);
        break;
      case Op::kSMul:
        out = scalar_operand(warp, d.a) * scalar_operand(warp, d.b);
        break;
      case Op::kSMin:
        out = from_i64(std::min(as_i64(scalar_operand(warp, d.a)),
                                as_i64(scalar_operand(warp, d.b))));
        break;
      case Op::kSMax:
        out = from_i64(std::max(as_i64(scalar_operand(warp, d.a)),
                                as_i64(scalar_operand(warp, d.b))));
        break;
      default:
        break;
    }
  }

  /// Shared-memory access; returns bank-conflict replay cycles. The
  /// distinct-word collection is allocation-free (a 4-byte word determines
  /// its bank, so global dedup plus a per-word bank count is equivalent to
  /// the legacy per-bank vectors).
  long long exec_smem(Warp& warp, const DecodedInstr& d, const std::uint64_t* pv) {
    const Ref a = ref(warp, d.a);
    const Ref b = ref(warp, d.b);
    const std::int64_t offset = as_i64(b.value(0));
    const std::size_t bytes = d.width == MemWidth::kB1 ? 1 : 4;
    const Ref c = d.cls == ExecClass::kSts ? ref(warp, d.c) : Ref{};
    std::uint64_t* dst = d.cls == ExecClass::kLds
                             ? &warp.v[static_cast<std::size_t>(d.dst) * kWarpSize]
                             : nullptr;
    std::array<std::int64_t, kWarpSize> words;  // only [0, n_words) is read
    int n_words = 0;
    bool any_active = false;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(pv, d.pred_negate, lane)) {
        continue;
      }
      any_active = true;
      const std::int64_t addr = as_i64(a.value(lane)) + offset;
      // Message built only on failure: the concatenation must stay out of
      // the per-lane hot path.
      if (addr < 0 ||
          static_cast<std::size_t>(addr) + bytes > smem_.size()) [[unlikely]] {
        util::require(false,
                      "shared memory access out of bounds in kernel " + prog_.name);
      }
      const std::int64_t word = addr / 4;
      bool seen = false;
      for (int k = 0; k < n_words; ++k) {
        if (words[static_cast<std::size_t>(k)] == word) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        words[static_cast<std::size_t>(n_words++)] = word;
      }
      if (d.cls == ExecClass::kLds) {
        dst[static_cast<std::size_t>(lane)] =
            load_bits(smem_.data() + addr, d.width);
      } else {
        const std::uint64_t value = maybe_corrupt(c.value(lane), SdcSite::kSmemStore);
        std::memcpy(smem_.data() + addr, &value, bytes);
      }
    }
    // transactions = max distinct words mapped to one bank. i = 0 always
    // yields 1 (no earlier words), so the division-heavy scan starts at 1
    // and a single-word access skips it entirely.
    std::size_t transactions = any_active ? 1 : 0;
    for (int i = 1; i < n_words; ++i) {
      std::size_t same_bank = 1;
      const std::int64_t bank = words[static_cast<std::size_t>(i)] % dev_.smem_banks;
      for (int j = 0; j < i; ++j) {
        if (words[static_cast<std::size_t>(j)] % dev_.smem_banks == bank) {
          ++same_bank;
        }
      }
      transactions = std::max(transactions, same_bank);
    }
    result_.smem_transactions += transactions;
    return transactions > 1
               ? static_cast<long long>(transactions - 1) * dev_.lat.bank_conflict
               : 0;
  }

  /// Global-memory access; returns the dependent load latency (cold vs
  /// cached 128 B segments, same one-bit warm-set model as the legacy path).
  /// The lane loop dedups segments, so the warm set takes one insert per
  /// distinct segment after it (an out-of-bounds lane throws first, which
  /// abandons the block and its warm set with it).
  long long exec_gmem(Warp& warp, const DecodedInstr& d, const std::uint64_t* pv) {
    const Ref a = ref(warp, d.a);
    const Ref b = ref(warp, d.b);
    const std::int64_t offset = as_i64(b.value(0));
    const std::size_t bytes = d.width == MemWidth::kB1 ? 1 : 4;
    const Ref c = d.cls == ExecClass::kStg ? ref(warp, d.c) : Ref{};
    std::uint64_t* dst = d.cls == ExecClass::kLdg
                             ? &warp.v[static_cast<std::size_t>(d.dst) * kWarpSize]
                             : nullptr;
    std::array<std::int64_t, kWarpSize> segments;  // only [0, n_segments) is read
    int n_segments = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(pv, d.pred_negate, lane)) {
        continue;
      }
      const std::int64_t addr = as_i64(a.value(lane)) + offset;
      const std::int64_t segment = addr / 128;
      bool seen = false;
      for (int k = 0; k < n_segments; ++k) {
        if (segments[static_cast<std::size_t>(k)] == segment) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        segments[static_cast<std::size_t>(n_segments++)] = segment;
      }
      if (d.cls == ExecClass::kLdg) {
        dst[static_cast<std::size_t>(lane)] = load_bits(gmem_.at(addr, bytes), d.width);
      } else {
        const std::uint64_t value = c.value(lane);
        std::memcpy(gmem_.at(addr, bytes), &value, bytes);
        if (writes_ != nullptr) {
          writes_->add(addr, static_cast<std::size_t>(bytes));
        }
      }
    }
    bool any_cold = false;
    for (int k = 0; k < n_segments; ++k) {
      any_cold |= warm_segments_.insert(segments[static_cast<std::size_t>(k)]).second;
    }
    result_.gmem_transactions += static_cast<std::uint64_t>(n_segments);
    if (d.cls != ExecClass::kLdg) {
      return 0;  // store latency is charged via the baked base latency
    }
    return any_cold ? dev_.lat.gmem_load : dev_.lat.gmem_load_cached;
  }

  /// Fused shared-memory pair: both accesses execute back to back under
  /// one shared predicate mask (the decoder guarantees the first access
  /// cannot rewrite the predicate register).
  void exec_fused_smem(Warp& warp, const DecodedInstr* g) {
    const std::uint64_t* pv = pred_lanes(warp, g[0]);
    for (int k = 0; k < 2; ++k) {
      const DecodedInstr& d = g[k];
      count_issue(d);
      const long long start = issue_start(warp, d);
      const long long latency = d.latency + exec_smem(warp, d, pv);
      finish(warp, d, start, latency);
    }
  }

  void step(Warp& warp, const DecodedInstr& d);
  void exec_fused(Warp& warp, std::size_t pc);

  /// Default dispatch loop: per-instruction scalar handlers plus the
  /// superinstruction handlers. A derived engine may shadow this (run()
  /// calls it through the CRTP downcast).
  void run_until_barrier(Warp& warp) {
    const auto* code = prog_.code.data();
    const std::size_t n = prog_.code.size();
    while (warp.pc < n) {
      const DecodedInstr& d = code[warp.pc];
      if (d.cls == ExecClass::kBar) {
        if (handle_barrier(warp, d)) {
          return;
        }
        continue;
      }
      if (use_fused_ && d.fused != FusedKind::kNone) {
        exec_fused(warp, warp.pc);
        warp.pc += d.fuse_len;
        continue;
      }
      step(warp, d);
      ++warp.pc;
    }
    warp.done = true;
  }

  /// kBar bookkeeping shared by every dispatch loop: parks the warp at the
  /// barrier (returns true) or skips an all-inactive predicated barrier
  /// (returns false, pc already advanced).
  bool handle_barrier(Warp& warp, const DecodedInstr& d) {
    if (d.pred >= 0) {
      const std::uint64_t* pv = pred_lanes(warp, d);
      bool any = false;
      for (int lane = 0; lane < kWarpSize; ++lane) {
        if (lane_active(pv, d.pred_negate, lane)) {
          any = true;
          break;
        }
      }
      if (!any) {
        ++warp.pc;
        return false;
      }
    }
    warp.at_barrier = true;
    warp.barrier_pc = warp.pc;
    ++warp.pc;
    count_issue(d);
    return true;
  }

  const DecodedProgram& prog_;
  const DeviceSpec& dev_;
  GlobalMemory& gmem_;
  std::vector<std::uint8_t> smem_;
  std::vector<Warp> warps_;
  std::unordered_set<std::int64_t> warm_segments_;
  Trace* trace_ = nullptr;
  GmemWriteSet* writes_ = nullptr;
  SdcPlan::Block sdc_;
  std::uint64_t sdc_events_ = 0;
  long long max_cycles_ = 0;
  bool use_fused_ = true;
  BlockResult result_;
};

// --- handler tables ---------------------------------------------------------
//
// Instantiated per engine type (the function pointers bind to
// EngineBase<Derived> member specializations), so each derived engine gets
// its own monomorphized copies and the optimizer sees through the calls.

template <class E>
using SimpleFn = void (*)(E&, typename E::Warp&, const DecodedInstr&);
template <class E>
using PairFn = void (*)(E&, typename E::Warp&, const DecodedInstr&,
                        const DecodedInstr&);
template <class E>
using ShflFn = void (*)(E&, typename E::Warp&, const DecodedInstr*);

template <class E, std::size_t... I>
constexpr std::array<std::array<SimpleFn<E>, 2>, kNumLaneOps> make_simple_table(
    std::index_sequence<I...>) {
  return {{{{&E::template exec_simple<static_cast<LaneOp>(I), false>,
             &E::template exec_simple<static_cast<LaneOp>(I), true>}}...}};
}

/// Per-opcode dispatch table: [LaneOp][predicated]. Populated for every
/// lane op so ExecClass::kSimple never falls back to a switch.
template <class E>
inline constexpr auto kSimpleTableFor =
    make_simple_table<E>(std::make_index_sequence<kNumLaneOps>{});

template <class E, LaneOp A, LaneOp B>
constexpr PairFn<E> pick_pair() {
  // if constexpr keeps non-fusible combinations uninstantiated; the table
  // therefore stays in lockstep with the decoder's fusibility predicate.
  if constexpr (fusible_simple_pair(A, B)) {
    return &E::template exec_fused_pair<A, B>;
  } else {
    return nullptr;
  }
}

template <class E, std::size_t A, std::size_t... B>
constexpr std::array<PairFn<E>, kNumLaneOps> make_pair_row(std::index_sequence<B...>) {
  return {{pick_pair<E, static_cast<LaneOp>(A), static_cast<LaneOp>(B)>()...}};
}

template <class E, std::size_t... A>
constexpr std::array<std::array<PairFn<E>, kNumLaneOps>, kNumLaneOps> make_pair_table(
    std::index_sequence<A...>) {
  return {{make_pair_row<E, A>(std::make_index_sequence<kNumLaneOps>{})...}};
}

/// Fused-pair dispatch: [leader LaneOp][second LaneOp]; null where the
/// decoder never marks a pair.
template <class E>
inline constexpr auto kPairTableFor =
    make_pair_table<E>(std::make_index_sequence<kNumLaneOps>{});

template <class E, LaneOp B>
constexpr std::array<ShflFn<E>, 2> pick_shfl() {
  if constexpr (fusible_shfl_consumer(B)) {
    return {{&E::template exec_fused_shfl<B, false>,
             &E::template exec_fused_shfl<B, true>}};
  } else {
    return {{nullptr, nullptr}};
  }
}

template <class E, std::size_t... B>
constexpr std::array<std::array<ShflFn<E>, 2>, kNumLaneOps> make_shfl_table(
    std::index_sequence<B...>) {
  return {{pick_shfl<E, static_cast<LaneOp>(B)>()...}};
}

/// Fused shuffle-group dispatch: [consumer LaneOp][has trailing kMov].
template <class E>
inline constexpr auto kShflTableFor =
    make_shfl_table<E>(std::make_index_sequence<kNumLaneOps>{});

template <class Derived>
void EngineBase<Derived>::step(Warp& warp, const DecodedInstr& d) {
  count_issue(d);

  if (d.cls == ExecClass::kLoop) {
    const auto trips = as_i64(scalar_operand(warp, d.a));
    if (trips <= 0) {
      warp.pc = d.match;  // caller's ++pc steps past the matching kEndLoop
    } else {
      warp.loops.push_back({warp.pc, trips});
    }
    warp.cursor += dev_.lat.issue_interval;
    return;
  }
  if (d.cls == ExecClass::kEndLoop) {
    util::ensure(!warp.loops.empty(), "interpreter: endloop without loop");
    typename Warp::LoopFrame& frame = warp.loops.back();
    if (--frame.remaining > 0) {
      warp.pc = frame.begin_pc;  // caller increments to the first body instruction
    } else {
      warp.loops.pop_back();
    }
    warp.cursor += kBranchCycles;
    return;
  }

  const long long start = issue_start(warp, d);
  long long latency = d.latency;
  switch (d.cls) {
    case ExecClass::kSimple:
      kSimpleTableFor<EngineBase>[static_cast<std::size_t>(d.lane)][d.pred >= 0 ? 1 : 0](
          *this, warp, d);
      break;
    case ExecClass::kScalar:
      exec_scalar(warp, d);
      break;
    case ExecClass::kShuffle:
      exec_shuffle(warp, d);
      break;
    case ExecClass::kLds:
    case ExecClass::kSts:
      latency += exec_smem(warp, d, pred_lanes(warp, d));
      break;
    case ExecClass::kLdg:
    case ExecClass::kStg:
      latency += exec_gmem(warp, d, pred_lanes(warp, d));
      break;
    default:
      break;  // kBar/kLoop/kEndLoop never reach here
  }
  finish(warp, d, start, latency);
}

template <class Derived>
void EngineBase<Derived>::exec_fused(Warp& warp, std::size_t pc) {
  const DecodedInstr* g = &prog_.code[pc];
  switch (g->fused) {
    case FusedKind::kSimplePair:
      kPairTableFor<EngineBase>[static_cast<std::size_t>(g[0].lane)][static_cast<std::size_t>(
          g[1].lane)](*this, warp, g[0], g[1]);
      break;
    case FusedKind::kShflAlu:
      kShflTableFor<EngineBase>[static_cast<std::size_t>(g[1].lane)][0](*this, warp, g);
      break;
    case FusedKind::kShflAluMov:
      kShflTableFor<EngineBase>[static_cast<std::size_t>(g[1].lane)][1](*this, warp, g);
      break;
    case FusedKind::kSmemPair:
      exec_fused_smem(warp, g);
      break;
    case FusedKind::kNone:
      break;
  }
}

}  // namespace wsim::simt::fastdetail
