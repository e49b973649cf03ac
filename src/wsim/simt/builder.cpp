#include "wsim/simt/builder.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::simt {

namespace {

bool is_scalar_op(Op op) noexcept {
  switch (op) {
    case Op::kSMov:
    case Op::kSAdd:
    case Op::kSSub:
    case Op::kSMul:
    case Op::kSMin:
    case Op::kSMax:
      return true;
    default:
      return false;
  }
}

/// Live interval of one virtual register over instruction indices.
struct Interval {
  int vreg = -1;
  int start = -1;
  int end = -1;
  bool first_event_is_pure_def = false;
};

struct LoopRegion {
  int begin = 0;  ///< index of kLoop
  int end = 0;    ///< index of kEndLoop
};

std::vector<LoopRegion> find_loops(const std::vector<Instr>& code) {
  std::vector<LoopRegion> regions;
  std::vector<int> stack;
  for (int i = 0; i < static_cast<int>(code.size()); ++i) {
    if (code[i].op == Op::kLoop) {
      stack.push_back(i);
    } else if (code[i].op == Op::kEndLoop) {
      util::ensure(!stack.empty(), "register allocator: unbalanced loops");
      regions.push_back({stack.back(), i});
      stack.pop_back();
    }
  }
  util::ensure(stack.empty(), "register allocator: unbalanced loops");
  return regions;
}

/// Computes live intervals for every virtual vector register. An interval
/// that touches a loop region is extended to cover the whole region when
/// the value is live across iterations: either it also exists outside the
/// region, or its first event inside the region is a use (loop-carried
/// dependence, e.g. the paper's reg3 = reg2 rotation).
std::vector<Interval> live_intervals(const std::vector<Instr>& code, int vreg_count) {
  std::vector<Interval> intervals(static_cast<std::size_t>(vreg_count));
  for (int v = 0; v < vreg_count; ++v) {
    intervals[static_cast<std::size_t>(v)].vreg = v;
  }
  auto touch = [&](int v, int index, bool pure_def) {
    util::ensure(v >= 0 && v < vreg_count, "register allocator: vreg out of range");
    Interval& iv = intervals[static_cast<std::size_t>(v)];
    if (iv.start < 0) {
      iv.start = index;
      iv.end = index;
      iv.first_event_is_pure_def = pure_def;
    } else {
      iv.end = std::max(iv.end, index);
    }
  };
  for (int i = 0; i < static_cast<int>(code.size()); ++i) {
    const Instr& ins = code[i];
    for (const Operand* operand : {&ins.a, &ins.b, &ins.c}) {
      if (operand->kind == Operand::Kind::kVector) {
        touch(operand->reg, i, /*pure_def=*/false);
      }
    }
    if (ins.pred >= 0) {
      touch(ins.pred, i, /*pure_def=*/false);
    }
    if (ins.dst >= 0 && !is_scalar_op(ins.op)) {
      // A predicated write preserves the old value in inactive lanes, so it
      // behaves as a use as well as a def.
      touch(ins.dst, i, /*pure_def=*/ins.pred < 0);
    }
  }

  const auto loops = find_loops(code);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const LoopRegion& loop : loops) {
      for (Interval& iv : intervals) {
        if (iv.start < 0) {
          continue;
        }
        const bool touches = iv.start <= loop.end && iv.end >= loop.begin;
        if (!touches) {
          continue;
        }
        const bool escapes = iv.start < loop.begin || iv.end > loop.end;
        const bool carried = !escapes && !iv.first_event_is_pure_def;
        if (escapes || carried) {
          const int new_start = std::min(iv.start, loop.begin);
          const int new_end = std::max(iv.end, loop.end);
          if (new_start != iv.start || new_end != iv.end) {
            iv.start = new_start;
            iv.end = new_end;
            changed = true;
          }
        }
      }
    }
  }
  return intervals;
}

/// Greedy linear-scan allocation; returns the virtual→physical map and the
/// number of physical registers used.
std::pair<std::vector<int>, int> linear_scan(std::vector<Interval> intervals) {
  std::vector<int> mapping(intervals.size(), -1);
  std::vector<Interval> live;
  std::erase_if(intervals, [](const Interval& iv) { return iv.start < 0; });
  std::sort(intervals.begin(), intervals.end(), [](const Interval& x, const Interval& y) {
    return x.start != y.start ? x.start < y.start : x.vreg < y.vreg;
  });
  std::vector<bool> in_use;
  std::vector<std::pair<int, int>> active;  // (end, phys)
  int phys_count = 0;
  for (const Interval& iv : intervals) {
    std::erase_if(active, [&](const std::pair<int, int>& entry) {
      if (entry.first < iv.start) {
        in_use[static_cast<std::size_t>(entry.second)] = false;
        return true;
      }
      return false;
    });
    int phys = -1;
    for (int r = 0; r < static_cast<int>(in_use.size()); ++r) {
      if (!in_use[static_cast<std::size_t>(r)]) {
        phys = r;
        break;
      }
    }
    if (phys < 0) {
      phys = static_cast<int>(in_use.size());
      in_use.push_back(false);
    }
    in_use[static_cast<std::size_t>(phys)] = true;
    active.emplace_back(iv.end, phys);
    mapping[static_cast<std::size_t>(iv.vreg)] = phys;
    phys_count = std::max(phys_count, phys + 1);
  }
  return {std::move(mapping), phys_count};
}

void rewrite_registers(std::vector<Instr>& code, const std::vector<int>& mapping) {
  auto remap = [&](Operand& operand) {
    if (operand.kind == Operand::Kind::kVector) {
      operand.reg = mapping[static_cast<std::size_t>(operand.reg)];
      util::ensure(operand.reg >= 0, "register allocator: unmapped operand");
    }
  };
  for (Instr& ins : code) {
    remap(ins.a);
    remap(ins.b);
    remap(ins.c);
    if (ins.pred >= 0) {
      ins.pred = mapping[static_cast<std::size_t>(ins.pred)];
      util::ensure(ins.pred >= 0, "register allocator: unmapped predicate");
    }
    if (ins.dst >= 0 && !is_scalar_op(ins.op)) {
      ins.dst = mapping[static_cast<std::size_t>(ins.dst)];
      util::ensure(ins.dst >= 0, "register allocator: unmapped destination");
    }
  }
}

}  // namespace

// --- instruction scheduling -------------------------------------------------
//
// The interpreter issues in order (as GPU warps do), so a naive emission
// order serializes independent dependence chains. Real compilers
// list-schedule straight-line code to overlap them; this pass does the
// same within each region between control-flow / barrier instructions,
// honouring RAW/WAR/WAW register dependences, predicate reads, and a
// conservative memory order (loads commute, stores do not).

namespace {

bool is_region_boundary(Op op) noexcept {
  switch (op) {
    case Op::kLoop:
    case Op::kEndLoop:
    case Op::kBar:
      return true;
    default:
      return false;
  }
}

bool is_mem_op(Op op) noexcept {
  switch (op) {
    case Op::kLds:
    case Op::kSts:
    case Op::kLdg:
    case Op::kStg:
      return true;
    default:
      return false;
  }
}

bool is_store(Op op) noexcept { return op == Op::kSts || op == Op::kStg; }

/// Space id for memory ordering: 0 = shared, 1 = global.
int mem_space(Op op) noexcept {
  return (op == Op::kLds || op == Op::kSts) ? 0 : 1;
}

/// Static latency weights for scheduling priority (device-independent;
/// approximate Maxwell).
int sched_latency(Op op) noexcept {
  switch (op) {
    case Op::kIMul:
    case Op::kSMul:
      return 13;
    case Op::kShfl:
    case Op::kShflUp:
    case Op::kShflDown:
    case Op::kShflXor:
      return 10;
    case Op::kLds:
      return 21;
    case Op::kLdg:
      return 80;
    case Op::kMov:
      return 1;
    case Op::kSts:
    case Op::kStg:
      return 2;
    default:
      return 6;
  }
}

/// List-schedules one straight-line region [begin, end) in place.
void schedule_region(std::vector<Instr>& code, int begin, int end) {
  const int n = end - begin;
  if (n <= 2) {
    return;
  }
  // Dependence edges: succ lists + indegrees.
  std::vector<std::vector<int>> succs(static_cast<std::size_t>(n));
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  auto add_edge = [&](int from, int to) {
    if (from == to) {
      return;
    }
    succs[static_cast<std::size_t>(from)].push_back(to);
    ++indegree[static_cast<std::size_t>(to)];
  };

  // Register access tracking: last def and uses-since-def, per (bank, reg).
  struct Access {
    int last_def = -1;
    std::vector<int> uses_since_def;
  };
  std::unordered_map<std::int64_t, Access> regs;
  auto key_of = [](bool scalar, int reg) {
    return (static_cast<std::int64_t>(scalar) << 32) | reg;
  };
  auto on_use = [&](bool scalar, int reg, int node) {
    Access& acc = regs[key_of(scalar, reg)];
    if (acc.last_def >= 0) {
      add_edge(acc.last_def, node);  // RAW
    }
    acc.uses_since_def.push_back(node);
  };
  auto on_def = [&](bool scalar, int reg, int node) {
    Access& acc = regs[key_of(scalar, reg)];
    if (acc.last_def >= 0) {
      add_edge(acc.last_def, node);  // WAW
    }
    for (const int use : acc.uses_since_def) {
      add_edge(use, node);  // WAR
    }
    acc.uses_since_def.clear();
    acc.last_def = node;
  };

  int last_store[2] = {-1, -1};
  std::vector<int> loads_since_store[2];

  for (int i = 0; i < n; ++i) {
    const Instr& ins = code[static_cast<std::size_t>(begin + i)];
    for (const Operand* operand : {&ins.a, &ins.b, &ins.c}) {
      if (operand->kind == Operand::Kind::kVector) {
        on_use(false, operand->reg, i);
      } else if (operand->kind == Operand::Kind::kScalar) {
        on_use(true, operand->reg, i);
      }
    }
    if (ins.pred >= 0) {
      on_use(false, ins.pred, i);
    }
    if (ins.dst >= 0) {
      const bool scalar = is_scalar_op(ins.op);
      if (ins.pred >= 0 && !scalar) {
        on_use(false, ins.dst, i);  // predicated write keeps old value
      }
      on_def(scalar, ins.dst, i);
    }
    if (is_mem_op(ins.op)) {
      const int space = mem_space(ins.op);
      if (is_store(ins.op)) {
        if (last_store[space] >= 0) {
          add_edge(last_store[space], i);
        }
        for (const int load : loads_since_store[space]) {
          add_edge(load, i);
        }
        loads_since_store[space].clear();
        last_store[space] = i;
      } else {
        if (last_store[space] >= 0) {
          add_edge(last_store[space], i);
        }
        loads_since_store[space].push_back(i);
      }
    }
  }

  // Priority: longest latency path to any sink.
  std::vector<int> height(static_cast<std::size_t>(n), 0);
  for (int i = n - 1; i >= 0; --i) {
    int best = 0;
    for (const int succ : succs[static_cast<std::size_t>(i)]) {
      best = std::max(best, height[static_cast<std::size_t>(succ)]);
    }
    height[static_cast<std::size_t>(i)] =
        best + sched_latency(code[static_cast<std::size_t>(begin + i)].op);
  }

  // Greedy topological order by descending height (original index breaks
  // ties for determinism).
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) {
      ready.push_back(i);
    }
  }
  while (!ready.empty()) {
    int pick = 0;
    for (int r = 1; r < static_cast<int>(ready.size()); ++r) {
      const int cand = ready[static_cast<std::size_t>(r)];
      const int cur = ready[static_cast<std::size_t>(pick)];
      if (height[static_cast<std::size_t>(cand)] > height[static_cast<std::size_t>(cur)] ||
          (height[static_cast<std::size_t>(cand)] == height[static_cast<std::size_t>(cur)] &&
           cand < cur)) {
        pick = r;
      }
    }
    const int node = ready[static_cast<std::size_t>(pick)];
    ready.erase(ready.begin() + pick);
    order.push_back(node);
    for (const int succ : succs[static_cast<std::size_t>(node)]) {
      if (--indegree[static_cast<std::size_t>(succ)] == 0) {
        ready.push_back(succ);
      }
    }
  }
  util::ensure(order.size() == static_cast<std::size_t>(n),
               "scheduler: dependence graph has a cycle");

  std::vector<Instr> scheduled;
  scheduled.reserve(static_cast<std::size_t>(n));
  for (const int node : order) {
    scheduled.push_back(code[static_cast<std::size_t>(begin + node)]);
  }
  std::copy(scheduled.begin(), scheduled.end(),
            code.begin() + begin);
}

void schedule_instructions(std::vector<Instr>& code) {
  int region_start = 0;
  for (int i = 0; i <= static_cast<int>(code.size()); ++i) {
    if (i == static_cast<int>(code.size()) || is_region_boundary(code[static_cast<std::size_t>(i)].op)) {
      schedule_region(code, region_start, i);
      region_start = i + 1;
    }
  }
}

}  // namespace

KernelBuilder::KernelBuilder(std::string name, int threads_per_block) {
  util::require(threads_per_block > 0 && threads_per_block % 32 == 0,
                "KernelBuilder: threads_per_block must be a positive multiple of 32");
  name_ = std::move(name);
  threads_per_block_ = threads_per_block;
}

VReg KernelBuilder::vreg() { return VReg{next_vreg_++}; }

SReg KernelBuilder::sreg() { return SReg{next_sreg_++}; }

SReg KernelBuilder::param() { return SReg{next_sreg_++}; }

int KernelBuilder::alloc_smem(int bytes, int align) {
  util::require(bytes > 0, "alloc_smem: bytes must be positive");
  util::require(align > 0 && (align & (align - 1)) == 0, "alloc_smem: align must be a power of two");
  smem_cursor_ = (smem_cursor_ + align - 1) & ~(align - 1);
  const int offset = smem_cursor_;
  smem_cursor_ += bytes;
  return offset;
}

void KernelBuilder::push(Instr instr) {
  util::require(!built_, "KernelBuilder: already built");
  instr.pred = cur_pred_;
  instr.pred_negate = cur_pred_negate_;
  code_.push_back(instr);
}

VReg KernelBuilder::emit_val(Op op, Operand a, Operand b, Operand c) {
  const VReg dst = vreg();
  Instr ins;
  ins.op = op;
  ins.dst = dst.id;
  ins.a = a;
  ins.b = b;
  ins.c = c;
  push(ins);
  return dst;
}

SReg KernelBuilder::emit_scalar(Op op, Operand a, Operand b) {
  const SReg dst = sreg();
  Instr ins;
  ins.op = op;
  ins.dst = dst.id;
  ins.a = a;
  ins.b = b;
  push(ins);
  return dst;
}

VReg KernelBuilder::tid() { return emit_val(Op::kTid, Operand::none()); }
VReg KernelBuilder::laneid() { return emit_val(Op::kLaneId, Operand::none()); }
VReg KernelBuilder::warpid() { return emit_val(Op::kWarpId, Operand::none()); }

VReg KernelBuilder::mov(Operand src) { return emit_val(Op::kMov, src); }

void KernelBuilder::assign(VReg dst, Operand src) {
  emit_to(dst, Op::kMov, src);
}

VReg KernelBuilder::fadd(Operand a, Operand b) { return emit_val(Op::kFAdd, a, b); }
VReg KernelBuilder::fsub(Operand a, Operand b) { return emit_val(Op::kFSub, a, b); }
VReg KernelBuilder::fmul(Operand a, Operand b) { return emit_val(Op::kFMul, a, b); }
VReg KernelBuilder::ffma(Operand a, Operand b, Operand c) {
  return emit_val(Op::kFFma, a, b, c);
}
VReg KernelBuilder::fmax(Operand a, Operand b) { return emit_val(Op::kFMax, a, b); }
VReg KernelBuilder::fmin(Operand a, Operand b) { return emit_val(Op::kFMin, a, b); }

VReg KernelBuilder::iadd(Operand a, Operand b) { return emit_val(Op::kIAdd, a, b); }
VReg KernelBuilder::isub(Operand a, Operand b) { return emit_val(Op::kISub, a, b); }
VReg KernelBuilder::imul(Operand a, Operand b) { return emit_val(Op::kIMul, a, b); }
VReg KernelBuilder::imax(Operand a, Operand b) { return emit_val(Op::kIMax, a, b); }
VReg KernelBuilder::imin(Operand a, Operand b) { return emit_val(Op::kIMin, a, b); }
VReg KernelBuilder::iand(Operand a, Operand b) { return emit_val(Op::kIAnd, a, b); }
VReg KernelBuilder::ior(Operand a, Operand b) { return emit_val(Op::kIOr, a, b); }
VReg KernelBuilder::ixor(Operand a, Operand b) { return emit_val(Op::kIXor, a, b); }
VReg KernelBuilder::shl(Operand a, Operand b) { return emit_val(Op::kShl, a, b); }
VReg KernelBuilder::shr(Operand a, Operand b) { return emit_val(Op::kShr, a, b); }

VReg KernelBuilder::setp(Cmp cmp, DType dtype, Operand a, Operand b) {
  const VReg dst = vreg();
  Instr ins;
  ins.op = Op::kSetp;
  ins.dst = dst.id;
  ins.a = a;
  ins.b = b;
  ins.cmp = cmp;
  ins.dtype = dtype;
  push(ins);
  return dst;
}

VReg KernelBuilder::selp(Operand pred, Operand if_true, Operand if_false) {
  return emit_val(Op::kSelp, if_true, if_false, pred);
}

VReg KernelBuilder::shfl(Operand value, Operand src_lane, int width) {
  return emit_val(Op::kShfl, value, src_lane, imm_i64(width));
}
VReg KernelBuilder::shfl_up(Operand value, Operand delta, int width) {
  return emit_val(Op::kShflUp, value, delta, imm_i64(width));
}
VReg KernelBuilder::shfl_down(Operand value, Operand delta, int width) {
  return emit_val(Op::kShflDown, value, delta, imm_i64(width));
}
VReg KernelBuilder::shfl_xor(Operand value, Operand lane_mask, int width) {
  return emit_val(Op::kShflXor, value, lane_mask, imm_i64(width));
}

VReg KernelBuilder::lds(Operand addr, std::int64_t offset, MemWidth width) {
  const VReg dst = vreg();
  Instr ins;
  ins.op = Op::kLds;
  ins.dst = dst.id;
  ins.a = addr;
  ins.b = imm_i64(offset);
  ins.width = width;
  push(ins);
  return dst;
}

void KernelBuilder::sts(Operand addr, Operand value, std::int64_t offset, MemWidth width) {
  Instr ins;
  ins.op = Op::kSts;
  ins.a = addr;
  ins.b = imm_i64(offset);
  ins.c = value;
  ins.width = width;
  push(ins);
}

VReg KernelBuilder::ldg(Operand addr, std::int64_t offset, MemWidth width) {
  const VReg dst = vreg();
  Instr ins;
  ins.op = Op::kLdg;
  ins.dst = dst.id;
  ins.a = addr;
  ins.b = imm_i64(offset);
  ins.width = width;
  push(ins);
  return dst;
}

void KernelBuilder::lds_to(VReg dst, Operand addr, std::int64_t offset, MemWidth width) {
  util::require(dst.id >= 0, "lds_to: invalid destination");
  Instr ins;
  ins.op = Op::kLds;
  ins.dst = dst.id;
  ins.a = addr;
  ins.b = imm_i64(offset);
  ins.width = width;
  push(ins);
}

void KernelBuilder::ldg_to(VReg dst, Operand addr, std::int64_t offset, MemWidth width) {
  util::require(dst.id >= 0, "ldg_to: invalid destination");
  Instr ins;
  ins.op = Op::kLdg;
  ins.dst = dst.id;
  ins.a = addr;
  ins.b = imm_i64(offset);
  ins.width = width;
  push(ins);
}

void KernelBuilder::stg(Operand addr, Operand value, std::int64_t offset, MemWidth width) {
  Instr ins;
  ins.op = Op::kStg;
  ins.a = addr;
  ins.b = imm_i64(offset);
  ins.c = value;
  ins.width = width;
  push(ins);
}

void KernelBuilder::bar() {
  Instr ins;
  ins.op = Op::kBar;
  push(ins);
}

SReg KernelBuilder::smov(Operand src) { return emit_scalar(Op::kSMov, src); }
SReg KernelBuilder::sadd(Operand a, Operand b) { return emit_scalar(Op::kSAdd, a, b); }
SReg KernelBuilder::ssub(Operand a, Operand b) { return emit_scalar(Op::kSSub, a, b); }
SReg KernelBuilder::smul(Operand a, Operand b) { return emit_scalar(Op::kSMul, a, b); }
SReg KernelBuilder::smin(Operand a, Operand b) { return emit_scalar(Op::kSMin, a, b); }
SReg KernelBuilder::smax(Operand a, Operand b) { return emit_scalar(Op::kSMax, a, b); }

void KernelBuilder::sassign(SReg dst, Operand src) {
  Instr ins;
  ins.op = Op::kSMov;
  ins.dst = dst.id;
  ins.a = src;
  push(ins);
}

void KernelBuilder::loop(Operand trip_count) {
  util::require(trip_count.kind == Operand::Kind::kScalar ||
                    trip_count.kind == Operand::Kind::kImmediate,
                "loop: trip count must be scalar or immediate");
  Instr ins;
  ins.op = Op::kLoop;
  ins.a = trip_count;
  push(ins);
  ++loop_depth_;
}

void KernelBuilder::endloop() {
  util::require(loop_depth_ > 0, "endloop: no open loop");
  Instr ins;
  ins.op = Op::kEndLoop;
  push(ins);
  --loop_depth_;
}

void KernelBuilder::begin_pred(VReg pred, bool negate) {
  util::require(cur_pred_ < 0, "begin_pred: nested predication not supported");
  cur_pred_ = pred.id;
  cur_pred_negate_ = negate;
}

void KernelBuilder::end_pred() {
  util::require(cur_pred_ >= 0, "end_pred: no active predicate");
  cur_pred_ = -1;
  cur_pred_negate_ = false;
}

void KernelBuilder::emit_to(VReg dst, Op op, Operand a, Operand b, Operand c) {
  util::require(dst.id >= 0, "emit_to: invalid destination");
  Instr ins;
  ins.op = op;
  ins.dst = dst.id;
  ins.a = a;
  ins.b = b;
  ins.c = c;
  push(ins);
}

VReg KernelBuilder::emit(Op op, Operand a, Operand b, Operand c) {
  return emit_val(op, a, b, c);
}

Kernel KernelBuilder::build() {
  util::require(!built_, "KernelBuilder: build() may only be called once");
  util::require(loop_depth_ == 0, "build: unterminated loop");
  util::require(cur_pred_ < 0, "build: unterminated predication region");
  built_ = true;

  schedule_instructions(code_);
  auto intervals = live_intervals(code_, next_vreg_);
  auto [mapping, phys_count] = linear_scan(std::move(intervals));
  rewrite_registers(code_, mapping);

  // Kernels are long-lived (every runner keeps its own): drop the growth
  // slack rather than carry up to 2x the instruction list.
  code_.shrink_to_fit();
  Kernel kernel(std::move(name_), threads_per_block_, std::move(code_), phys_count,
                next_sreg_, smem_cursor_);
  validate(kernel);
  return kernel;
}

}  // namespace wsim::simt
