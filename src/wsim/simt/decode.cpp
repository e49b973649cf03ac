#include "wsim/simt/decode.hpp"

#include <algorithm>
#include <utility>

#include "wsim/obs/metrics.hpp"
#include "wsim/util/check.hpp"

namespace wsim::simt {

namespace {

std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {  // FNV-1a
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t hash_value(std::uint64_t h, std::uint64_t v) noexcept {
  return hash_bytes(h, &v, sizeof(v));
}

/// FNV-1a state after the kernel half of kernel_identity: name, shape,
/// and every instruction field.
std::uint64_t content_hash(const Kernel& kernel) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = hash_bytes(h, kernel.name().data(), kernel.name().size());
  h = hash_value(h, static_cast<std::uint64_t>(kernel.threads_per_block()));
  h = hash_value(h, static_cast<std::uint64_t>(kernel.vreg_count()));
  h = hash_value(h, static_cast<std::uint64_t>(kernel.sreg_count()));
  h = hash_value(h, static_cast<std::uint64_t>(kernel.smem_bytes()));
  for (const Instr& ins : kernel.code()) {
    h = hash_value(h, static_cast<std::uint64_t>(ins.op));
    h = hash_value(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(ins.dst)));
    for (const Operand* operand : {&ins.a, &ins.b, &ins.c}) {
      h = hash_value(h, static_cast<std::uint64_t>(operand->kind));
      h = hash_value(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(operand->reg)));
      h = hash_value(h, operand->imm);
    }
    h = hash_value(h, static_cast<std::uint64_t>(ins.cmp));
    h = hash_value(h, static_cast<std::uint64_t>(ins.dtype));
    h = hash_value(h, static_cast<std::uint64_t>(ins.width));
    h = hash_value(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(ins.pred)));
    h = hash_value(h, static_cast<std::uint64_t>(ins.pred_negate));
  }
  return h;
}

ExecClass classify(Op op) noexcept {
  switch (op) {
    case Op::kShfl:
    case Op::kShflUp:
    case Op::kShflDown:
    case Op::kShflXor:
      return ExecClass::kShuffle;
    case Op::kLds:
      return ExecClass::kLds;
    case Op::kSts:
      return ExecClass::kSts;
    case Op::kLdg:
      return ExecClass::kLdg;
    case Op::kStg:
      return ExecClass::kStg;
    case Op::kBar:
      return ExecClass::kBar;
    case Op::kSMov:
    case Op::kSAdd:
    case Op::kSSub:
    case Op::kSMul:
    case Op::kSMin:
    case Op::kSMax:
      return ExecClass::kScalar;
    case Op::kLoop:
      return ExecClass::kLoop;
    case Op::kEndLoop:
      return ExecClass::kEndLoop;
    default:
      return ExecClass::kSimple;
  }
}

LaneOp lane_of(const Instr& ins) noexcept {
  switch (ins.op) {
    case Op::kMov: return LaneOp::kMov;
    case Op::kTid: return LaneOp::kTid;
    case Op::kLaneId: return LaneOp::kLaneId;
    case Op::kWarpId: return LaneOp::kWarpId;
    case Op::kFAdd: return LaneOp::kFAdd;
    case Op::kFSub: return LaneOp::kFSub;
    case Op::kFMul: return LaneOp::kFMul;
    case Op::kFFma: return LaneOp::kFFma;
    case Op::kFMax: return LaneOp::kFMax;
    case Op::kFMin: return LaneOp::kFMin;
    case Op::kIAdd: return LaneOp::kIAdd;
    case Op::kISub: return LaneOp::kISub;
    case Op::kIMul: return LaneOp::kIMul;
    case Op::kIMax: return LaneOp::kIMax;
    case Op::kIMin: return LaneOp::kIMin;
    case Op::kIAnd: return LaneOp::kIAnd;
    case Op::kIOr: return LaneOp::kIOr;
    case Op::kIXor: return LaneOp::kIXor;
    case Op::kShl: return LaneOp::kShl;
    case Op::kShr: return LaneOp::kShr;
    case Op::kSetp:
      return ins.dtype == DType::kF32 ? LaneOp::kSetpF32 : LaneOp::kSetpI64;
    case Op::kSelp: return LaneOp::kSelp;
    default: return LaneOp::kNop;
  }
}

/// Mirrors the legacy interpreter's base_latency() exactly: equal decoded
/// latencies are what keep BlockResult cycles bit-identical.
std::int32_t baked_latency(Op op, const LatencyTable& lat) noexcept {
  switch (op) {
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
      return 0;  // resolved per access (warm vs cold segment)
    case Op::kStg:
      return lat.gmem_store;
    default:
      return 1;
  }
}

bool unpredicated(const DecodedInstr& d) noexcept { return d.pred < 0; }

/// Marks fused-group leaders. A group is legal only when control flow can
/// never enter it mid-group (`target` marks loop-entry and loop-exit
/// resume points) and when executing the constituents through one handler
/// is provably order-equivalent to executing them back to back:
///
///  * kSimplePair / shuffle-led groups take unpredicated per-lane-pure
///    constituents, so interleaving them lane by lane touches exactly the
///    same (register, lane) cells in a compatible order — and the shuffle
///    handler pre-reads its 32 source lanes like the legacy path does.
///  * kSmemPair runs its two accesses back to back sharing one active
///    mask, which requires the first access not to write the pair's
///    predicate register.
void mark_fusion(DecodedProgram& prog, const std::vector<bool>& target) {
  auto& code = prog.code;
  std::size_t i = 0;
  while (i < code.size()) {
    DecodedInstr& d = code[i];
    if (d.cls == ExecClass::kShuffle && unpredicated(d) && i + 1 < code.size() &&
        !target[i + 1]) {
      const DecodedInstr& d2 = code[i + 1];
      if (d2.cls == ExecClass::kSimple && unpredicated(d2) &&
          fusible_shfl_consumer(d2.lane)) {
        if (i + 2 < code.size() && !target[i + 2] &&
            code[i + 2].cls == ExecClass::kSimple && unpredicated(code[i + 2]) &&
            code[i + 2].lane == LaneOp::kMov) {
          d.fused = FusedKind::kShflAluMov;
          d.fuse_len = 3;
        } else {
          d.fused = FusedKind::kShflAlu;
          d.fuse_len = 2;
        }
        prog.fused_groups += 1;
        i += d.fuse_len;
        continue;
      }
    }
    if (d.cls == ExecClass::kSimple && unpredicated(d) && d.lane != LaneOp::kNop &&
        i + 1 < code.size() && !target[i + 1]) {
      const DecodedInstr& d2 = code[i + 1];
      if (d2.cls == ExecClass::kSimple && unpredicated(d2) &&
          fusible_simple_pair(d.lane, d2.lane)) {
        d.fused = FusedKind::kSimplePair;
        d.fuse_len = 2;
        prog.fused_groups += 1;
        i += 2;
        continue;
      }
    }
    if ((d.cls == ExecClass::kLds || d.cls == ExecClass::kSts) &&
        i + 1 < code.size() && !target[i + 1]) {
      const DecodedInstr& d2 = code[i + 1];
      const bool same_mask = d2.pred == d.pred && d2.pred_negate == d.pred_negate;
      const bool writes_mask =
          d.cls == ExecClass::kLds && d.pred >= 0 && d.dst == d.pred;
      if ((d2.cls == ExecClass::kLds || d2.cls == ExecClass::kSts) && same_mask &&
          !writes_mask) {
        d.fused = FusedKind::kSmemPair;
        d.fuse_len = 2;
        prog.fused_groups += 1;
        i += 2;
        continue;
      }
    }
    ++i;
  }
}

/// Bakes the lane-vector engine's dispatch metadata (see vectorpath.cpp):
/// which instructions execute 32 lanes at a time (DecodedInstr::vec), and
/// which loops qualify for the steady-state fast-forward. Both are pure
/// classification — the fast and legacy engines ignore these fields, so
/// the decoded form stays one program shared by all three interpreters.
void mark_vector_metadata(DecodedProgram& prog) {
  auto& code = prog.code;
  for (DecodedInstr& d : code) {
    if (d.pred < 0 && ((d.cls == ExecClass::kSimple && d.lane != LaneOp::kNop) ||
                       d.cls == ExecClass::kShuffle)) {
      d.vec = true;
      prog.vec_instrs += 1;
    } else if (d.pred >= 0 && d.cls == ExecClass::kSimple &&
               d.lane != LaneOp::kNop) {
      // Every lane op is a pure elementwise function, so a predicated
      // simple op can run full-width and blend under the predicate mask.
      d.vec_masked = true;
      prog.vec_instrs += 1;
    }
  }

  const auto push_unique = [](std::vector<std::int16_t>& v, std::int16_t r) {
    if (std::find(v.begin(), v.end(), r) == v.end()) {
      v.push_back(r);
    }
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].cls != ExecClass::kLoop) {
      continue;
    }
    const std::size_t end = code[i].match;
    bool eligible = true;
    for (std::size_t j = i + 1; j < end && eligible; ++j) {
      switch (code[j].cls) {
        case ExecClass::kSimple:
        case ExecClass::kShuffle:
        case ExecClass::kScalar:
        case ExecClass::kLds:
        case ExecClass::kSts:
          break;
        case ExecClass::kBar:
          // A single-warp barrier is a pure cursor bump (arrival == the
          // warp's own cursor, no rendezvous), which is shift-invariant;
          // with more warps the release cycle couples to the other warps'
          // clocks and the body must stay exact.
          eligible = prog.warps == 1;
          break;
        default:
          // kLdg/kStg (global warm-set state) and nested loops keep the
          // body on the exact path.
          eligible = false;
          break;
      }
    }
    if (!eligible) {
      continue;
    }
    DecodedProgram::AccelLoop al;
    al.begin = static_cast<std::uint32_t>(i);
    for (std::size_t j = i + 1; j < end; ++j) {
      const DecodedInstr& d = code[j];
      if (d.dst >= 0) {
        push_unique(d.scalar_dst ? al.sregs_written : al.vregs_written, d.dst);
      }
    }
    for (std::size_t j = i + 1; j < end; ++j) {
      const DecodedInstr& d = code[j];
      for (const std::int16_t r : d.rv) {
        if (r >= 0 && std::find(al.vregs_written.begin(), al.vregs_written.end(), r) ==
                          al.vregs_written.end()) {
          push_unique(al.vregs_read, r);
        }
      }
      for (const std::int16_t r : d.rs) {
        if (r >= 0 && std::find(al.sregs_written.begin(), al.sregs_written.end(), r) ==
                          al.sregs_written.end()) {
          push_unique(al.sregs_read, r);
        }
      }
      al.pred_stable.push_back(
          d.pred >= 0 && std::find(al.vregs_written.begin(), al.vregs_written.end(),
                                   d.pred) == al.vregs_written.end()
              ? 1
              : 0);
    }
    code[i].accel = static_cast<std::int16_t>(prog.accel_loops.size());
    prog.accel_loops.push_back(std::move(al));
  }
}

}  // namespace

std::uint64_t kernel_identity(const Kernel& kernel, const DeviceSpec& device) {
  // Kernel half: memoized on the Kernel. A content hash that happens to be
  // 0 (the empty-memo marker) is simply recomputed on every call.
  std::uint64_t h = kernel.content_hash_.value.load();
  if (h == 0) {
    h = content_hash(kernel);
    kernel.content_hash_.value.store(h);
  }
  h = hash_bytes(h, device.name.data(), device.name.size());
  h = hash_value(h, static_cast<std::uint64_t>(device.arch));
  h = hash_value(h, static_cast<std::uint64_t>(device.smem_banks));
  const LatencyTable& lat = device.lat;
  for (const int v : {lat.reg_access, lat.ialu, lat.imul, lat.falu, lat.shfl,
                      lat.shfl_up, lat.shfl_down, lat.shfl_xor, lat.smem_load,
                      lat.smem_store, lat.bank_conflict, lat.sync_barrier,
                      lat.gmem_load, lat.gmem_load_cached, lat.gmem_store,
                      lat.issue_interval, lat.issues_per_cycle}) {
    h = hash_value(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  return h;
}

std::shared_ptr<const DecodedProgram> decode_program(const Kernel& kernel,
                                                     const DeviceSpec& device) {
  validate(kernel);

  auto prog = std::make_shared<DecodedProgram>();
  prog->name = kernel.name();
  prog->threads_per_block = kernel.threads_per_block();
  prog->warps = kernel.warps_per_block();
  prog->vreg_count = std::max(kernel.vreg_count(), 1);
  prog->sreg_count = std::max(kernel.sreg_count(), 1);
  prog->smem_bytes = std::max(kernel.smem_bytes(), 1);
  prog->identity = kernel_identity(kernel, device);

  const std::size_t n = kernel.code().size();
  prog->code.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& ins = kernel.code()[i];
    DecodedInstr& d = prog->code[i];
    d.op = ins.op;
    d.cls = classify(ins.op);
    d.lane = lane_of(ins);
    d.cmp = ins.cmp;
    d.width = ins.width;
    d.dst = static_cast<std::int16_t>(ins.dst);
    d.scalar_dst = d.cls == ExecClass::kScalar;
    d.pred = static_cast<std::int16_t>(ins.pred);
    d.pred_negate = ins.pred_negate;
    d.latency = baked_latency(ins.op, device.lat);
    d.a = ins.a;
    d.b = ins.b;
    d.c = ins.c;
    const Operand* ops[3] = {&ins.a, &ins.b, &ins.c};
    for (int k = 0; k < 3; ++k) {
      if (ops[k]->kind == Operand::Kind::kVector) {
        d.rv[static_cast<std::size_t>(k)] = static_cast<std::int16_t>(ops[k]->reg);
      } else if (ops[k]->kind == Operand::Kind::kScalar) {
        d.rs[static_cast<std::size_t>(k)] = static_cast<std::int16_t>(ops[k]->reg);
      }
    }
    if (ins.pred >= 0) {
      d.rv[3] = static_cast<std::int16_t>(ins.pred);
    }
  }

  // Structured-control-flow matching, identical to the legacy
  // build_loop_matches, plus the set of pcs a jump can land on: the first
  // body instruction of each loop and the instruction after each kEndLoop
  // (the zero-trip skip's resume point). Fused groups must not straddle
  // these.
  std::vector<bool> target(n, false);
  {
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < n; ++i) {
      if (prog->code[i].cls == ExecClass::kLoop) {
        stack.push_back(i);
      } else if (prog->code[i].cls == ExecClass::kEndLoop) {
        util::ensure(!stack.empty(), "decode: unbalanced loops");
        const std::size_t begin = stack.back();
        stack.pop_back();
        prog->code[begin].match = static_cast<std::uint32_t>(i);
        prog->code[i].match = static_cast<std::uint32_t>(begin);
        if (begin + 1 < n) {
          target[begin + 1] = true;
        }
        if (i + 1 < n) {
          target[i + 1] = true;
        }
      }
    }
  }

  mark_fusion(*prog, target);
  mark_vector_metadata(*prog);
  return prog;
}

namespace {

// Decoded-cache instrumentation (visible in --metrics-out dumps). Hits and
// misses are counted per lookup; the occupancy gauges are refreshed on
// every miss and clear — the only events that change them.
obs::Counter& cache_hits() {
  static obs::Counter c("simt.decode_cache.hits");
  return c;
}
obs::Counter& cache_misses() {
  static obs::Counter c("simt.decode_cache.misses");
  return c;
}
obs::Gauge& cache_entries() {
  static obs::Gauge g("simt.decode_cache.entries");
  return g;
}
obs::Gauge& cache_shards_occupied() {
  static obs::Gauge g("simt.decode_cache.shards_occupied");
  return g;
}

}  // namespace

std::shared_ptr<const DecodedProgram> DecodedProgramCache::get(
    const Kernel& kernel, const DeviceSpec& device) {
  const std::uint64_t key = kernel_identity(kernel, device);
  Shard& shard = shards_[shard_of(key)];
  std::shared_ptr<const DecodedProgram> prog;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hit = true;
      prog = it->second;
    } else {
      // Decode under the shard lock: concurrent first uses of one identity
      // must produce exactly one decode (other shards stay available).
      prog = decode_program(kernel, device);
      decodes_.fetch_add(1, std::memory_order_relaxed);
      shard.map.emplace(key, prog);
    }
  }
  if (hit) {
    cache_hits().add();
  } else {
    cache_misses().add();
    if (obs::metrics_enabled()) {
      refresh_occupancy_metrics();
    }
  }
  return prog;
}

void DecodedProgramCache::refresh_occupancy_metrics() const {
  std::size_t entries = 0;
  std::size_t occupied = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries += shard.map.size();
    occupied += shard.map.empty() ? 0 : 1;
  }
  cache_entries().set(static_cast<double>(entries));
  cache_shards_occupied().set(static_cast<double>(occupied));
}

std::size_t DecodedProgramCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void DecodedProgramCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
  if (obs::metrics_enabled()) {
    refresh_occupancy_metrics();
  }
}

DecodedProgramCache& shared_decoded_cache() {
  static DecodedProgramCache cache;
  return cache;
}

}  // namespace wsim::simt
