// Differential tests pinning the predecoded fast-path interpreter AND the
// lane-vector interpreter to the legacy switch interpreter: for every
// kernel variant, device, and SDC setting all three paths must produce
// bit-identical memory, exactly equal BlockResult counters, identical
// instruction traces and write sets, identical guard fingerprints through
// the runners, and the same error surface. The legacy path stays
// available precisely to keep this contract checkable.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "wsim/guard/guard.hpp"
#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/builder.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/memory.hpp"
#include "wsim/simt/sdc.hpp"
#include "wsim/simt/trace.hpp"
#include "wsim/simt/watchdog.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

namespace guard = wsim::guard;
using wsim::kernels::CommMode;
using wsim::simt::BlockResult;
using wsim::simt::BlockRunOptions;
using wsim::simt::Cmp;
using wsim::simt::DeviceSpec;
using wsim::simt::DType;
using wsim::simt::GlobalMemory;
using wsim::simt::GmemWriteSet;
using wsim::simt::imm_f32;
using wsim::simt::imm_i64;
using wsim::simt::InterpPath;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::LaunchTimeout;
using wsim::simt::MemWidth;
using wsim::simt::SdcPlan;
using wsim::simt::SReg;
using wsim::simt::Trace;
using wsim::simt::VReg;
using wsim::util::CheckError;

/// A kernel touching every opcode, predication polarity, memory width,
/// loop form (nested and zero-trip), and barrier the ISA offers — the
/// per-instruction differential workout.
Kernel build_omnibus() {
  KernelBuilder kb("omnibus", 64);
  const SReg out = kb.param();    // s0: 64*4 + 64*4 + 64 bytes of results
  const SReg in = kb.param();     // s1: 64 f32 inputs (doubles as bytes)
  const SReg trips = kb.param();  // s2: outer loop trip count
  const SReg zero = kb.param();   // s3: zero-trip loop count
  kb.alloc_smem(64 * 4 + 64);     // word tile + byte area

  const VReg t = kb.tid();
  const VReg lane = kb.laneid();
  const VReg w = kb.warpid();

  // Integer chain: every i64 ALU op.
  VReg i1 = kb.iadd(t, imm_i64(3));
  i1 = kb.imul(i1, imm_i64(5));
  i1 = kb.isub(i1, lane);
  i1 = kb.imax(i1, kb.imin(w, imm_i64(100)));
  i1 = kb.iand(kb.ior(i1, imm_i64(0x55)), imm_i64(0xFF));
  i1 = kb.ixor(i1, kb.shl(lane, imm_i64(2)));
  i1 = kb.iadd(i1, kb.shr(t, imm_i64(1)));

  // Float chain from a B4 global load: every f32 ALU op.
  const VReg f = kb.ldg(kb.iadd(in, kb.imul(t, imm_i64(4))));
  VReg f1 = kb.fadd(f, imm_f32(0.5F));
  f1 = kb.fmul(f1, imm_f32(1.25F));
  f1 = kb.ffma(f1, imm_f32(0.75F), f);
  f1 = kb.fmax(f1, kb.fmin(f1, imm_f32(3.0F)));
  f1 = kb.fsub(f1, imm_f32(0.125F));

  // All four shuffle variants, segmented widths, dynamic source lane.
  const VReg s1v = kb.shfl_down(f1, imm_i64(1));
  const VReg s2v = kb.shfl_up(i1, imm_i64(2), 16);
  const VReg s3v = kb.shfl_xor(f1, imm_i64(4), 8);
  const VReg s4v = kb.shfl(i1, lane, 32);

  // Compare/select + both predication polarities.
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, lane, imm_i64(16));
  const VReg pf = kb.setp(Cmp::kGt, DType::kF32, f1, imm_f32(1.0F));
  const VReg sel = kb.selp(p, s1v, s3v);
  VReg acc = kb.mov(imm_i64(0));
  kb.begin_pred(p);
  kb.assign(acc, kb.iadd(acc, s2v));
  kb.end_pred();
  kb.begin_pred(pf, /*negate=*/true);
  kb.assign(acc, kb.iadd(acc, imm_i64(7)));
  kb.end_pred();

  // Scalar pipeline + nested and zero-trip loops.
  const SReg sc = kb.smov(imm_i64(2));
  const SReg sc2 = kb.smax(
      kb.smin(kb.smul(kb.sadd(sc, imm_i64(3)), imm_i64(2)), imm_i64(9)),
      kb.ssub(sc, imm_i64(1)));
  kb.loop(trips);
  kb.assign(acc, kb.iadd(acc, sc2));
  kb.loop(imm_i64(2));
  kb.assign(acc, kb.iadd(acc, imm_i64(1)));
  kb.endloop();
  kb.endloop();
  kb.loop(zero);
  kb.assign(acc, kb.iadd(acc, imm_i64(1000000)));
  kb.endloop();

  // Shared memory: B4 tile exchange across a barrier, B1 bytes, and a
  // deliberate two-way bank conflict ((t&1)*128 maps to one bank).
  kb.sts(kb.imul(t, imm_i64(4)), sel);
  kb.bar();
  const VReg neighbor = kb.lds(kb.imul(kb.ixor(t, imm_i64(1)), imm_i64(4)));
  kb.sts(kb.iadd(t, imm_i64(64 * 4)), i1, 0, MemWidth::kB1);
  kb.bar();
  const VReg nb1 =
      kb.lds(kb.iadd(kb.ixor(t, imm_i64(3)), imm_i64(64 * 4)), 0, MemWidth::kB1);
  const VReg conflict = kb.lds(kb.imul(kb.iand(t, imm_i64(1)), imm_i64(128)));

  // B1 global load; then store every result (B4 and B1).
  const VReg b1 = kb.ldg(kb.iadd(in, t), 0, MemWidth::kB1);
  const VReg slot = kb.iadd(out, kb.imul(t, imm_i64(4)));
  kb.stg(slot, kb.iadd(acc, kb.iadd(neighbor,
                                    kb.iadd(nb1, kb.iadd(conflict,
                                                         kb.iadd(s4v, b1))))));
  kb.stg(kb.iadd(slot, imm_i64(64 * 4)), kb.selp(pf, f1, sel));
  kb.stg(kb.iadd(out, kb.iadd(t, imm_i64(64 * 8))), i1, 0, MemWidth::kB1);
  return kb.build();
}

/// Everything one block execution produced, for field-by-field diffing.
struct RunOutcome {
  bool threw = false;
  std::string error;
  BlockResult result;
  std::vector<std::uint8_t> memory;
  std::vector<wsim::simt::TraceEvent> trace;
  std::map<std::int64_t, std::int64_t> writes;
};

RunOutcome run_omnibus(const Kernel& kernel, const DeviceSpec& device,
                       InterpPath path, const SdcPlan* sdc) {
  GlobalMemory gmem;
  const std::int64_t out = gmem.alloc(64 * 4 + 64 * 4 + 64);
  const std::int64_t in = gmem.alloc(64 * 4);
  std::vector<float> inputs(64);
  for (int i = 0; i < 64; ++i) {
    inputs[static_cast<std::size_t>(i)] = 0.25F * static_cast<float>(i) - 3.5F;
  }
  gmem.write_f32(in, inputs);
  const std::vector<std::uint64_t> args = {
      static_cast<std::uint64_t>(out), static_cast<std::uint64_t>(in), 3, 0};

  RunOutcome outcome;
  Trace trace;
  GmemWriteSet writes;
  BlockRunOptions options;
  options.interp = path;
  options.trace = &trace;
  options.writes = &writes;
  options.sdc = sdc;
  options.sdc_stream = 17;
  try {
    outcome.result = run_block(kernel, device, gmem, args, options);
  } catch (const CheckError& e) {
    outcome.threw = true;
    outcome.error = e.what();
  }
  outcome.memory = gmem.read_u8(0, gmem.size());
  outcome.trace = trace.events();
  outcome.writes = writes.spans();
  return outcome;
}

void expect_equal_results(const BlockResult& legacy, const BlockResult& fast,
                          const std::string& label) {
  EXPECT_EQ(legacy.cycles, fast.cycles) << label;
  EXPECT_EQ(legacy.instructions, fast.instructions) << label;
  EXPECT_EQ(legacy.smem_transactions, fast.smem_transactions) << label;
  EXPECT_EQ(legacy.gmem_transactions, fast.gmem_transactions) << label;
  EXPECT_EQ(legacy.barriers, fast.barriers) << label;
  EXPECT_EQ(legacy.sdc_flips, fast.sdc_flips) << label;
  for (std::size_t op = 0; op < legacy.op_counts.size(); ++op) {
    EXPECT_EQ(legacy.op_counts[op], fast.op_counts[op]) << label << " op " << op;
  }
}

void expect_equal_outcomes(const RunOutcome& legacy, const RunOutcome& fast,
                           const std::string& label) {
  ASSERT_EQ(legacy.threw, fast.threw) << label;
  expect_equal_results(legacy.result, fast.result, label);
  EXPECT_EQ(legacy.memory, fast.memory) << label;
  EXPECT_EQ(legacy.writes, fast.writes) << label;
  ASSERT_EQ(legacy.trace.size(), fast.trace.size()) << label;
  for (std::size_t i = 0; i < legacy.trace.size(); ++i) {
    EXPECT_EQ(legacy.trace[i].name, fast.trace[i].name) << label << " event " << i;
    EXPECT_EQ(legacy.trace[i].warp, fast.trace[i].warp) << label << " event " << i;
    EXPECT_EQ(legacy.trace[i].start, fast.trace[i].start) << label << " event " << i;
    EXPECT_EQ(legacy.trace[i].end, fast.trace[i].end) << label << " event " << i;
  }
}

TEST(InterpEquivalence, OmnibusKernelAllDevicesSdcOnOff) {
  const Kernel kernel = build_omnibus();
  for (const DeviceSpec& device : wsim::simt::all_devices()) {
    // The decoded form must actually contain superinstructions, otherwise
    // the fused handlers are not being exercised here.
    const auto program = wsim::simt::decode_program(kernel, device);
    EXPECT_GT(program->fused_groups, 0U) << device.name;
    // Likewise the decoded form must contain SIMD-eligible instructions,
    // or the vector comparison below degenerates to scalar-vs-scalar.
    EXPECT_GT(program->vec_instrs, 0U) << device.name;

    SdcPlan sdc;
    sdc.seed = 77;
    sdc.flip_prob = 1e-3;
    for (const SdcPlan* plan :
         {static_cast<const SdcPlan*>(nullptr), static_cast<const SdcPlan*>(&sdc)}) {
      const std::string label =
          device.name + (plan != nullptr ? " sdc" : " clean");
      const RunOutcome legacy =
          run_omnibus(kernel, device, InterpPath::kLegacy, plan);
      const RunOutcome fast = run_omnibus(kernel, device, InterpPath::kFast, plan);
      const RunOutcome vec =
          run_omnibus(kernel, device, InterpPath::kVector, plan);
      EXPECT_FALSE(legacy.threw) << label << ": " << legacy.error;
      expect_equal_outcomes(legacy, fast, label + " fast");
      expect_equal_outcomes(legacy, vec, label + " vector");
      if (plan != nullptr) {
        // The plan is hot enough that the run must actually flip bits, or
        // the event-numbering equivalence is vacuous.
        EXPECT_GT(legacy.result.sdc_flips, 0U) << label;
      }
    }
  }
}

wsim::workload::Dataset small_dataset() {
  wsim::workload::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.regions = 2;
  cfg.ph_tasks_per_region_mean = 5.0;
  cfg.sw_query_len_min = 40;
  cfg.sw_query_len_max = 90;
  cfg.sw_target_len_min = 60;
  cfg.sw_target_len_max = 120;
  return wsim::workload::generate_dataset(cfg);
}

TEST(InterpEquivalence, SwRunnerFingerprintsMatchOnEveryDevice) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  for (const CommMode mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::SwRunner runner(mode);
    for (const DeviceSpec& device : wsim::simt::all_devices()) {
      wsim::kernels::SwRunOptions legacy_opt;
      legacy_opt.collect_outputs = true;
      legacy_opt.interp = InterpPath::kLegacy;
      wsim::kernels::SwRunOptions fast_opt = legacy_opt;
      fast_opt.interp = InterpPath::kFast;
      wsim::kernels::SwRunOptions vec_opt = legacy_opt;
      vec_opt.interp = InterpPath::kVector;
      const auto legacy = runner.run_batch(device, batches.front(), legacy_opt);
      const auto fast = runner.run_batch(device, batches.front(), fast_opt);
      const auto vec = runner.run_batch(device, batches.front(), vec_opt);
      EXPECT_EQ(guard::fingerprint_sw(legacy.outputs),
                guard::fingerprint_sw(fast.outputs))
          << device.name;
      EXPECT_EQ(guard::fingerprint_sw(legacy.outputs),
                guard::fingerprint_sw(vec.outputs))
          << device.name << " vector";
      EXPECT_EQ(legacy.run.launch.instructions, fast.run.launch.instructions)
          << device.name;
      EXPECT_EQ(legacy.run.launch.instructions, vec.run.launch.instructions)
          << device.name << " vector";
      expect_equal_results(legacy.run.launch.representative,
                           fast.run.launch.representative, device.name);
      expect_equal_results(legacy.run.launch.representative,
                           vec.run.launch.representative,
                           device.name + " vector");
    }
  }
}

TEST(InterpEquivalence, PhRunnerFingerprintsMatchOnEveryDevice) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::ph_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  for (const CommMode mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::PhRunner runner(mode);
    for (const DeviceSpec& device : wsim::simt::all_devices()) {
      wsim::kernels::PhRunOptions legacy_opt;
      legacy_opt.collect_outputs = true;
      legacy_opt.double_fallback = true;
      legacy_opt.interp = InterpPath::kLegacy;
      wsim::kernels::PhRunOptions fast_opt = legacy_opt;
      fast_opt.interp = InterpPath::kFast;
      wsim::kernels::PhRunOptions vec_opt = legacy_opt;
      vec_opt.interp = InterpPath::kVector;
      const auto legacy = runner.run_batch(device, batches.front(), legacy_opt);
      const auto fast = runner.run_batch(device, batches.front(), fast_opt);
      const auto vec = runner.run_batch(device, batches.front(), vec_opt);
      EXPECT_EQ(guard::fingerprint_ph(legacy.log10),
                guard::fingerprint_ph(fast.log10))
          << device.name;
      EXPECT_EQ(guard::fingerprint_ph(legacy.log10),
                guard::fingerprint_ph(vec.log10))
          << device.name << " vector";
      expect_equal_results(legacy.run.launch.representative,
                           fast.run.launch.representative, device.name);
      expect_equal_results(legacy.run.launch.representative,
                           vec.run.launch.representative,
                           device.name + " vector");
    }
  }
}

TEST(InterpEquivalence, NwRunnerFingerprintsMatchOnEveryDevice) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  for (const CommMode mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::NwRunner runner(mode);
    for (const DeviceSpec& device : wsim::simt::all_devices()) {
      wsim::kernels::NwRunOptions legacy_opt;
      legacy_opt.collect_outputs = true;
      legacy_opt.interp = InterpPath::kLegacy;
      wsim::kernels::NwRunOptions fast_opt = legacy_opt;
      fast_opt.interp = InterpPath::kFast;
      wsim::kernels::NwRunOptions vec_opt = legacy_opt;
      vec_opt.interp = InterpPath::kVector;
      const auto legacy = runner.run_batch(device, batches.front(), legacy_opt);
      const auto fast = runner.run_batch(device, batches.front(), fast_opt);
      const auto vec = runner.run_batch(device, batches.front(), vec_opt);
      EXPECT_EQ(guard::fingerprint_nw(legacy.scores),
                guard::fingerprint_nw(fast.scores))
          << device.name;
      EXPECT_EQ(guard::fingerprint_nw(legacy.scores),
                guard::fingerprint_nw(vec.scores))
          << device.name << " vector";
      expect_equal_results(legacy.run.launch.representative,
                           fast.run.launch.representative, device.name);
      expect_equal_results(legacy.run.launch.representative,
                           vec.run.launch.representative,
                           device.name + " vector");
    }
  }
}

TEST(InterpEquivalence, SdcReplayIsIdenticalThroughTheRunner) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  const wsim::kernels::SwRunner runner(CommMode::kShuffle);
  const auto device = wsim::simt::make_k1200();

  const auto run_path = [&](InterpPath path)
      -> std::optional<wsim::kernels::SwBatchResult> {
    wsim::kernels::SwRunOptions opt;
    opt.collect_outputs = true;
    opt.interp = path;
    opt.sdc.seed = 9;
    opt.sdc.flip_prob = 1e-4;
    opt.sdc_launch_id = 3;
    try {
      return runner.run_batch(device, batches.front(), opt);
    } catch (const CheckError&) {
      // A flip may land in an address-feeding register; both paths must
      // then crash identically.
      return std::nullopt;
    }
  };
  const auto legacy = run_path(InterpPath::kLegacy);
  const auto fast = run_path(InterpPath::kFast);
  const auto vec = run_path(InterpPath::kVector);
  ASSERT_EQ(legacy.has_value(), fast.has_value());
  ASSERT_EQ(legacy.has_value(), vec.has_value());
  if (legacy.has_value()) {
    EXPECT_EQ(legacy->run.launch.sdc_flips, fast->run.launch.sdc_flips);
    EXPECT_EQ(legacy->run.launch.sdc_flips, vec->run.launch.sdc_flips);
    EXPECT_EQ(guard::fingerprint_sw(legacy->outputs),
              guard::fingerprint_sw(fast->outputs));
    EXPECT_EQ(guard::fingerprint_sw(legacy->outputs),
              guard::fingerprint_sw(vec->outputs));
  }
}

TEST(InterpEquivalence, CycleBudgetTimeoutMatchesExactly) {
  KernelBuilder kb("runaway", 32);
  const VReg t = kb.tid();
  kb.loop(imm_i64(100000));
  kb.emit_to(t, wsim::simt::Op::kIAdd, t, imm_i64(1));
  kb.endloop();
  const Kernel kernel = kb.build();
  const auto device = wsim::simt::make_k1200();

  const auto run_path = [&](InterpPath path) {
    GlobalMemory gmem;
    BlockRunOptions options;
    options.interp = path;
    options.max_cycles = 5000;
    std::optional<LaunchTimeout> caught;
    try {
      run_block(kernel, device, gmem, {}, options);
    } catch (const LaunchTimeout& e) {
      caught = e;
    }
    return caught;
  };
  const auto legacy = run_path(InterpPath::kLegacy);
  const auto fast = run_path(InterpPath::kFast);
  const auto vec = run_path(InterpPath::kVector);
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(vec.has_value());
  EXPECT_EQ(legacy->kind(), fast->kind());
  EXPECT_EQ(legacy->cycles(), fast->cycles());
  EXPECT_EQ(legacy->budget(), fast->budget());
  EXPECT_STREQ(legacy->what(), fast->what());
  EXPECT_EQ(legacy->kind(), vec->kind());
  EXPECT_EQ(legacy->cycles(), vec->cycles());
  EXPECT_EQ(legacy->budget(), vec->budget());
  EXPECT_STREQ(legacy->what(), vec->what());
}

TEST(InterpEquivalence, BarrierDeadlockMatchesExactly) {
  // Warp 1's lanes are all predicated off the barrier, so it finishes
  // while warp 0 waits — both paths must diagnose the identical deadlock.
  KernelBuilder kb("deadlock", 64);
  kb.alloc_smem(4);
  const VReg t = kb.tid();
  const VReg first_warp = kb.setp(Cmp::kLt, DType::kI64, t, imm_i64(32));
  kb.begin_pred(first_warp);
  kb.bar();
  kb.end_pred();
  const Kernel kernel = kb.build();
  const auto device = wsim::simt::make_k40();

  const auto run_path = [&](InterpPath path) {
    GlobalMemory gmem;
    BlockRunOptions options;
    options.interp = path;
    std::optional<LaunchTimeout> caught;
    try {
      run_block(kernel, device, gmem, {}, options);
    } catch (const LaunchTimeout& e) {
      caught = e;
    }
    return caught;
  };
  const auto legacy = run_path(InterpPath::kLegacy);
  const auto fast = run_path(InterpPath::kFast);
  const auto vec = run_path(InterpPath::kVector);
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(vec.has_value());
  EXPECT_EQ(legacy->kind(), fast->kind());
  EXPECT_EQ(legacy->cycles(), fast->cycles());
  EXPECT_STREQ(legacy->what(), fast->what());
  EXPECT_EQ(legacy->kind(), vec->kind());
  EXPECT_EQ(legacy->cycles(), vec->cycles());
  EXPECT_STREQ(legacy->what(), vec->what());
}

TEST(InterpEquivalence, OutOfBoundsAndBadWidthThrowOnBothPaths) {
  const auto device = wsim::simt::make_titan_x();
  {
    KernelBuilder kb("smem_oob", 32);
    kb.alloc_smem(16);
    const VReg t = kb.tid();
    kb.sts(kb.imul(t, imm_i64(4)), t);
    const Kernel kernel = kb.build();
    for (const InterpPath path :
         {InterpPath::kLegacy, InterpPath::kFast, InterpPath::kVector}) {
      GlobalMemory gmem;
      BlockRunOptions options;
      options.interp = path;
      try {
        run_block(kernel, device, gmem, {}, options);
        FAIL() << "smem OOB must throw";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "shared memory access out of bounds in kernel smem_oob"),
                  std::string::npos);
      }
    }
  }
  {
    KernelBuilder kb("bad_width", 32);
    const VReg t = kb.tid();
    kb.stg(kb.imul(t, imm_i64(4)), kb.shfl_down(t, imm_i64(1), 3));
    const Kernel kernel = kb.build();
    for (const InterpPath path :
         {InterpPath::kLegacy, InterpPath::kFast, InterpPath::kVector}) {
      GlobalMemory gmem;
      gmem.alloc(32 * 4);
      BlockRunOptions options;
      options.interp = path;
      try {
        run_block(kernel, device, gmem, {}, options);
        FAIL() << "bad shuffle width must throw";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "shuffle width must be a power of two in [1, 32]"),
                  std::string::npos);
      }
    }
  }
}

/// Single-warp kernel whose accel-eligible loop body mixes predicated
/// simple ops (the masked SIMD blend), predicated shared-memory traffic,
/// an unpredicated shuffle, and a barrier. `threshold` sets how many lanes
/// are active (0..32), `negate` flips the polarity, and `shifting` rewrites
/// the predicate register inside the body so the active set rotates every
/// iteration — the case the vector engine must re-evaluate per iteration
/// instead of baking into its steady-state plan.
Kernel build_divergent_stress(int threshold, bool negate, bool shifting) {
  KernelBuilder kb("divergent_stress", 32);
  const SReg out = kb.param();
  const SReg trips = kb.param();
  kb.alloc_smem(32 * 4);
  const VReg t = kb.tid();
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, t, imm_i64(threshold));
  VReg acc = kb.mov(imm_i64(1));
  VReg f = kb.mov(imm_f32(1.0F));
  const VReg idx = kb.mov(t);
  kb.sts(kb.imul(t, imm_i64(4)), t);
  kb.loop(trips);
  kb.begin_pred(p, negate);
  kb.assign(acc, kb.iadd(acc, imm_i64(3)));
  kb.assign(f, kb.fmul(f, imm_f32(1.0001F)));
  kb.end_pred();
  kb.assign(f, kb.fadd(f, kb.shfl_xor(f, imm_i64(1))));
  if (shifting) {
    kb.assign(idx, kb.iand(kb.iadd(idx, imm_i64(1)), imm_i64(31)));
    kb.assign(p, kb.setp(Cmp::kLt, DType::kI64, idx, imm_i64(threshold)));
  }
  kb.begin_pred(p);
  kb.sts(kb.imul(t, imm_i64(4)), acc);
  kb.end_pred();
  kb.begin_pred(p, /*negate=*/true);
  kb.lds_to(acc, kb.imul(kb.ixor(t, imm_i64(1)), imm_i64(4)));
  kb.end_pred();
  kb.bar();
  kb.endloop();
  const VReg nb = kb.lds(kb.imul(kb.ixor(t, imm_i64(1)), imm_i64(4)));
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), kb.iadd(acc, nb));
  kb.stg(kb.iadd(out, kb.iadd(imm_i64(32 * 4), kb.imul(t, imm_i64(4)))), f);
  return kb.build();
}

/// Runs one block on `path` and captures everything it produced; a
/// CheckError is captured too. Tracing pins the instruction-by-instruction
/// schedule but also turns off the vector engine's loop fast-forward, so
/// callers run both ways: traced (per-event equality) and untraced (the
/// fast-forward and its precompiled plan actually engage).
RunOutcome run_captured(const Kernel& kernel, const DeviceSpec& device,
                        GlobalMemory& gmem, const std::vector<std::uint64_t>& args,
                        InterpPath path, bool with_trace) {
  RunOutcome outcome;
  Trace trace;
  GmemWriteSet writes;
  BlockRunOptions options;
  options.interp = path;
  if (with_trace) {
    options.trace = &trace;
    options.writes = &writes;
  }
  try {
    outcome.result = run_block(kernel, device, gmem, args, options);
  } catch (const CheckError& e) {
    outcome.threw = true;
    outcome.error = e.what();
  }
  outcome.memory = gmem.read_u8(0, gmem.size());
  outcome.trace = trace.events();
  outcome.writes = writes.spans();
  return outcome;
}

RunOutcome run_stress(const Kernel& kernel, const DeviceSpec& device,
                      InterpPath path, std::int64_t trips, bool with_trace) {
  GlobalMemory gmem;
  const std::int64_t out = gmem.alloc(32 * 4 * 2);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(out),
                                           static_cast<std::uint64_t>(trips)};
  return run_captured(kernel, device, gmem, args, path, with_trace);
}

TEST(InterpEquivalence, DivergentPredicateStress) {
  const auto device = wsim::simt::make_k1200();
  for (const int threshold : {0, 1, 16, 31, 32}) {
    for (const bool negate : {false, true}) {
      for (const bool shifting : {false, true}) {
        const Kernel kernel =
            build_divergent_stress(threshold, negate, shifting);
        for (const std::int64_t trips : {0LL, 1LL, 2LL, 3LL, 400LL}) {
          for (const bool with_trace : {true, false}) {
            const std::string label =
                "threshold=" + std::to_string(threshold) +
                " negate=" + std::to_string(negate) +
                " shifting=" + std::to_string(shifting) +
                " trips=" + std::to_string(trips) +
                (with_trace ? " traced" : " untraced");
            const RunOutcome legacy =
                run_stress(kernel, device, InterpPath::kLegacy, trips, with_trace);
            const RunOutcome fast =
                run_stress(kernel, device, InterpPath::kFast, trips, with_trace);
            const RunOutcome vec =
                run_stress(kernel, device, InterpPath::kVector, trips, with_trace);
            EXPECT_FALSE(legacy.threw) << label << ": " << legacy.error;
            expect_equal_outcomes(legacy, fast, label + " fast");
            expect_equal_outcomes(legacy, vec, label + " vector");
          }
        }
      }
    }
  }
}

/// Two-warp kernel whose global accesses touch 1, 2 and 32 128-byte
/// segments per warp, repeat segments on consecutive instructions, load a
/// segment right after storing to it, and run under partial and empty
/// predicate masks, so every case of the cold/warm segment model shows in
/// cycles and gmem_transactions.
Kernel build_gmem_segments() {
  KernelBuilder kb("gmem_segments", 64);
  const SReg data = kb.param();   // s0: 32 segments of inputs (+ slack)
  const SReg cold = kb.param();   // s1: 64 untouched segments
  const SReg walk = kb.param();   // s2: one untouched segment per trip
  const SReg out = kb.param();    // s3: 2 x 64 words of results
  const SReg trips = kb.param();  // s4: walk trip count
  const VReg t = kb.tid();
  const VReg lane = kb.laneid();
  const VReg words = kb.iadd(data, kb.imul(lane, imm_i64(4)));
  const VReg rows = kb.imul(lane, imm_i64(128));

  VReg acc = kb.ldg(words);                                       // 1 segment
  kb.assign(acc, kb.iadd(acc, kb.ldg(words, 64)));                // 2, one warm
  kb.assign(acc, kb.iadd(acc, kb.ldg(kb.iadd(data, kb.imul(lane, imm_i64(8))))));  // 2
  const VReg spread = kb.iadd(data, rows);
  kb.assign(acc, kb.iadd(acc, kb.ldg(spread, 4)));                // 32
  kb.assign(acc, kb.iadd(acc, kb.ldg(spread, 8)));                // 32, all warm
  kb.assign(acc, kb.iadd(acc, kb.ldg(kb.iadd(data, lane), 0, MemWidth::kB1)));  // 1

  // Store then load the same (cold) segment: the store warms it.
  const VReg slot = kb.iadd(out, kb.imul(t, imm_i64(4)));
  kb.stg(slot, acc);                                              // 1
  kb.assign(acc, kb.iadd(acc, kb.ldg(slot)));                     // 1, warm

  // Partial masks: 5 lanes warm 5 of the 32 segments the next load
  // touches, then the other 27 lanes; an empty mask touches nothing.
  const VReg few = kb.setp(Cmp::kLt, DType::kI64, lane, imm_i64(5));
  const VReg none = kb.setp(Cmp::kLt, DType::kI64, lane, imm_i64(0));
  const VReg cold_rows = kb.iadd(cold, rows);
  const VReg tmp = kb.mov(imm_i64(0));
  kb.begin_pred(few);
  kb.ldg_to(tmp, cold_rows);                                      // 5
  kb.end_pred();
  kb.assign(acc, kb.iadd(acc, kb.iadd(tmp, kb.ldg(cold_rows))));  // 32, 5 warm
  kb.begin_pred(few, /*negate=*/true);
  kb.ldg_to(tmp, cold_rows, 32 * 128);                            // 27
  kb.stg(cold_rows, acc, 32 * 128 + 4);                           // 27
  kb.end_pred();
  kb.begin_pred(none);
  kb.ldg_to(tmp, cold_rows, 64);                                  // 0
  kb.stg(cold_rows, acc, 68);                                     // 0
  kb.end_pred();
  kb.assign(acc, kb.iadd(acc, tmp));

  // One new segment per trip.
  const VReg step = kb.iadd(walk, kb.imul(lane, imm_i64(4)));
  kb.loop(trips);
  kb.assign(acc, kb.iadd(acc, kb.ldg(step)));                     // 1
  kb.assign(step, kb.iadd(step, imm_i64(128)));
  kb.endloop();
  kb.stg(slot, acc, 64 * 4);                                      // 1
  return kb.build();
}

/// gmem_transactions the kernel above must report: per warp, the counts
/// annotated on its accesses plus one per trip.
std::uint64_t gmem_segments_transactions(std::int64_t trips) {
  const std::uint64_t per_warp =
      1 + 2 + 2 + 32 + 32 + 1 + 1 + 1 + 5 + 32 + 27 + 27 + 1;
  return 2 * (per_warp + static_cast<std::uint64_t>(trips));
}

RunOutcome run_gmem_segments(const Kernel& kernel, const DeviceSpec& device,
                             InterpPath path, std::int64_t trips, bool with_trace) {
  GlobalMemory gmem;
  const std::int64_t data = gmem.alloc(33 * 128, 128);
  const std::int64_t cold = gmem.alloc(64 * 128, 128);
  const std::int64_t walk = gmem.alloc(static_cast<std::size_t>(trips + 1) * 128, 128);
  const std::int64_t out = gmem.alloc(2 * 64 * 4, 128);
  std::vector<std::uint8_t> bytes(33 * 128);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  gmem.write_u8(data, bytes);
  gmem.write_u8(walk, std::vector<std::uint8_t>(
                          static_cast<std::size_t>(trips + 1) * 128, 3));
  const std::vector<std::uint64_t> args = {
      static_cast<std::uint64_t>(data), static_cast<std::uint64_t>(cold),
      static_cast<std::uint64_t>(walk), static_cast<std::uint64_t>(out),
      static_cast<std::uint64_t>(trips)};
  return run_captured(kernel, device, gmem, args, path, with_trace);
}

TEST(InterpEquivalence, GlobalSegmentsWarmOncePerAccess) {
  const Kernel kernel = build_gmem_segments();
  for (const DeviceSpec& device : wsim::simt::all_devices()) {
    for (const std::int64_t trips : {0LL, 1LL, 6LL}) {
      for (const bool with_trace : {true, false}) {
        const std::string label = device.name + " trips=" + std::to_string(trips) +
                                  (with_trace ? " traced" : " untraced");
        const RunOutcome legacy =
            run_gmem_segments(kernel, device, InterpPath::kLegacy, trips, with_trace);
        const RunOutcome fast =
            run_gmem_segments(kernel, device, InterpPath::kFast, trips, with_trace);
        const RunOutcome vec =
            run_gmem_segments(kernel, device, InterpPath::kVector, trips, with_trace);
        ASSERT_FALSE(legacy.threw) << label << ": " << legacy.error;
        EXPECT_EQ(legacy.result.gmem_transactions, gmem_segments_transactions(trips))
            << label;
        expect_equal_outcomes(legacy, fast, label + " fast");
        expect_equal_outcomes(legacy, vec, label + " vector");
      }
    }
  }
}

TEST(InterpEquivalence, GlobalOutOfBoundsLaneThrowsTheSameOnEveryPath) {
  const auto device = wsim::simt::make_k40();
  for (const bool store : {false, true}) {
    // Lane 13 of warp 1 points far past the arena; lanes before it have
    // already accessed memory when it throws.
    KernelBuilder kb("gmem_oob", 64);
    const SReg base = kb.param();
    const VReg t = kb.tid();
    const VReg slot = kb.iadd(base, kb.imul(t, imm_i64(4)));
    const VReg bad = kb.setp(Cmp::kEq, DType::kI64, t, imm_i64(32 + 13));
    const VReg addr = kb.selp(bad, imm_i64(std::int64_t{1} << 40), slot);
    const VReg v = kb.ldg(slot);
    if (store) {
      kb.stg(addr, kb.iadd(v, imm_i64(1000)));
    } else {
      kb.stg(slot, kb.iadd(v, kb.ldg(addr)));
    }
    const Kernel kernel = kb.build();
    std::vector<RunOutcome> outcomes;
    for (const InterpPath path :
         {InterpPath::kLegacy, InterpPath::kFast, InterpPath::kVector}) {
      GlobalMemory gmem;
      const std::int64_t base_addr = gmem.alloc(64 * 4, 128);
      std::vector<std::int32_t> init(64);
      for (int i = 0; i < 64; ++i) {
        init[static_cast<std::size_t>(i)] = 7 * i;
      }
      gmem.write_i32(base_addr, init);
      outcomes.push_back(run_captured(
          kernel, device, gmem, {static_cast<std::uint64_t>(base_addr)}, path,
          /*with_trace=*/true));
    }
    const std::string label = store ? "stg" : "ldg";
    ASSERT_TRUE(outcomes[0].threw) << label;
    EXPECT_NE(outcomes[0].error.find("global memory access out of bounds"),
              std::string::npos)
        << label << ": " << outcomes[0].error;
    for (std::size_t k = 1; k < outcomes.size(); ++k) {
      EXPECT_TRUE(outcomes[k].threw) << label << " path " << k;
      EXPECT_EQ(outcomes[0].error, outcomes[k].error) << label << " path " << k;
      EXPECT_EQ(outcomes[0].memory, outcomes[k].memory) << label << " path " << k;
      EXPECT_EQ(outcomes[0].writes, outcomes[k].writes) << label << " path " << k;
    }
  }
}

TEST(InterpEquivalence, EnvironmentKnobSelectsThePath) {
  // Explicit requests are never overridden.
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kFast), InterpPath::kFast);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kLegacy),
            InterpPath::kLegacy);
  // kDefault defers to WSIM_INTERP, resolved per call (not cached).
  ::setenv("WSIM_INTERP", "legacy", 1);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kLegacy);
  ::setenv("WSIM_INTERP", "fast", 1);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kFast);
  ::setenv("WSIM_INTERP", "vector", 1);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kVector);
  // "fast" is matched by name, not reached as the fallback: with the
  // default engine "fast" and an unknown name resolve differently.
  ::setenv("WSIM_INTERP", "fast", 1);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kFast);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kVector),
            InterpPath::kVector);
  // Unset, empty, or unknown values give the default engine, kVector.
  for (const char* unknown : {"turbo", "", "FAST", "fast "}) {
    ::setenv("WSIM_INTERP", unknown, 1);
    EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
              InterpPath::kVector)
        << "WSIM_INTERP='" << unknown << "'";
  }
  ::unsetenv("WSIM_INTERP");
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kVector);
}

}  // namespace
