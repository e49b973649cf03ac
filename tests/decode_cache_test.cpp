// Concurrency and reuse contract of the decoded-program cache: each
// (kernel, device) identity is decoded exactly once per process no matter
// how many threads race on first use, engine launches share one decoded
// program across workers, and distinct kernels/devices get distinct
// programs. Also the contract of the identity memo on Kernel: the same
// values as a fresh hash (and as before the memo existed), carried by
// copies, never stale. Run in the ThreadSanitizer CI job — the assertions
// here are the functional half, TSan provides the data-race half.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/scan_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/simt/builder.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/memory.hpp"

namespace {

using wsim::simt::DecodedProgram;
using wsim::simt::DecodedProgramCache;
using wsim::simt::DeviceSpec;
using wsim::simt::imm_i64;
using wsim::simt::Kernel;
using wsim::simt::kernel_identity;
using wsim::simt::KernelBuilder;
using wsim::simt::VReg;

Kernel build_store_kernel(const std::string& name, int rounds) {
  KernelBuilder kb(name, 32);
  const auto out = kb.param();
  const VReg t = kb.tid();
  VReg acc = kb.mov(imm_i64(0));
  kb.loop(imm_i64(rounds));
  kb.assign(acc, kb.iadd(acc, kb.shfl_down(t, imm_i64(1))));
  kb.endloop();
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), acc);
  return kb.build();
}

/// A kernel rebuilt from `kernel`'s content: same values, empty memo.
Kernel fresh_copy(const Kernel& kernel) {
  return Kernel(kernel.name(), kernel.threads_per_block(), kernel.code(),
                kernel.vreg_count(), kernel.sreg_count(), kernel.smem_bytes());
}

TEST(DecodeCache, RacingThreadsDecodeEachIdentityOnce) {
  // The threads also race on the kernel's first identity (its memo is
  // empty until then): every one must see the value a fresh hash gives.
  DecodedProgramCache cache;
  const Kernel kernel = build_store_kernel("race_once", 4);
  const DeviceSpec device = wsim::simt::make_k1200();
  const std::uint64_t expected = kernel_identity(fresh_copy(kernel), device);
  ASSERT_FALSE(kernel.identity_memoized());

  constexpr int kThreads = 8;
  std::vector<std::uint64_t> ids(kThreads, 0);
  std::vector<std::shared_ptr<const DecodedProgram>> programs(kThreads);
  std::atomic<int> ready{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        // Start together so the first uses genuinely overlap.
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
          std::this_thread::yield();
        }
        ids[static_cast<std::size_t>(i)] = kernel_identity(kernel, device);
        programs[static_cast<std::size_t>(i)] = cache.get(kernel, device);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  EXPECT_EQ(cache.decode_count(), 1U);
  EXPECT_EQ(cache.size(), 1U);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(ids[static_cast<std::size_t>(i)], expected) << "thread " << i;
    // Pointer equality: every thread sees the one shared program.
    EXPECT_EQ(programs[static_cast<std::size_t>(i)].get(), programs[0].get());
  }
  EXPECT_EQ(programs[0]->identity, expected);
}

TEST(DecodeCache, DistinctKernelsAndDevicesDecodeSeparately) {
  DecodedProgramCache cache;
  constexpr int kKernels = 6;
  std::vector<Kernel> kernels;
  kernels.reserve(kKernels);
  for (int k = 0; k < kKernels; ++k) {
    kernels.push_back(build_store_kernel("distinct_" + std::to_string(k), k + 1));
  }
  const auto devices = wsim::simt::all_devices();

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (const Kernel& kernel : kernels) {
        for (const DeviceSpec& device : devices) {
          ASSERT_NE(cache.get(kernel, device), nullptr);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kKernels) * devices.size();
  EXPECT_EQ(cache.decode_count(), expected);
  EXPECT_EQ(cache.size(), expected);

  // Same kernel on different devices is a different identity (latencies
  // are baked in), so no cross-device aliasing is possible.
  const auto k40 = cache.get(kernels[0], wsim::simt::make_k40());
  const auto titan = cache.get(kernels[0], wsim::simt::make_titan_x());
  EXPECT_NE(k40.get(), titan.get());
  EXPECT_NE(k40->identity, titan->identity);
  EXPECT_EQ(cache.decode_count(), expected);  // hits, not re-decodes
}

TEST(DecodeCache, ConcurrentEngineLaunchesShareTheProcessCache) {
  // Multi-threaded launches through two engines stress the shared
  // process-wide cache the way production does; under TSan this is the
  // race check for the fast path's predecode step.
  const Kernel kernel = build_store_kernel("engine_shared", 8);
  const DeviceSpec device = wsim::simt::make_titan_x();
  const std::uint64_t decodes_before =
      wsim::simt::shared_decoded_cache().decode_count();

  wsim::simt::EngineOptions engine_options;
  engine_options.threads = 4;
  wsim::simt::ExecutionEngine engine_a(engine_options);
  wsim::simt::ExecutionEngine engine_b(engine_options);

  const auto launch_many = [&](wsim::simt::ExecutionEngine& engine) {
    wsim::simt::GlobalMemory gmem;
    constexpr int kBlocks = 16;
    const std::int64_t out = gmem.alloc(kBlocks * 32 * 4);
    std::vector<wsim::simt::BlockLaunch> blocks(kBlocks);
    for (int b = 0; b < kBlocks; ++b) {
      blocks[static_cast<std::size_t>(b)].args = {
          static_cast<std::uint64_t>(out + b * 32 * 4)};
    }
    const auto result = engine.launch(kernel, device, gmem, blocks);
    EXPECT_EQ(result.blocks_executed, static_cast<std::uint64_t>(kBlocks));
  };

  std::thread ta([&] { launch_many(engine_a); });
  std::thread tb([&] { launch_many(engine_b); });
  ta.join();
  tb.join();

  // Both engines, all workers: at most one new decode for this identity.
  EXPECT_LE(wsim::simt::shared_decoded_cache().decode_count(),
            decodes_before + 1);
}

struct ShippedKernel {
  const char* name;
  std::function<Kernel()> build;
  /// kernel_identity on K40, K1200 and Titan X, as computed before the
  /// identity was memoized (the full hash on every call).
  std::array<std::uint64_t, 3> seed_identity;
};

std::vector<ShippedKernel> shipped_kernels() {
  using wsim::kernels::CommMode;
  using wsim::kernels::WfVariant;
  namespace k = wsim::kernels;
  return {
      {"sw/shared", [] { return k::build_sw_kernel(CommMode::kSharedMemory, {}); },
       {0x70139946C130BCF0ULL, 0xEFC8CE1373AEDB22ULL, 0x56567B6B3D34E87EULL}},
      {"sw/shuffle", [] { return k::build_sw_kernel(CommMode::kShuffle, {}); },
       {0x499A80C252CA7EF7ULL, 0x0D890911FF059379ULL, 0xDBB7916A7FCC5B61ULL}},
      {"nw/shared", [] { return k::build_nw_kernel(CommMode::kSharedMemory, {}); },
       {0x6D0574C2C2B8F807ULL, 0xEB0B25A0B1925E29ULL, 0x46505FE598A499B1ULL}},
      {"nw/shuffle", [] { return k::build_nw_kernel(CommMode::kShuffle, {}); },
       {0xA2E82E146D7976B6ULL, 0xECFE49E26081AE88ULL, 0x576D03B43F04F688ULL}},
      {"ph/shared/128", [] { return k::build_ph_shared_kernel(128); },
       {0x549733C65ABC6CD3ULL, 0xEB7635674BE72F5DULL, 0xA063AA01A8A797EDULL}},
      {"ph/shared/32", [] { return k::build_ph_shared_kernel(32); },
       {0x57F18C3EA8232CBBULL, 0xC299836AB2A21E35ULL, 0xCEDBC6063CA98C25ULL}},
      {"ph/shuffle/4", [] { return k::build_ph_shuffle_kernel(4); },
       {0xD7AA376B1D0829C1ULL, 0x5A568A66CC2F243BULL, 0xE3C81F0E55B82EAFULL}},
      {"ph/shuffle/1", [] { return k::build_ph_shuffle_kernel(1); },
       {0xF673D2BAD9C21B9BULL, 0xB8B5050C70D44C15ULL, 0xF59E2B74B5761CC5ULL}},
      {"ph/hybrid/128", [] { return k::build_ph_hybrid_kernel(128); },
       {0xC6D8672784E52792ULL, 0x5915BC371E635D8CULL, 0x03B23181562F73B4ULL}},
      {"wf/sw/shuffle", [] { return k::build_wf_sw_kernel(WfVariant::kShuffle, {}); },
       {0x889745AEE85AC1C2ULL, 0xBCF58446DF4844DCULL, 0xD1C88CC23CB396A4ULL}},
      {"wf/sw/shared", [] { return k::build_wf_sw_kernel(WfVariant::kSharedMemory, {}); },
       {0xBEE43164E972AAA5ULL, 0xD50757BE9CEE30C7ULL, 0x8D8EBC4EB063D703ULL}},
      {"wf/sw/naive", [] { return k::build_wf_naive_sw_kernel({}); },
       {0x2DC7DE5937E899C5ULL, 0xCE19357C60E7B0E7ULL, 0xAEB06E41B3317563ULL}},
      {"wf/nw/shuffle", [] { return k::build_wf_nw_kernel(WfVariant::kShuffle, {}); },
       {0xE554EE362ACD5C8BULL, 0xE4D281F9B337BE25ULL, 0xBFFF57746FAF99B5ULL}},
      {"wf/nw/naive", [] { return k::build_wf_naive_nw_kernel({}); },
       {0x29D84C9C04BD99BAULL, 0x619F380583167644ULL, 0xDD8F45042021E9ACULL}},
      {"scan/shared/128", [] { return k::build_scan_kernel(CommMode::kSharedMemory, 128); },
       {0xF512242CEE807CF9ULL, 0x820E92A9E266B5A3ULL, 0x9902F85B581951B7ULL}},
      {"scan/shuffle/128", [] { return k::build_scan_kernel(CommMode::kShuffle, 128); },
       {0xA3A9C4C8C7752C35ULL, 0x914092DDDA8B10B7ULL, 0x0B6491FE94E7D553ULL}},
  };
}

TEST(KernelIdentityMemo, ShippedKernelsMatchFreshHashAndSeedValues) {
  const std::array<DeviceSpec, 3> devices = {
      wsim::simt::make_k40(), wsim::simt::make_k1200(), wsim::simt::make_titan_x()};
  for (const ShippedKernel& shipped : shipped_kernels()) {
    const Kernel kernel = shipped.build();
    EXPECT_FALSE(kernel.identity_memoized()) << shipped.name;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      // First call fills the memo, the second reads it; both must equal a
      // hash of a memo-less copy and the pre-memo value.
      const std::uint64_t first = kernel_identity(kernel, devices[d]);
      EXPECT_TRUE(kernel.identity_memoized()) << shipped.name;
      const std::uint64_t memoized = kernel_identity(kernel, devices[d]);
      const std::uint64_t fresh = kernel_identity(fresh_copy(kernel), devices[d]);
      EXPECT_EQ(first, fresh) << shipped.name << " on " << devices[d].name;
      EXPECT_EQ(memoized, fresh) << shipped.name << " on " << devices[d].name;
      EXPECT_EQ(memoized, shipped.seed_identity[d])
          << shipped.name << " on " << devices[d].name;
    }
  }
}

TEST(KernelIdentityMemo, CopiesCarryTheMemoAndMovesDropIt) {
  const DeviceSpec device = wsim::simt::make_k1200();
  Kernel original = build_store_kernel("memo_copy", 3);
  const std::uint64_t id = kernel_identity(original, device);

  const Kernel copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.identity_memoized());
  EXPECT_EQ(kernel_identity(copy, device), id);
  Kernel assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.identity_memoized());
  EXPECT_EQ(kernel_identity(assigned, device), id);

  Kernel moved = std::move(original);
  EXPECT_TRUE(moved.identity_memoized());
  EXPECT_EQ(kernel_identity(moved, device), id);
  // The moved-from shell no longer owns the content it was hashed from.
  EXPECT_FALSE(original.identity_memoized());  // NOLINT(bugprone-use-after-move)
}

TEST(KernelIdentityMemo, ReplacingAKernelNeverRunsAStaleDecode) {
  // Kernel content is read-only; the one way to change a kernel is to
  // build or construct a new one and assign it over the old. The memo
  // travels with the content, so the replacement hashes afresh, misses
  // the cache, and decodes its own instructions.
  DecodedProgramCache cache;
  const DeviceSpec device = wsim::simt::make_titan_x();
  Kernel kernel = build_store_kernel("memo_patch", 2);
  const std::uint64_t before = kernel_identity(kernel, device);
  const auto prog_before = cache.get(kernel, device);
  ASSERT_EQ(cache.decode_count(), 1U);

  // Patch the loop's trip-count immediate (2 -> 5).
  std::vector<wsim::simt::Instr> code = kernel.code();
  std::size_t loop_pc = code.size();
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    if (code[pc].op == wsim::simt::Op::kLoop) {
      loop_pc = pc;
    }
  }
  ASSERT_LT(loop_pc, code.size());
  ASSERT_EQ(code[loop_pc].a.imm, 2U);
  code[loop_pc].a.imm = 5;
  kernel = Kernel(kernel.name(), kernel.threads_per_block(), std::move(code),
                  kernel.vreg_count(), kernel.sreg_count(), kernel.smem_bytes());
  EXPECT_FALSE(kernel.identity_memoized());

  const std::uint64_t after = kernel_identity(kernel, device);
  EXPECT_NE(after, before);
  const auto prog_after = cache.get(kernel, device);
  EXPECT_EQ(cache.decode_count(), 2U);
  EXPECT_NE(prog_after.get(), prog_before.get());
  EXPECT_EQ(prog_after->identity, after);
  EXPECT_EQ(prog_after->code[loop_pc].a.imm, 5U);
  EXPECT_EQ(prog_before->code[loop_pc].a.imm, 2U);
}

}  // namespace
