#pragma once

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string_view>

namespace wsim::simt {

namespace sdc_detail {

/// splitmix64 finalizer: full-avalanche mix, so consecutive event numbers
/// give independent-looking draws.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace sdc_detail

/// Write-event class an SDC flip can land in. The interpreter injects at
/// the three communication surfaces the paper's dependence chains flow
/// through (Eqs. 1-4): values written to vector registers, values stored
/// to shared memory, and shuffle payloads. Loads are left clean so every
/// corruption has exactly one injection site.
enum class SdcSite : std::uint64_t {
  kRegWrite = 0,
  kSmemStore = 1,
  kShuffle = 2,
};

/// Deterministic, seeded silent-data-corruption injection: every decision
/// is a pure function of (seed, stream, per-block write-event number,
/// site), where `stream` identifies the (device, launch, block) the event
/// belongs to — the same determinism discipline as fleet::FaultPlan. A
/// replay with the same plan and the same launches sees exactly the same
/// flips, independent of engine thread count (block execution is
/// single-threaded, so event numbering is reproducible).
///
/// The draw for one event is
///   h = mix(mix(mix(kDomain ^ seed) ^ stream) ^ (event * 4 + site))
/// and fires when the top 53 bits of h, read as a uniform in [0, 1), fall
/// below flip_prob; the flipped bit is mix(h) & 31. The first two rounds
/// depend only on the block, so engines take a Block once per block
/// (block(stream)) and pay one inlined mix and one integer compare per
/// write event; the second mix runs only on a hit.
///
/// Unlike FaultPlan, which perturbs *time* (fail-stop launch failures and
/// slowdowns), SdcPlan perturbs *values*: a fired event XORs one bit of
/// the written word. The two plans hash under distinct domain tags, so
/// the same seed drives uncorrelated fault and corruption streams.
struct SdcPlan {
  /// Domain tag separating SdcPlan draws from FaultPlan draws (see
  /// fleet::FaultPlan::kDomain); pinned different by guard_test.
  static constexpr std::uint64_t kDomain = 0x3C69F1E6D5A3B28DULL;

  std::uint64_t seed = 0;
  /// Per-event flip probability; 0 disables injection.
  double flip_prob = 0.0;
  bool reg_writes = true;
  bool smem_stores = true;
  bool shuffle_payloads = true;

  bool enabled() const noexcept {
    return flip_prob > 0.0 && (reg_writes || smem_stores || shuffle_payloads);
  }

  bool site_enabled(SdcSite site) const noexcept {
    switch (site) {
      case SdcSite::kRegWrite: return reg_writes;
      case SdcSite::kSmemStore: return smem_stores;
      case SdcSite::kShuffle: return shuffle_payloads;
    }
    return false;
  }

  /// The plan specialized to one block context: the block-invariant hash
  /// prefix, flip_prob as an integer threshold on the 53-bit draw, and the
  /// enabled sites as a bitmask. Inactive (never flips) when the plan is
  /// disabled.
  struct Block {
    std::uint64_t key = 0;
    /// (h >> 11) < threshold  <=>  (h >> 11) * 2^-53 < flip_prob.
    std::uint64_t threshold = 0;
    /// Bit `site` is set when that SdcSite is eligible.
    unsigned sites = 0;

    bool active() const noexcept { return sites != 0; }

    /// True when write event `event` of `site` flips; `*bit` then holds
    /// the flipped bit position (0-31: all data paths are 32-bit words).
    bool flips(std::uint64_t event, SdcSite site, int* bit) const noexcept {
      if (((sites >> static_cast<unsigned>(site)) & 1U) == 0) {
        return false;
      }
      const std::uint64_t h =
          sdc_detail::mix(key ^ (event * 4 + static_cast<std::uint64_t>(site)));
      if ((h >> 11) >= threshold) [[likely]] {
        return false;
      }
      *bit = static_cast<int>(sdc_detail::mix(h) & 31);
      return true;
    }
  };

  /// The draw of block context `stream` (simt::sdc_stream).
  Block block(std::uint64_t stream) const noexcept {
    Block b;
    if (!enabled()) {
      return b;
    }
    b.key = sdc_detail::mix(sdc_detail::mix(kDomain ^ seed) ^ stream);
    // p * 2^53 is exact (a power-of-two scale), so for an integer draw x,
    // x < p * 2^53 holds exactly when x < ceil(p * 2^53). Every draw is
    // below 2^53, so p >= 1 always fires.
    b.threshold = flip_prob >= 1.0
                      ? std::uint64_t{1} << 53
                      : static_cast<std::uint64_t>(std::ceil(flip_prob * 0x1.0p53));
    for (const SdcSite site : {SdcSite::kRegWrite, SdcSite::kSmemStore, SdcSite::kShuffle}) {
      if (site_enabled(site)) {
        b.sites |= 1U << static_cast<unsigned>(site);
      }
    }
    return b;
  }
};

/// FNV-1a hash of a device name, the device component of an SDC stream.
std::uint64_t sdc_device_hash(std::string_view device_name) noexcept;

/// Stream id of one block: pure hash of (device, launch, block index).
std::uint64_t sdc_stream(std::uint64_t device_hash, std::uint64_t launch_id,
                         std::uint64_t block_index) noexcept;

/// Derives a distinct launch id for sub-launch `sub` of a logical launch
/// (e.g. the per-variant launches of one PairHMM batch), so their blocks
/// draw from disjoint streams.
std::uint64_t sdc_sub_launch(std::uint64_t launch_id, std::uint64_t sub) noexcept;

}  // namespace wsim::simt
