#include "wsim/simt/sdc.hpp"

namespace wsim::simt {

using sdc_detail::mix;

std::uint64_t sdc_device_hash(std::string_view device_name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : device_name) {  // FNV-1a
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t sdc_stream(std::uint64_t device_hash, std::uint64_t launch_id,
                         std::uint64_t block_index) noexcept {
  return mix(mix(device_hash ^ mix(launch_id)) ^ block_index);
}

std::uint64_t sdc_sub_launch(std::uint64_t launch_id, std::uint64_t sub) noexcept {
  return mix(launch_id ^ mix(sub + 1));
}

}  // namespace wsim::simt
