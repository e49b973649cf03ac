#include "wsim/cli/commands.hpp"

#include <algorithm>

namespace wsim::cli {

const std::vector<CommandInfo>& commands() {
  static const std::vector<CommandInfo> registry = {
      {"devices",
       "  devices                      list simulated GPUs\n"},
      {"micro",
       "  micro    [--device D]        Fig. 3 instruction-latency microbenchmarks\n"},
      {"sw",
       "  sw       QUERY TARGET [--profile ''] Smith-Waterman alignment\n"},
      {"nw",
       "  nw       QUERY TARGET        Needleman-Wunsch global score\n"},
      {"pairhmm",
       "  pairhmm  READ HAP [--qual N] PairHMM log10 likelihood\n"},
      {"sw-run",
       "  sw-run   [--kernel shared|shuffle|wf-shared|wf-shuffle|wf-naive]\n"
       "           [--profile short-read|long-read|contig] [--tasks N]\n"
       "           [--verify ''] [--device D] [--seed S]\n"
       "           run one SW batch through a named kernel subsystem: plain\n"
       "           names pick the task-per-block (inter-task) designs, wf-*\n"
       "           the intra-task wavefront tiles (one warp per 256x32 tile,\n"
       "           one launch per tile wave; wf-naive is the host-synchronized\n"
       "           kernel-per-diagonal anti-pattern, kept to be measured);\n"
       "           --verify re-scores every CIGAR against the scoring scheme\n"},
      {"workload",
       "  workload [--regions N] [--in F] [--out F]  dataset stats / convert\n"},
      {"sweep",
       "  sweep    [--batch N] [--in F]    GCUPS of SW1/SW2/PH1/PH2\n"},
      {"pipeline",
       "  pipeline [--in F] [--batch N] [--streams ''] [--lpt ''] [--validate '']\n"
       "           run the two-stage HaplotypeCaller pipeline\n"},
      {"serve-sim",
       "  serve-sim [--in F] [--rate R] [--delay US] [--deadline US] [--queue N]\n"
       "            [--target-cells C] [--max-batch N] [--outputs ''] [--json F]\n"
       "            [--trace-out F] [--metrics-out F]\n"
       "           replay a dataset as an open-loop arrival process (R requests\n"
       "           per simulated second) through the async alignment service\n"},
      {"fleet-sim",
       "  fleet-sim [--fleet \"K40,K1200,Titan X\"]\n"
       "            [--policy model|rr|least-cells|calibrated]\n"
       "            [--parallelism auto|inter|intra] [--kernel NAME]\n"
       "            [--profile short-read|long-read|contig]\n"
       "            [--fail-prob P] [--slow-prob P] [--slow-factor X]\n"
       "            [--degrade \"DEV@FACTOR[:stuck|ramp|flap[:ONSET[:PARAM]]]\"]\n"
       "            [--calibrate on|off]\n"
       "            [--fault-seed S] [--json F] [--trace-out F]\n"
       "            [--metrics-out F] [+ serve-sim options]\n"
       "           the serve-sim replay over a heterogeneous multi-device fleet\n"
       "           with model-guided placement, fault injection, and retry;\n"
       "           prints per-device utilization and dispatch accounting.\n"
       "           --parallelism auto lets the Eq. 7/8 regime model route each\n"
       "           SW batch inter- vs intra-task per device; --kernel pins one\n"
       "           subsystem fleet-wide (wf-* names force the wavefront path).\n"
       "           --degrade silently slows a device (no fault counters) in\n"
       "           per-device dispatch-sequence space; --calibrate (default on\n"
       "           for --policy calibrated) runs the online model calibration\n"
       "           and drift ladder that detects and derates such devices\n"},
      {"cluster-sim",
       "  cluster-sim [--trace F | --shape steady|diurnal|bursty] [--save-trace F]\n"
       "            [--duration S] [--rate R] [--tenants N] [--slo MS]\n"
       "            [--quota N] [--fleet-device D] [--min N] [--max N]\n"
       "            [--autoscaler on|off] [--interval US] [--warmup US]\n"
       "            [--target-backlog US] [--cost-hour C]\n"
       "            [--policy model|rr|least-cells|calibrated]\n"
       "            [--degrade \"DEV@FACTOR[:stuck|ramp|flap[:ONSET[:PARAM]]]\"]\n"
       "            [--calibrate on|off] [--json F]\n"
       "            [--trace-out F] [--metrics-out F]\n"
       "           multi-tenant cluster-scale serving on a dynamically-scaled\n"
       "           fleet: replay (or generate, optionally saving with\n"
       "           --save-trace) a traffic trace through the admission-controlled\n"
       "           service while the queue-depth autoscaler joins and drains\n"
       "           workers; reports per-tenant latency percentiles, SLO\n"
       "           violations, goodput, device-hours, and cost per million\n"
       "           requests. With --calibrate on the autoscaler derates its\n"
       "           Eq. 7/8 capacity by the fleet's calibrated correction, so a\n"
       "           silently degraded (--degrade) pool scales out\n"},
      {"guard-sim",
       "  guard-sim [--flip-prob \"3e-7,3e-6\"] [--detect none|abft|dual|all]\n"
       "            [--regions N] [--batch N] [--fleet \"K1200,Titan X\"]\n"
       "            [--sdc-seed S] [--json F] [--trace-out F] [--metrics-out F]\n"
       "           sweep silent-data-corruption injection rate x detection mode\n"
       "           over an output-collecting fleet run: every delivered batch is\n"
       "           compared bit-for-bit against a fault-free baseline and escaped\n"
       "           corruptions are counted per cell (dual detection must report\n"
       "           0; PairHMM CPU fallbacks are accurate but not bit-identical\n"
       "           and are excluded from the comparison)\n"},
  };
  return registry;
}

bool has_command(std::string_view name) {
  const auto& registry = commands();
  return std::any_of(registry.begin(), registry.end(),
                     [&](const CommandInfo& info) { return info.name == name; });
}

std::string usage_text() {
  std::string text =
      "usage: wsim <command> [options]\n"
      "commands:\n";
  for (const CommandInfo& info : commands()) {
    text += info.help;
  }
  text +=
      "  help | --help | -h           print this usage and exit 0\n"
      "common options: --device \"K40\"|\"K1200\"|\"Titan X\", --mode shared|shuffle,\n"
      "                --seed N, --regions N\n"
      "                --threads N  simulation worker threads for block execution\n"
      "                             (default: one per hardware thread; results\n"
      "                              are identical at any thread count)\n"
      "                --interp fast|legacy|vector  interpreter path: predecoded\n"
      "                             per-lane fast dispatch, the legacy switch\n"
      "                             interpreter, or the SIMD lane-vector engine\n"
      "                             (default; results are bit-identical on all\n"
      "                             three)\n"
      "observability:  --trace-out F   write a Chrome trace-event JSON of the\n"
      "                             run (simulated clock; open in Perfetto or\n"
      "                             chrome://tracing)\n"
      "                --metrics-out F  write the flat obs metrics dump\n"
      "                             (counters/gauges/histograms, versioned\n"
      "                             schema); both flags default the run to the\n"
      "                             otherwise-free disabled level\n"
      "environment:    WSIM_THREADS=N  worker count of the process-wide shared\n"
      "                             engine, used whenever --threads is absent or\n"
      "                             <= 0 (pipeline, benches, library default)\n"
      "                WSIM_INTERP=fast|legacy|vector  select the interpreter\n"
      "                             when --interp is absent (default: vector;\n"
      "                             an unknown name is a usage error)\n"
      "                WSIM_VECTOR_ISA=generic|avx2|avx512  clamp the lane-vector\n"
      "                             engine's SIMD tier (downgrade-only; default:\n"
      "                             best the CPU supports)\n";
  return text;
}

std::string interp_error(std::string_view name) {
  if (name == "fast" || name == "legacy" || name == "vector") {
    return {};
  }
  return "error: unknown interpreter '" + std::string(name) +
         "' for --interp; valid names: fast, legacy, vector";
}

std::string interp_knob(std::string_view flag, const char* env) {
  if (!flag.empty() || env == nullptr) {
    return std::string(flag);
  }
  return env;
}

}  // namespace wsim::cli
