#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "wsim/cli/commands.hpp"

namespace {

namespace cli = wsim::cli;

// Satellite: the CLI help text cannot drift from the dispatch table. The
// binary's main() asserts registry<->handler agreement at startup; this
// test pins the registry<->help side so a new subcommand without usage
// documentation fails CI.

TEST(CliUsage, CommandNamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> seen;
  for (const auto& info : cli::commands()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.help.empty()) << info.name;
    EXPECT_TRUE(seen.insert(info.name).second) << "duplicate: " << info.name;
  }
  EXPECT_GE(seen.size(), 11U);  // the PR-4 command set; growth is fine
}

TEST(CliUsage, UsageTextCoversEveryRegisteredCommand) {
  const std::string usage = cli::usage_text();
  for (const auto& info : cli::commands()) {
    // Each command's help block starts with the indented command name.
    const std::string anchor = "\n  " + std::string(info.name) + " ";
    EXPECT_NE(("\n" + usage).find(anchor), std::string::npos)
        << "usage text missing help for '" << info.name << "'";
  }
}

TEST(CliUsage, UsageTextKeepsGlobalSections) {
  const std::string usage = cli::usage_text();
  EXPECT_EQ(usage.rfind("usage: wsim <command> [options]", 0), 0U);
  EXPECT_NE(usage.find("commands:"), std::string::npos);
  EXPECT_NE(usage.find("common options:"), std::string::npos);
  EXPECT_NE(usage.find("WSIM_THREADS"), std::string::npos);
}

TEST(CliUsage, HasCommandMatchesRegistry) {
  for (const auto& info : cli::commands()) {
    EXPECT_TRUE(cli::has_command(info.name)) << info.name;
  }
  EXPECT_FALSE(cli::has_command("bogus"));
  EXPECT_FALSE(cli::has_command(""));
  EXPECT_FALSE(cli::has_command("guard"));  // prefix of guard-sim, not a command
}

TEST(CliUsage, InterpreterKnobDocumentsAllThreeEngines) {
  const std::string usage = cli::usage_text();
  EXPECT_NE(usage.find("--interp fast|legacy|vector"), std::string::npos);
  EXPECT_NE(usage.find("WSIM_INTERP=fast|legacy|vector"), std::string::npos);
  EXPECT_NE(usage.find("WSIM_VECTOR_ISA=generic|avx2|avx512"), std::string::npos);
}

TEST(CliUsage, InterpErrorAcceptsKnownEnginesOnly) {
  EXPECT_TRUE(cli::interp_error("fast").empty());
  EXPECT_TRUE(cli::interp_error("legacy").empty());
  EXPECT_TRUE(cli::interp_error("vector").empty());
  // Unknown names produce the one-line error naming the offender and
  // listing every valid engine, exactly as the driver prints it.
  const std::string err = cli::interp_error("turbo");
  EXPECT_EQ(err,
            "error: unknown interpreter 'turbo' for --interp; "
            "valid names: fast, legacy, vector");
  EXPECT_FALSE(cli::interp_error("").empty());
  EXPECT_FALSE(cli::interp_error("FAST").empty());
  EXPECT_FALSE(cli::interp_error("vector ").empty());
}

TEST(CliUsage, InterpKnobPrefersTheFlagThenTheEnvironment) {
  // The binary validates interp_knob(--interp, WSIM_INTERP) with
  // interp_error, so a misspelt environment value is a usage error (exit
  // 2, the --interp message) instead of a silent run of the default.
  EXPECT_EQ(cli::interp_knob("", nullptr), "");
  EXPECT_EQ(cli::interp_knob("", "fast"), "fast");
  EXPECT_EQ(cli::interp_knob("legacy", "vector"), "legacy");
  EXPECT_EQ(cli::interp_knob("vector", "turbo"), "vector");
  const std::string from_env = cli::interp_knob("", "turbo");
  EXPECT_EQ(from_env, "turbo");
  EXPECT_EQ(cli::interp_error(from_env),
            "error: unknown interpreter 'turbo' for --interp; "
            "valid names: fast, legacy, vector");
  // An empty WSIM_INTERP counts as unset.
  EXPECT_EQ(cli::interp_knob("", ""), "");
}

TEST(CliUsage, ResilienceCommandsAreDocumented) {
  EXPECT_TRUE(cli::has_command("guard-sim"));
  EXPECT_TRUE(cli::has_command("fleet-sim"));
  const std::string usage = cli::usage_text();
  EXPECT_NE(usage.find("--flip-prob"), std::string::npos);
  EXPECT_NE(usage.find("--detect none|abft|dual|all"), std::string::npos);
}

}  // namespace
