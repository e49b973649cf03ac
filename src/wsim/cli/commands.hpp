#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsim::cli {

/// One registered subcommand of the `wsim` driver: the dispatch name and
/// the preformatted help block (synopsis + description, two-space
/// indented, newline-terminated) that usage_text() prints for it.
struct CommandInfo {
  std::string_view name;
  std::string_view help;
};

/// Every subcommand the driver dispatches, in help order. `wsim` asserts
/// at startup that its dispatch table matches this registry one-to-one,
/// and cli_usage_test asserts the assembled help names every entry — so
/// adding a command without documenting it, or documenting a command that
/// is never dispatched, fails fast instead of drifting.
const std::vector<CommandInfo>& commands();

/// True when `name` names a registered subcommand.
bool has_command(std::string_view name);

/// The full `wsim help` text: header, every command's help block, and the
/// common-options footer.
std::string usage_text();

/// Validates a --interp / WSIM_INTERP interpreter name. Returns the empty
/// string when `name` is a known engine ("fast", "legacy", "vector");
/// otherwise the exact one-line error the driver prints, which lists the
/// valid names. Shared between the binary and cli_usage_test so the error
/// surface cannot drift from the documented set.
std::string interp_error(std::string_view name);

/// The interpreter name a run validates and selects: the --interp value
/// when non-empty, otherwise WSIM_INTERP (`env`, null when unset). Empty
/// means neither is set and the library default applies.
std::string interp_knob(std::string_view flag, const char* env);

}  // namespace wsim::cli
