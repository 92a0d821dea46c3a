#pragma once

/// Minimal flag parsing shared by the ecohmem-* command-line tools.
/// Flags are `--name value` or `--name` (boolean); positionals are kept
/// in order. Each tool declares the flags it accepts; an undeclared
/// `--name` is reported by `unknown()` so the tool can exit 2 instead of
/// silently ignoring a misspelled or removed flag.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/posix.hpp"
#include "ecohmem/common/strings.hpp"

namespace ecohmem::cli {

class Args {
 public:
  /// `value_flags` take a value, `bool_flags` do not (names without the
  /// leading dashes).
  Args(int argc, char** argv, const std::vector<std::string>& value_flags,
       const std::vector<std::string>& bool_flags) {
    const auto declared = [](const std::vector<std::string>& names, const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string name = arg.substr(2);
        const bool is_bool = declared(bool_flags, name);
        if (!is_bool && !declared(value_flags, name)) {
          if (unknown_.empty()) unknown_ = arg;
          continue;
        }
        // A value flag never swallows the next `--flag` token: in
        // `--out --stats` the user forgot the value, and silently
        // using "--stats" as it would both corrupt the value and drop
        // the flag. Single-dash values (negative numbers) still work.
        const bool next_is_flag =
            i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) == 0;
        if (is_bool || i + 1 >= argc || next_is_flag) {
          flags_[name] = "true";
        } else {
          flags_[name] = argv[++i];
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  /// The first undeclared flag on the command line (as typed, dashes
  /// included), or empty when every flag was declared.
  [[nodiscard]] const std::string& unknown() const { return unknown_; }

  [[nodiscard]] std::string get(const std::string& name, std::string def = {}) const {
    const auto it = flags_.find(name);
    return it != flags_.end() ? it->second : def;
  }

  [[nodiscard]] bool has(const std::string& name) const { return flags_.contains(name); }

  /// Strictly-parsed number flag: the whole value must parse, otherwise
  /// an error naming the flag is returned (a mistyped `--store-coef abc`
  /// must stop the tool, not run with the default). Absent flags return
  /// `def`.
  [[nodiscard]] Expected<double> get_double(const std::string& name, double def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const auto value = strings::parse_double(it->second);
    if (!value) return unexpected("--" + name + " expects a number, got '" + it->second + "'");
    return *value;
  }

  /// Strictly-parsed byte-size flag (`12GB`, `512MiB`, `4096`), with the
  /// same no-fallback rule as `get_double`.
  [[nodiscard]] Expected<Bytes> get_bytes(const std::string& name, Bytes def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const auto value = strings::parse_bytes(it->second);
    if (!value) return unexpected("--" + name + " expects a byte size: " + value.error());
    return *value;
  }

  /// Strictly-validated integer flag: the whole value must parse as a
  /// base-10 integer and land in [lo, hi], otherwise an error naming the
  /// flag is returned (no silent fallback to the default — a mistyped
  /// `--block-events x` or out-of-range `--block-events 0` should stop
  /// the tool, not be ignored). Absent flags return `def` unvalidated.
  [[nodiscard]] Expected<long long> get_int_in_range(const std::string& name, long long def,
                                                     long long lo, long long hi) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const std::string& text = it->second;
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
      return unexpected("--" + name + " expects an integer, got '" + text + "'");
    }
    if (value < lo || value > hi) {
      return unexpected("--" + name + " must be in [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "], got " + text);
    }
    return value;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::string unknown_;
};

inline int fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Usage-error diagnostic: same `error:` shape as `fail`, but exit
/// code 2 — bad flags are distinguishable from runtime failures
/// (docs/cli.md §conventions).
inline int fail_usage(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

/// The usage error for an undeclared flag (see `Args::unknown`).
inline int fail_unknown_flag(const Args& args) {
  return fail_usage("unknown flag " + args.unknown());
}

/// Validates a unix-domain socket path flag value: present, non-empty
/// and within the platform `sockaddr_un` limit. `flag` names the flag
/// in the diagnostic (without dashes).
[[nodiscard]] inline Status validate_socket_path(const std::string& flag,
                                                 const std::string& path) {
  if (path.empty() || path == "true") {
    return unexpected("--" + flag + " expects a socket path");
  }
  if (path.size() > common::posix::max_socket_path()) {
    return unexpected("--" + flag + " path exceeds " +
                      std::to_string(common::posix::max_socket_path()) + " bytes: " + path);
  }
  return {};
}

/// Load-failure diagnostic: every tool reports a file it could not
/// load the same way — nonzero exit, the path, and the loader's message
/// (which carries the byte offset for codec-level trace errors). Tools
/// must route trace/report/CSV load errors through this so no path or
/// offset is ever dropped.
inline int fail_load(const std::string& path, const std::string& message) {
  // Loaders sometimes embed the path already; avoid printing it twice.
  if (message.find(path) != std::string::npos) return fail(message);
  return fail(path + ": " + message);
}

}  // namespace ecohmem::cli
