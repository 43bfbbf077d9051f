// Tiny command-line flag parser for the glocksim and glocks-sweep tools.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace glocks::tools {

/// A mistake on the command line (unknown flag, missing or malformed
/// value, out-of-range setting). The tools report it as one line plus
/// their usage text on stderr and exit with status 2, keeping exit
/// status 1 for failures of the simulation itself.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// Throws UsageError(msg) unless `ok`.
inline void usage_check(bool ok, const std::string& msg) {
  if (!ok) throw UsageError(msg);
}

class Args {
 public:
  /// Parses `--flag value` and `--flag` (boolean) style arguments. Every
  /// flag must be listed in `bool_flags` or `value_flags`; anything else
  /// (an unknown flag, a positional argument, a value flag at the end of
  /// the line) throws UsageError.
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& bool_flags,
       const std::vector<std::string>& value_flags) {
    const auto listed = [](const std::vector<std::string>& v,
                           const std::string& a) {
      return std::find(v.begin(), v.end(), a) != v.end();
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw UsageError("unexpected argument: " + arg);
      }
      const std::string name = arg.substr(2);
      if (listed(bool_flags, name)) {
        values_[name] = "1";
      } else if (listed(value_flags, name)) {
        if (i + 1 >= argc) throw UsageError("flag " + arg + " needs a value");
        values_[name] = argv[++i];
      } else {
        throw UsageError("unknown flag: " + arg);
      }
    }
  }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// The names of the flags given, in name order.
  std::vector<std::string> given() const {
    std::vector<std::string> names;
    for (const auto& [name, value] : values_) names.push_back(name);
    return names;
  }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  std::uint64_t get_u64(const std::string& name,
                        std::uint64_t fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return parse_u64(name, it->second);
  }

  double get_double(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(it->second, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != it->second.size()) {
      throw UsageError("--" + name + " expects a number, got '" +
                       it->second + "'");
    }
    return v;
  }

  /// Parses `text` as a non-negative decimal integer given to --`name`
  /// (also used for the items of comma-separated lists).
  static std::uint64_t parse_u64(const std::string& name,
                                 const std::string& text) {
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos) {
      throw UsageError("--" + name + " expects a non-negative integer, got '" +
                       text + "'");
    }
    try {
      return std::stoull(text);
    } catch (const std::out_of_range&) {
      throw UsageError("--" + name + " value '" + text + "' is out of range");
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace glocks::tools
