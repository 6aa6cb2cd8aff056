// Declared command-line flags for the gppm CLI.  A command declares each
// flag once (name, type, the variable holding its default, the accepted
// range), then parses all of its arguments before it does any work.  Flags
// take `--name VALUE` or `--name=VALUE`.  `--help`/`-h` anywhere throws
// HelpRequested; an unknown or repeated flag, a missing value, trailing
// text, a negative count, NaN, inf or a value out of range throws
// UsageError naming the flag and what it accepts.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gppm::cli {

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct HelpRequested {};

inline constexpr std::uint64_t kAnyU64 =
    std::numeric_limits<std::uint64_t>::max();

/// `text` as a decimal integer in [lo, hi]: digits only, no sign, no
/// trailing text, no overflow.
inline std::optional<std::uint64_t> to_integer(const std::string& text,
                                               std::uint64_t lo,
                                               std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return {};
  return v;
}

inline std::string integer_range(std::uint64_t lo, std::uint64_t hi) {
  return "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]";
}

class Flags {
 public:
  /// Takes a value's text into its variable, or refuses it.
  using Setter = std::function<bool(const std::string&)>;

  /// `args` follow the command name; `on_parsed` runs after a clean parse.
  explicit Flags(std::vector<std::string> args,
                 std::function<void()> on_parsed = {})
      : args_(std::move(args)), on_parsed_(std::move(on_parsed)) {}

  /// A flag with a value; `expects` says what `set` accepts ("" = a switch).
  Flags& value(const std::string& name, std::string expects, Setter set) {
    flags_.push_back({name, std::move(expects), std::move(set)});
    return *this;
  }
  Flags& toggle(const std::string& name, bool& out) {
    return value(name, "", [&out](const std::string&) { return out = true; });
  }
  Flags& text(const std::string& name, std::string& out) {
    return value(name, "a value", [&out](const std::string& s) {
      out = s;
      return true;
    });
  }
  template <class T>
  Flags& count(const std::string& name, T& out, std::uint64_t lo,
               std::uint64_t hi) {
    return value(name, integer_range(lo, hi), [&out, lo, hi](const auto& s) {
      const std::optional<std::uint64_t> v = to_integer(s, lo, hi);
      if (v) out = static_cast<T>(*v);
      return v.has_value();
    });
  }
  /// A finite real in [lo, hi], or 0 as well with `zero_is_off`.
  Flags& number(const std::string& name, double& out, double lo, double hi,
                bool zero_is_off = false) {
    const std::string range =
        "a number in [" + fixed(lo) + ", " + fixed(hi) + "]";
    return value(name, zero_is_off ? "0 or " + range : range,
                 [&out, lo, hi, zero_is_off](const std::string& s) {
                   double v = 0.0;
                   const char* end = s.data() + s.size();
                   const auto [ptr, ec] = std::from_chars(s.data(), end, v);
                   const bool ok = ec == std::errc() && ptr == end &&
                                   std::isfinite(v) &&
                                   ((v >= lo && v <= hi) ||
                                    (zero_is_off && v == 0.0));
                   if (ok) out = v;
                   return ok;
                 });
  }

  /// Parse every argument and return the positional ones: at least `min`,
  /// at most max(min, max).
  std::vector<std::string> parse(std::size_t min = 0, std::size_t max = 0) {
    for (const std::string& arg : args_) {
      if (arg == "--help" || arg == "-h") throw HelpRequested{};
    }
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& arg = args_[i];
      if (!is_flag(arg)) {
        positional.push_back(arg);
        continue;
      }
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const auto flag = std::find_if(
          flags_.begin(), flags_.end(),
          [&](const Flag& f) { return f.name == name; });
      if (flag == flags_.end()) throw UsageError("unknown flag " + name);
      if (flag->seen) throw UsageError(name + " given twice");
      flag->seen = true;
      if (flag->expects.empty()) {  // a switch
        if (eq != std::string::npos) {
          throw UsageError(name + " takes no value");
        }
        flag->set("");
        continue;
      }
      std::string value;
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < args_.size() && !is_flag(args_[i + 1])) {
        value = args_[++i];
      }
      if (value.empty() || !flag->set(value)) {
        throw UsageError(name + " expects " + flag->expects + ", got " +
                         (value.empty() ? "no value" : "'" + value + "'"));
      }
    }
    max = std::max(min, max);
    if (positional.size() < min) throw UsageError("missing argument");
    if (positional.size() > max) {
      throw UsageError("unexpected argument '" + positional[max] + "'");
    }
    if (on_parsed_) on_parsed_();
    return positional;
  }

  bool given(const std::string& name) const {
    return std::any_of(flags_.begin(), flags_.end(), [&](const Flag& f) {
      return f.seen && f.name == name;
    });
  }

 private:
  struct Flag {
    std::string name;
    std::string expects;
    Setter set;
    bool seen = false;
  };

  static bool is_flag(const std::string& arg) {
    return arg.rfind("--", 0) == 0;
  }

  static std::string fixed(double v) {
    char buf[64];
    const auto end = std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::fixed).ptr;
    return {buf, end};
  }

  std::vector<std::string> args_;
  std::function<void()> on_parsed_;
  std::vector<Flag> flags_;
};

}  // namespace gppm::cli
