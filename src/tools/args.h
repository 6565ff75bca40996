// The command-line tools' one flag parser: `--key value` and boolean
// `--key`.  Numbers are strict: a value with trailing garbage (`5s`), a
// non-number, `inf` or `nan`, or a negative count is a usage error,
// reported through the tool's usage function (which exits 2) before any
// work starts.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace sdpm::tools {

class Args {
 public:
  /// Prints `message` and the tool's usage text, then exits 2.
  using Usage = void (*)(const std::string& message);

  /// Parse argv[first..argc).
  Args(int argc, char** argv, int first, Usage usage) : usage_(usage) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) fail("unexpected argument '" + key + "'");
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::size_t pos = 0;
    std::int64_t value = 0;
    try {
      value = std::stoll(it->second, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != it->second.size()) {
      fail("--" + key + " expects an integer, got '" + it->second + "'");
    }
    return value;
  }

  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::size_t pos = 0;
    double value = 0.0;
    try {
      value = std::stod(it->second, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != it->second.size()) {
      fail("--" + key + " expects a number, got '" + it->second + "'");
    }
    // std::stod also reads "inf" and "nan", which no flag means.
    if (!std::isfinite(value)) {
      fail("--" + key + " expects a finite number, got '" + it->second + "'");
    }
    return value;
  }

  /// A count such as a worker number: an integer in [0, UINT_MAX], so a
  /// negative value is rejected instead of wrapping to billions.
  unsigned get_count(const std::string& key, unsigned fallback) const {
    const std::int64_t value = get_int(key, fallback);
    if (value < 0 ||
        value > std::int64_t{std::numeric_limits<unsigned>::max()}) {
      fail("--" + key + " expects a count >= 0, got '" + get(key) + "'");
    }
    return static_cast<unsigned>(value);
  }

  /// Reject every flag that is not in `known`.
  void allow_only(std::initializer_list<std::string_view> known) const {
    for (const auto& [key, value] : values_) {
      bool listed = false;
      for (const std::string_view flag : known) listed = listed || flag == key;
      if (!listed) fail("unknown flag '--" + key + "'");
    }
  }

  /// All parsed flags (for per-command validation).
  const std::map<std::string, std::string>& values() const { return values_; }

  [[noreturn]] void fail(const std::string& message) const {
    usage_(message);
    std::abort();  // a Usage function exits; never reached
  }

 private:
  std::map<std::string, std::string> values_;
  Usage usage_;
};

}  // namespace sdpm::tools
