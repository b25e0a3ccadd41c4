// Minimal command-line option parser for the examples and bench harnesses.
//
// Supports `--name value` and `--name=value` forms plus boolean flags.
// Unknown options are collected so callers can reject or ignore them.
// Numeric reads take the whole token or throw: `--ranks 3x` is an error,
// not 3.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace plv {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    parse();
  }

  explicit Cli(std::vector<std::string> args) : args_(std::move(args)) { parse(); }

  [[nodiscard]] bool has(std::string_view name) const noexcept {
    for (const auto& [key, value] : options_) {
      if (key == name) return true;
    }
    return false;
  }

  [[nodiscard]] std::optional<std::string> get(std::string_view name) const {
    for (const auto& [key, value] : options_) {
      if (key == name) return value;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::string get_string(std::string_view name, std::string_view dflt) const {
    auto v = get(name);
    return v ? *v : std::string(dflt);
  }

  /// Integer option read straight into the caller's type T, or `dflt`
  /// when absent. Trailing junk, a sign T cannot hold or a value outside
  /// T's range throws std::invalid_argument naming the option and token.
  template <typename T = std::int64_t>
  [[nodiscard]] T get_int(std::string_view name, std::type_identity_t<T> dflt) const {
    static_assert(std::is_integral_v<T>);
    return get_number<T>(name, dflt);
  }

  [[nodiscard]] double get_double(std::string_view name, double dflt) const {
    return get_number<double>(name, dflt);
  }

  [[nodiscard]] bool get_bool(std::string_view name, bool dflt = false) const {
    auto v = get(name);
    if (!v) return dflt;
    return *v != "0" && *v != "false" && *v != "no";
  }

  /// Non-option positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  template <typename T>
  [[nodiscard]] T get_number(std::string_view name, T dflt) const {
    const auto v = get(name);
    if (!v || v->empty()) return dflt;
    T value{};
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, value);
    if (ec == std::errc{} && ptr == end) return value;
    const char* what = ec == std::errc::result_out_of_range ? "is out of range"
                       : std::is_floating_point_v<T>      ? "is not a number"
                       : std::is_signed_v<T>              ? "is not an integer"
                                                          : "is not a non-negative integer";
    throw std::invalid_argument("--" + std::string(name) + " '" + *v + "' " + what);
  }

  void parse() {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      std::string_view arg = args_[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.emplace_back(arg);
        continue;
      }
      arg.remove_prefix(2);
      if (auto eq = arg.find('='); eq != std::string_view::npos) {
        options_.emplace_back(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
      } else if (i + 1 < args_.size() && args_[i + 1].rfind("--", 0) != 0) {
        options_.emplace_back(std::string(arg), args_[i + 1]);
        ++i;
      } else {
        options_.emplace_back(std::string(arg), "true");
      }
    }
  }

  std::vector<std::string> args_;
  std::vector<std::pair<std::string, std::string>> options_;
  std::vector<std::string> positional_;
};

}  // namespace plv
