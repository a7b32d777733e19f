#include "util/argparse.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "util/contract.hpp"
#include "util/parse.hpp"

namespace specpf {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_flag(const std::string& name,
                               const std::string& default_value,
                               const std::string& help) {
  SPECPF_EXPECTS(!name.empty());
  SPECPF_EXPECTS(flags_.find(name) == flags_.end());
  flags_[name] = Flag{default_value, help, default_value, false};
  order_.push_back(name);
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   usage().c_str());
      return false;
    }
    if (!have_value) {
      // Boolean-style defaults can be toggled without a value; otherwise the
      // next argv entry is consumed as the value.
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
        return false;
      }
    }
    it->second.value = value;
    it->second.set = true;
  }
  return true;
}

std::string ArgParser::get_string(const std::string& name) const {
  auto it = flags_.find(name);
  SPECPF_EXPECTS(it != flags_.end());
  return it->second.value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get_string(name);
  double out = 0.0;
  if (!parse_exact(v, &out)) reject_value(name, "number", v);
  return out;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string v = get_string(name);
  std::int64_t out = 0;
  if (!parse_exact(v, &out)) reject_value(name, "integer", v);
  return out;
}

std::uint64_t ArgParser::get_uint(const std::string& name) const {
  const std::string v = get_string(name);
  std::uint64_t out = 0;
  if (!parse_exact(v, &out)) reject_value(name, "non-negative integer", v);
  return out;
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  reject_value(name, "boolean", v);
}

double ArgParser::get_positive_double(const std::string& name) const {
  const std::string v = get_string(name);
  double out = 0.0;
  if (!parse_exact(v, &out) || !std::isfinite(out) || out <= 0.0) {
    reject_value(name, "positive finite number", v);
  }
  return out;
}

std::uint64_t ArgParser::get_positive_uint(const std::string& name) const {
  const std::string v = get_string(name);
  std::uint64_t out = 0;
  if (!parse_exact(v, &out) || out == 0) {
    reject_value(name, "positive integer", v);
  }
  return out;
}

template <typename T, typename Accept>
std::vector<T> ArgParser::parse_list(const std::string& name, const char* type,
                                     Accept accept) const {
  const std::string v = get_string(name);
  std::vector<T> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = v.find(',', start);
    const std::string tok = v.substr(start, comma - start);
    T value{};
    if (!parse_exact(tok, &value) || !accept(value)) {
      reject_value(name, type, tok);
    }
    out.push_back(value);
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

template <typename T>
std::vector<T> ArgParser::get_list(const std::string& name) const {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, std::uint64_t>);
  if constexpr (std::is_same_v<T, double>) {
    return parse_list<double>(name, "finite number",
                              [](double x) { return std::isfinite(x); });
  } else {
    return parse_list<T>(name, "non-negative integer", [](T) { return true; });
  }
}

std::vector<double> ArgParser::get_positive_list(
    const std::string& name) const {
  return parse_list<double>(name, "positive finite number", [](double x) {
    return std::isfinite(x) && x > 0.0;
  });
}

template std::vector<double> ArgParser::get_list<double>(
    const std::string& name) const;
template std::vector<std::uint64_t> ArgParser::get_list<std::uint64_t>(
    const std::string& name) const;

void ArgParser::reject_value(const std::string& name, const std::string& type,
                             const std::string& value) const {
  std::fprintf(stderr, "--%s: expected %s, got '%s'\n%s", name.c_str(),
               type.c_str(), value.c_str(), usage().c_str());
  std::exit(2);
}

void ArgParser::require_writable(const std::string& name,
                                 const std::string& path) const {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  const bool writable = std::ofstream(path, std::ios::app).good();
  if (writable && !existed) std::filesystem::remove(path, ec);
  if (!writable) reject_value(name, "writable path", path);
}

void ArgParser::require_valid(const std::string& error) const {
  if (error.empty()) return;
  std::fprintf(stderr, "%s\n%s", error.c_str(), usage().c_str());
  std::exit(2);
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nflags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

}  // namespace specpf
