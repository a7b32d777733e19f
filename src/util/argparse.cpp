#include "util/argparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/contract.hpp"
#include "util/parse.hpp"

namespace specpf {

namespace {

using Base = FlagKind::Base;

bool parse_bool(const std::string& v, bool* out) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    *out = true;
  } else if (v == "false" || v == "0" || v == "no" || v == "off") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

bool is_path(Base base) {
  return base == Base::kInputPath || base == Base::kOutputPath;
}

/// Opens `path` for appending; a file the probe created is removed again.
bool writable(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  const bool ok = std::ofstream(path, std::ios::app).good();
  if (ok && !existed) std::filesystem::remove(path, ec);
  return ok;
}

/// Whether one token is a value of `kind`'s base.
bool token_ok(const FlagKind& kind, const std::string& v) {
  bool b = false;
  std::uint64_t u = 0;
  double d = 0.0;
  switch (kind.base) {
    case Base::kBool:
      return parse_bool(v, &b);
    case Base::kUint:
      return parse_exact(v, &u);
    case Base::kPositiveUint:
      return parse_exact(v, &u) && u > 0;
    case Base::kNumber:
      return parse_exact(v, &d) && std::isfinite(d);
    case Base::kPositiveNumber:
      return parse_exact(v, &d) && std::isfinite(d) && d > 0.0;
    case Base::kName:
      return kind.known(v);
    case Base::kInputPath:
      return v.empty() || std::ifstream(v).good();
    case Base::kOutputPath:
      return v.empty() || writable(v);
  }
  return false;
}

/// Splits on every comma, keeping empty tokens.
std::vector<std::string> split(const std::string& v) {
  std::vector<std::string> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = v.find(',', start);
    out.push_back(v.substr(start, comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

/// The first token of `value` that is not of `kind`, if any.
std::optional<std::string> bad_token(const FlagKind& kind,
                                     const std::string& value) {
  if (!kind.list) {
    if (token_ok(kind, value)) return std::nullopt;
    return value;
  }
  for (const std::string& tok : split(value)) {
    if (tok.empty() && kind.base == Base::kName) continue;
    if (!token_ok(kind, tok)) return tok;
  }
  return std::nullopt;
}

}  // namespace

namespace flag {

FlagKind name(std::string label,
              std::function<bool(const std::string&)> known) {
  SPECPF_EXPECTS(known);
  return {Base::kName, std::move(label), false, std::move(known)};
}

FlagKind list(FlagKind element) {
  SPECPF_EXPECTS(element.base != Base::kBool && !is_path(element.base));
  element.list = true;
  return element;
}

}  // namespace flag

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_flag(const std::string& name, FlagKind kind,
                               const std::string& default_value,
                               const std::string& help) {
  SPECPF_EXPECTS(!name.empty());
  SPECPF_EXPECTS(flags_.find(name) == flags_.end());
  SPECPF_EXPECTS(is_path(kind.base) || !bad_token(kind, default_value));
  flags_[name] = Flag{std::move(kind), default_value, help, default_value};
  order_.push_back(name);
  return *this;
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (!arg.starts_with("--")) fail({"unexpected argument '", arg, "'"});
    const std::size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const auto it = flags_.find(name);
    if (it == flags_.end()) fail({"--", name, ": unknown flag"});
    Flag& flag = it->second;
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag.kind.base == Base::kBool) {
      // A bare bool flag is true; a following word that is no flag is its
      // value, so `--smoke false` reads false.
      const bool word =
          i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--");
      value = word ? argv[++i] : "true";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fail({"--", name, ": missing value"});
    }
    if (const auto bad = bad_token(flag.kind, value)) {
      reject_value(name, flag.kind.label, *bad);
    }
    flag.value = std::move(value);
  }
}

const ArgParser::Flag& ArgParser::typed(
    const std::string& name, bool list,
    std::initializer_list<FlagKind::Base> bases) const {
  const auto it = flags_.find(name);
  SPECPF_EXPECTS(it != flags_.end());
  SPECPF_EXPECTS(it->second.kind.list == list);
  SPECPF_EXPECTS(std::find(bases.begin(), bases.end(),
                           it->second.kind.base) != bases.end());
  return it->second;
}

std::string ArgParser::get_string(const std::string& name) const {
  const auto it = flags_.find(name);
  SPECPF_EXPECTS(it != flags_.end());
  return it->second.value;
}

double ArgParser::get_double(const std::string& name) const {
  double out = 0.0;
  parse_exact(
      typed(name, false, {Base::kNumber, Base::kPositiveNumber}).value, &out);
  return out;
}

std::uint64_t ArgParser::get_uint(const std::string& name) const {
  std::uint64_t out = 0;
  parse_exact(typed(name, false, {Base::kUint, Base::kPositiveUint}).value,
              &out);
  return out;
}

bool ArgParser::get_bool(const std::string& name) const {
  bool out = false;
  parse_bool(typed(name, false, {Base::kBool}).value, &out);
  return out;
}

template <typename T>
std::vector<T> ArgParser::get_list(const std::string& name) const {
  std::vector<T> out;
  if constexpr (std::is_same_v<T, std::string>) {
    for (std::string& tok : split(typed(name, true, {Base::kName}).value)) {
      if (!tok.empty()) out.push_back(std::move(tok));
    }
  } else {
    static_assert(std::is_same_v<T, double> ||
                  std::is_same_v<T, std::uint64_t>);
    const Flag& flag =
        std::is_same_v<T, double>
            ? typed(name, true, {Base::kNumber, Base::kPositiveNumber})
            : typed(name, true, {Base::kUint, Base::kPositiveUint});
    for (const std::string& tok : split(flag.value)) {
      parse_exact(tok, &out.emplace_back());
    }
  }
  return out;
}

template std::vector<double> ArgParser::get_list<double>(
    const std::string& name) const;
template std::vector<std::uint64_t> ArgParser::get_list<std::uint64_t>(
    const std::string& name) const;
template std::vector<std::string> ArgParser::get_list<std::string>(
    const std::string& name) const;

void ArgParser::reject_value(const std::string& name, const std::string& type,
                             const std::string& value) const {
  fail({"--", name, ": expected ", type, ", got '", value, "'"});
}

void ArgParser::require_valid(const std::string& error) const {
  if (!error.empty()) fail({error});
}

void ArgParser::require_valid(const std::string& error,
                              FieldFlags flags) const {
  if (error.empty()) return;
  const std::string_view field =
      std::string_view(error).substr(0, error.find(':'));
  for (const auto& [name, flag] : flags) {
    if (name == field) fail({"--", flag, ": ", error});
  }
  fail({error});
}

void ArgParser::fail(std::initializer_list<std::string_view> error) const {
  for (const std::string_view part : error) {
    std::fwrite(part.data(), 1, part.size(), stderr);
  }
  std::fprintf(stderr, "\n%s", usage().c_str());
  std::exit(2);
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nflags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " <" << flag.kind.label
       << (flag.kind.list ? ",..." : "") << "> (default: "
       << (flag.default_value.empty() ? "\"\"" : flag.default_value)
       << ")\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace specpf
