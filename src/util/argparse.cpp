#include "util/argparse.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

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

void ArgParser::reject_value(const std::string& name, const char* type,
                             const std::string& value) const {
  std::fprintf(stderr, "--%s: expected %s, got '%s'\n%s", name.c_str(), type,
               value.c_str(), usage().c_str());
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
