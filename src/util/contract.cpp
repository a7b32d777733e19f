#include "util/contract.hpp"

#include <cstdio>

namespace specpf {

std::string config_error(std::string_view field, std::string_view rule,
                         std::string_view value) {
  std::string out(field);
  out.append(": ").append(rule).append(", got ").append(value);
  return out;
}

std::string config_error(std::string_view field, std::string_view rule,
                         double value) {
  char got[32];
  std::snprintf(got, sizeof got, "%g", value);
  return config_error(field, rule, std::string_view(got));
}

std::string config_error(std::string_view field, std::string_view rule,
                         std::uint64_t value) {
  return config_error(field, rule, std::string_view(std::to_string(value)));
}

}  // namespace specpf
