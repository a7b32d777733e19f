#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/flat_hash.hpp"
#include "util/math.hpp"

namespace specpf {

Trace::Trace(std::vector<TraceRecord> records) : records_(std::move(records)) {}

void Trace::append(TraceRecord record) { records_.push_back(record); }

bool Trace::is_time_ordered() const {
  return std::is_sorted(records_.begin(), records_.end(),
                        [](const TraceRecord& a, const TraceRecord& b) {
                          return a.time < b.time;
                        });
}

std::size_t Trace::unique_items() const {
  FlatHashSet items;
  for (const auto& r : records_) items.insert(r.item);
  return items.size();
}

std::size_t Trace::unique_users() const {
  FlatHashSet users;
  for (const auto& r : records_) users.insert(r.user);
  return users.size();
}

double Trace::duration() const {
  if (records_.size() < 2) return 0.0;
  auto [lo, hi] = std::minmax_element(
      records_.begin(), records_.end(),
      [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });
  return hi->time - lo->time;
}

double Trace::mean_request_rate() const {
  return safe_div(static_cast<double>(records_.size()), duration(), 0.0);
}

namespace {

[[noreturn]] void bad_csv(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("trace CSV: " + why + " at line " +
                           std::to_string(line_no));
}

/// istream happily parses "-1" into an unsigned field (modular wrap), so
/// sign-check each id column explicitly.
void reject_negative(std::istringstream& ls, std::size_t line_no,
                     const char* column) {
  ls >> std::ws;
  if (ls.peek() == '-') {
    bad_csv(line_no, std::string("negative ") + column);
  }
}

}  // namespace

Trace Trace::load_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) return Trace{};
  if (line != "time,user,item") {
    throw std::runtime_error("trace CSV: bad header: " + line);
  }
  std::vector<TraceRecord> records;
  std::size_t line_no = 1;
  double prev_time = 0.0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    TraceRecord r;
    char c1 = 0, c2 = 0;
    if (!(ls >> r.time >> c1) || c1 != ',') {
      bad_csv(line_no, "bad record");
    }
    reject_negative(ls, line_no, "user id");
    if (!(ls >> r.user >> c2) || c2 != ',') {
      bad_csv(line_no, "bad record");
    }
    reject_negative(ls, line_no, "item id");
    if (!(ls >> r.item)) {
      bad_csv(line_no, "bad record");
    }
    char extra = 0;
    if (ls >> extra) {
      bad_csv(line_no, "trailing garbage after item column");
    }
    if (!std::isfinite(r.time)) {
      bad_csv(line_no, "non-finite time");
    }
    if (!records.empty() && r.time < prev_time) {
      bad_csv(line_no, "time goes backwards (" + std::to_string(r.time) +
                           " after " + std::to_string(prev_time) + ")");
    }
    prev_time = r.time;
    records.push_back(r);
  }
  return Trace{std::move(records)};
}

Trace Trace::load_csv_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_csv(is);
}

}  // namespace specpf
