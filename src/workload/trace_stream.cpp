#include "workload/trace_stream.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace specpf {

// Out-of-line vtable anchor so every translation unit shares one vtable.
TraceSource::~TraceSource() = default;

void save_csv(std::ostream& os, TraceSource& source) {
  // max_digits10 keeps the save/load round trip exact; shorter defaults
  // would quantize timestamps to 6 significant digits.
  const auto precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "time,user,item\n";
  source.reset();
  for (TraceRecord r; source.next(&r);) {
    os << r.time << ',' << r.user << ',' << r.item << '\n';
  }
  os.precision(precision);
}

void save_csv_file(const std::string& path, TraceSource& source) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_csv(os, source);
  os.close();
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace specpf
