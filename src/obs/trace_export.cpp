#include "obs/trace_export.hpp"

#include <cstdio>
#include <vector>

namespace specpf {

namespace {

constexpr double kMicrosPerSimSecond = 1e6;

/// Formats a double compactly for JSON/CSV (%.9g never emits locale
/// separators and round-trips the values we record).
void print_double(std::FILE* f, double v) { std::fprintf(f, "%.9g", v); }

void print_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      std::fputc(c, f);
    }  // control characters never occur in registered names; drop them
  }
  std::fputc('"', f);
}

class EventList {
 public:
  explicit EventList(std::FILE* f) : f_(f) {}

  /// Starts the next event object, handling the comma discipline.
  void begin() {
    if (!first_) std::fputs(",\n", f_);
    first_ = false;
    std::fputc('{', f_);
  }

 private:
  std::FILE* f_;
  bool first_ = true;
};

void write_metadata(std::FILE* f, EventList& events, std::uint32_t pid,
                    const char* what, std::uint32_t tid, const char* name) {
  events.begin();
  std::fprintf(f, "\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u", what, pid);
  if (tid != 0) std::fprintf(f, ",\"tid\":%u", tid);
  std::fputs(",\"args\":{\"name\":", f);
  print_json_string(f, name);
  std::fputs("}}", f);
}

struct ColumnIndex {
  std::vector<std::string> names;
  std::vector<std::string> units;

  std::size_t intern(const std::string& name, const std::string& unit) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        // First non-empty unit wins (shards register identical units; a
        // unitless registrant never erases an annotated one).
        if (units[i].empty()) units[i] = unit;
        return i;
      }
    }
    names.push_back(name);
    units.push_back(unit);
    return names.size() - 1;
  }
  std::size_t find(const std::string& name) const {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    return names.size();
  }
};

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const TelemetryPlane* const* planes, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  EventList events(f);
  for (std::size_t s = 0; s < n; ++s) {
    const TelemetryPlane& plane = *planes[s];
    const std::uint32_t pid = plane.shard();
    write_metadata(f, events, pid, "process_name", 0,
                   ("shard " + std::to_string(pid)).c_str());
    write_metadata(f, events, pid, "thread_name", 1, "link");
    write_metadata(f, events, pid, "thread_name", 2, "waits");

    // Spans: complete ("X") events, one per retained span, in completion
    // order.
    plane.spans().for_each([&](const SpanTracer::SpanRecord& rec) {
      const auto kind = static_cast<SpanTracer::SpanKind>(rec.kind);
      events.begin();
      std::fprintf(f, "\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u",
                   SpanTracer::kind_name(kind), pid,
                   SpanTracer::kind_track(kind));
      std::fputs(",\"ts\":", f);
      print_double(f, rec.t_start * kMicrosPerSimSecond);
      std::fputs(",\"dur\":", f);
      print_double(f, (rec.t_end - rec.t_start) * kMicrosPerSimSecond);
      std::fprintf(f, ",\"args\":{\"user\":%u,\"item\":%llu}}", rec.user,
                   static_cast<unsigned long long>(rec.item));
    });

    // Time series: counter ("C") events — one track per gauge per shard.
    const TelemetryRegistry& reg = plane.registry();
    const TimeSeriesRecorder& series = plane.series();
    for (std::size_t i = 0; i < series.size(); ++i) {
      for (std::size_t g = 0; g < series.num_gauges(); ++g) {
        events.begin();
        std::fputs("\"name\":", f);
        print_json_string(f, reg.gauge_name(g));
        std::fprintf(f, ",\"ph\":\"C\",\"pid\":%u,\"ts\":", pid);
        print_double(f, series.time(i) * kMicrosPerSimSecond);
        std::fputs(",\"args\":{\"value\":", f);
        print_double(f, series.value(i, g));
        std::fputs("}}", f);
      }
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_chrome_trace(const std::string& path, const TelemetryPlane& plane) {
  const TelemetryPlane* one[] = {&plane};
  return write_chrome_trace(path, one, 1);
}

bool write_chrome_trace(const std::string& path, const TelemetryFleet& fleet) {
  std::vector<const TelemetryPlane*> planes;
  planes.reserve(fleet.size());
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    planes.push_back(&fleet.shard(s));
  }
  return write_chrome_trace(path, planes.data(), planes.size());
}

bool write_timeseries_csv(const std::string& path,
                          const TelemetryPlane* const* planes, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  // Union of gauge names, first-seen order across canonical shard order.
  ColumnIndex columns;
  for (std::size_t s = 0; s < n; ++s) {
    const TelemetryRegistry& reg = planes[s]->registry();
    for (std::size_t g = 0; g < reg.gauge_count(); ++g) {
      columns.intern(reg.gauge_name(g), reg.gauge_unit(g));
    }
  }

  std::fputs("shard,time", f);
  for (const std::string& name : columns.names) {
    std::fprintf(f, ",%s", name.c_str());
  }
  std::fputc('\n', f);
  // Units metadata row ("#units" in the shard column, "s" for sim time,
  // then each gauge column's registered unit) — consumers no longer guess
  // units from names; tools/check_trace validates the row.
  std::fputs("#units,s", f);
  for (const std::string& unit : columns.units) {
    std::fprintf(f, ",%s", unit.c_str());
  }
  std::fputc('\n', f);

  for (std::size_t s = 0; s < n; ++s) {
    const TelemetryPlane& plane = *planes[s];
    const TelemetryRegistry& reg = plane.registry();
    const TimeSeriesRecorder& series = plane.series();
    // This shard's gauge g lands in global column shard_cols[g].
    std::vector<std::size_t> shard_cols(reg.gauge_count());
    for (std::size_t g = 0; g < reg.gauge_count(); ++g) {
      shard_cols[g] = columns.find(reg.gauge_name(g));
    }
    std::vector<double> row(columns.names.size(), 0.0);
    std::vector<bool> present(columns.names.size(), false);
    for (std::size_t i = 0; i < series.size(); ++i) {
      for (std::size_t c = 0; c < row.size(); ++c) present[c] = false;
      for (std::size_t g = 0; g < reg.gauge_count(); ++g) {
        row[shard_cols[g]] = series.value(i, g);
        present[shard_cols[g]] = true;
      }
      std::fprintf(f, "%u,", plane.shard());
      print_double(f, series.time(i));
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::fputc(',', f);
        if (present[c]) print_double(f, row[c]);
      }
      std::fputc('\n', f);
    }
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_timeseries_csv(const std::string& path,
                          const TelemetryPlane& plane) {
  const TelemetryPlane* one[] = {&plane};
  return write_timeseries_csv(path, one, 1);
}

bool write_timeseries_csv(const std::string& path,
                          const TelemetryFleet& fleet) {
  std::vector<const TelemetryPlane*> planes;
  planes.reserve(fleet.size());
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    planes.push_back(&fleet.shard(s));
  }
  return write_timeseries_csv(path, planes.data(), planes.size());
}

}  // namespace specpf
