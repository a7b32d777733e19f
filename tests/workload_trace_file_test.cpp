// Binary .spt trace format tests: round-trip exactness on the microsecond
// grid, quantization bounds off it, cursor/chunk edge cases, shard-filtered
// cursors against the partition_by_user oracle, and loud rejection of
// truncated or bit-flipped files. The replay differential tests lean on the
// canonical-decode property proven here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "reference/trace_partition.hpp"
#include "util/rng.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"
#include "workload/trace_stream.hpp"

namespace specpf {
namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

/// Writes an in-RAM trace through the streaming writer.
std::string write_tmp(const char* name, const Trace& trace,
                      std::size_t chunk_records = kTraceDefaultChunkRecords) {
  const std::string path = tmp_path(name);
  TraceVectorSource source(trace);
  TraceWriteOptions options;
  options.chunk_records = chunk_records;
  write_trace_file(path, source, options);
  return path;
}

/// Random trace on the µs grid (so encode/decode is exact), with duplicate
/// timestamps mixed in.
Trace make_grid_trace(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Trace trace;
  std::uint64_t t_us = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // ~1 in 4 records shares its predecessor's timestamp.
    if (rng.next_u64() % 4 != 0) t_us += rng.next_u64() % 2000000;
    trace.append({trace_micros_to_seconds(t_us),
                  static_cast<std::uint32_t>(rng.next_u64() % 97),
                  rng.next_u64() % 1013});
  }
  return trace;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records()[i].time, b.records()[i].time) << "record " << i;
    EXPECT_EQ(a.records()[i].user, b.records()[i].user) << "record " << i;
    EXPECT_EQ(a.records()[i].item, b.records()[i].item) << "record " << i;
  }
}

TEST(TraceTime, MicrosecondGridRoundTrip) {
  EXPECT_EQ(trace_time_to_micros(0.0), 0u);
  EXPECT_EQ(trace_time_to_micros(1.5), 1500000u);
  EXPECT_DOUBLE_EQ(trace_micros_to_seconds(1500000), 1.5);
  // Grid values survive a full double→µs→double→µs cycle.
  for (std::uint64_t us : {std::uint64_t{0}, std::uint64_t{1},
                           std::uint64_t{999999}, std::uint64_t{123456789012}}) {
    EXPECT_EQ(trace_time_to_micros(trace_micros_to_seconds(us)), us);
  }
  EXPECT_THROW(trace_time_to_micros(-1.0), std::runtime_error);
  EXPECT_THROW(trace_time_to_micros(std::nan("")), std::runtime_error);
}

TEST(TraceFileFormat, GridTraceRoundTripsExactlyAcrossChunkSizes) {
  const Trace trace = make_grid_trace(5000, 7);
  for (std::size_t chunk_records : {std::size_t{1}, std::size_t{3},
                                    std::size_t{1000}, std::size_t{5000},
                                    std::size_t{100000}}) {
    const std::string path =
        write_tmp("roundtrip.spt", trace, chunk_records);
    const TraceFile file(path);
    EXPECT_EQ(file.record_count(), trace.size());
    EXPECT_EQ(file.header().unique_users, trace.unique_users());
    EXPECT_EQ(file.header().unique_items, trace.unique_items());
    EXPECT_DOUBLE_EQ(file.duration(), trace.duration());
    const std::size_t expected_chunks =
        (trace.size() + chunk_records - 1) / chunk_records;
    EXPECT_EQ(file.num_chunks(), expected_chunks)
        << "chunk_records=" << chunk_records;
    SCOPED_TRACE("chunk_records=" + std::to_string(chunk_records));
    expect_traces_equal(file.read_all(), trace);
    std::remove(path.c_str());
  }
}

TEST(TraceFileFormat, OffGridTimesQuantizeWithinHalfMicrosecond) {
  Trace trace;
  Rng rng(11);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.next_double() * 0.01;  // arbitrary doubles, not on the grid
    trace.append({t, static_cast<std::uint32_t>(i % 10), 5});
  }
  const std::string path = write_tmp("quantize.spt", trace);
  const TraceFile file(path);
  const Trace decoded = file.read_all();
  ASSERT_EQ(decoded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(decoded.records()[i].time, trace.records()[i].time, 0.51e-6);
  }
  // Decode is canonical: re-encoding the decoded trace reproduces it
  // bit-for-bit (the property replay bit-identity rests on).
  const std::string path2 = write_tmp("quantize2.spt", decoded);
  const TraceFile file2(path2);
  expect_traces_equal(file2.read_all(), decoded);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(TraceFileFormat, CursorMatchesReadAllAndCountsDecodes) {
  const Trace trace = make_grid_trace(3000, 13);
  const std::string path = write_tmp("cursor.spt", trace, 256);
  const TraceFile file(path);
  TraceCursor cursor(file);
  TraceRecord r;
  std::size_t i = 0;
  while (cursor.next(&r)) {
    ASSERT_LT(i, trace.size());
    EXPECT_DOUBLE_EQ(r.time, trace.records()[i].time);
    EXPECT_EQ(r.user, trace.records()[i].user);
    EXPECT_EQ(r.item, trace.records()[i].item);
    ++i;
  }
  EXPECT_EQ(i, trace.size());
  EXPECT_EQ(cursor.records_decoded(), trace.size());
  // reset() rewinds to the first record.
  cursor.reset();
  ASSERT_TRUE(cursor.next(&r));
  EXPECT_DOUBLE_EQ(r.time, trace.records()[0].time);
  std::remove(path.c_str());
}

TEST(TraceFileFormat, ShardFilteredCursorMatchesPartitionByUser) {
  const Trace trace = make_grid_trace(4000, 17);
  const std::string path = write_tmp("shards.spt", trace, 512);
  const TraceFile file(path);
  constexpr std::uint32_t kShards = 5;
  const auto parts = partition_by_user(trace, kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    TraceCursor cursor(file, s, kShards);
    TraceRecord r;
    std::size_t i = 0;
    while (cursor.next(&r)) {
      ASSERT_LT(i, parts[s].size()) << "shard " << s;
      EXPECT_DOUBLE_EQ(r.time, parts[s].records()[i].time);
      EXPECT_EQ(r.user, parts[s].records()[i].user);
      EXPECT_EQ(r.item, parts[s].records()[i].item);
      ++i;
    }
    EXPECT_EQ(i, parts[s].size()) << "shard " << s;
  }
  std::remove(path.c_str());
}

TEST(TraceFileFormat, EmptyAndSingleRecordFiles) {
  const Trace empty;
  const std::string empty_path = write_tmp("empty.spt", empty);
  const TraceFile empty_file(empty_path);
  EXPECT_EQ(empty_file.record_count(), 0u);
  EXPECT_EQ(empty_file.num_chunks(), 0u);
  EXPECT_DOUBLE_EQ(empty_file.duration(), 0.0);
  TraceCursor empty_cursor(empty_file);
  TraceRecord r;
  EXPECT_FALSE(empty_cursor.next(&r));

  Trace one;
  one.append({2.5, 7, 42});
  const std::string one_path = write_tmp("one.spt", one);
  const TraceFile one_file(one_path);
  EXPECT_EQ(one_file.record_count(), 1u);
  EXPECT_EQ(one_file.num_chunks(), 1u);
  EXPECT_DOUBLE_EQ(one_file.duration(), 0.0);
  expect_traces_equal(one_file.read_all(), one);
  std::remove(empty_path.c_str());
  std::remove(one_path.c_str());
}

TEST(TraceFileWriterTest, RejectsTimeRegressionAndNegativeTime) {
  const std::string path = tmp_path("regress.spt");
  {
    TraceFileWriter writer(path);
    writer.append({1.0, 0, 0});
    EXPECT_THROW(writer.append({0.5, 0, 0}), std::runtime_error);
  }
  {
    TraceFileWriter writer(path);
    EXPECT_THROW(writer.append({-0.5, 0, 0}), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(TraceFileFormat, RejectsCorruptFiles) {
  const Trace trace = make_grid_trace(500, 19);
  const std::string path = write_tmp("corrupt.spt", trace, 128);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto rewrite = [&](const std::vector<char>& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };

  // Truncated mid-payload: the chunk index is no longer where the header
  // says, so open fails.
  std::vector<char> truncated(bytes.begin(),
                              bytes.begin() + static_cast<long>(bytes.size() / 2));
  rewrite(truncated);
  EXPECT_THROW(TraceFile{path}, std::runtime_error);

  // Bad magic.
  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  rewrite(bad_magic);
  EXPECT_THROW(TraceFile{path}, std::runtime_error);

  // Bit-flipped chunk index (record count of chunk 0): totals no longer
  // reconcile with the header.
  std::vector<char> bad_index = bytes;
  const std::size_t index_offset = bytes.size() - 4 * sizeof(TraceChunkInfo);
  bad_index[index_offset + offsetof(TraceChunkInfo, records)] ^= 0x01;
  rewrite(bad_index);
  EXPECT_THROW(TraceFile{path}, std::runtime_error);

  // Bit-flipped payload: the header/index still validate, but the cursor's
  // chunk-boundary cross-check (payload length + end time vs the index)
  // fails during the scan. Byte 0 of the payload is the first record's
  // time delta; 0xFF turns it into a multi-byte varint and shifts the rest
  // of the stream.
  std::vector<char> bad_payload = bytes;
  bad_payload[sizeof(TraceFileHeader)] = static_cast<char>(0xFF);
  rewrite(bad_payload);
  const TraceFile file(path);
  TraceCursor cursor(file);
  TraceRecord r;
  EXPECT_THROW(
      while (cursor.next(&r)) {
      },
      std::runtime_error);

  // Not a trace file at all.
  rewrite(std::vector<char>{'h', 'i'});
  EXPECT_THROW(TraceFile{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceFileFormat, StreamedGeneratorWritesSameFileAsMaterializedTrace) {
  SyntheticTraceConfig cfg;
  cfg.num_users = 200;
  cfg.num_requests = 3000;
  cfg.request_rate = 50.0;
  cfg.graph.num_pages = 80;
  cfg.seed = 23;

  const std::string stream_path = tmp_path("gen_stream.spt");
  SyntheticTraceStream stream(cfg);
  const std::uint64_t streamed = write_trace_file(stream_path, stream);

  const Trace trace = generate_synthetic_trace(cfg);
  const std::string ram_path = write_tmp("gen_ram.spt", trace);

  EXPECT_EQ(streamed, trace.size());
  std::ifstream a(stream_path, std::ios::binary);
  std::ifstream b(ram_path, std::ios::binary);
  const std::vector<char> bytes_a((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
  const std::vector<char> bytes_b((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);  // byte-identical files
  std::remove(stream_path.c_str());
  std::remove(ram_path.c_str());
}

}  // namespace
}  // namespace specpf
