// Thread pool, table renderer, and argparse tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/argparse.hpp"
#include "util/chunked_slab.hpp"
#include "util/contract.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace specpf {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, CoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(100);
  parallel_for(pool, 100, [&](std::size_t i) { touched[i] = 1; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, RethrowsFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

TEST(Table, MarkdownHasHeaderSeparatorAndRows) {
  Table t({"a", "b"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::string("y"), std::int64_t{7}});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a"), std::string::npos);
  EXPECT_NE(md.find("|---"), std::string::npos);
  EXPECT_NE(md.find("1.5000"), std::string::npos);
  EXPECT_NE(md.find("| 7"), std::string::npos);
}

TEST(Table, PrecisionControlsDoubles) {
  Table t({"v"});
  t.set_precision(2).add_row({3.14159});
  EXPECT_NE(t.to_markdown().find("3.14"), std::string::npos);
  EXPECT_EQ(t.to_markdown().find("3.1416"), std::string::npos);
}

TEST(Table, CsvEscapesSeparators) {
  Table t({"name"});
  t.add_row({std::string("a,b")});
  t.add_row({std::string("he said \"hi\"")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only one")}), ContractViolation);
}

TEST(Table, RowAccessors) {
  Table t({"a"});
  t.add_row({1.0}).add_row({2.0});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 1u);
}

TEST(ArgParser, ParsesEqualsAndSpaceForms) {
  ArgParser p("prog", "test");
  p.add_flag("alpha", "1.0", "");
  p.add_flag("name", "x", "");
  const char* argv[] = {"prog", "--alpha=2.5", "--name", "web"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_DOUBLE_EQ(p.get_double("alpha"), 2.5);
  EXPECT_EQ(p.get_string("name"), "web");
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p("prog", "test");
  p.add_flag("count", "7", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("count"), 7);
}

TEST(ArgParser, BooleanToggle) {
  ArgParser p("prog", "test");
  p.add_flag("verbose", "false", "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(ArgParser, UnknownFlagFails) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, PositionalCollected) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "file1", "file2"};
  ASSERT_TRUE(p.parse(3, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "file1");
}

/// A parser with one flag of each type, fed `<flag>=<value>` (the `=` form
/// keeps a boolean flag from toggling and leaving the value positional).
ArgParser parsed_with(const char* flag, const char* value) {
  ArgParser p("prog", "test");
  p.add_flag("users", "10", "");
  p.add_flag("rate", "1.5", "");
  p.add_flag("stream", "false", "");
  const std::string arg = std::string(flag) + "=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  EXPECT_TRUE(p.parse(2, argv));
  return p;
}

TEST(ArgParser, NumbersParseAsWholeStrings) {
  EXPECT_EQ(parsed_with("--users", "-3").get_int("users"), -3);
  EXPECT_EQ(parsed_with("--users", "9223372036854775807").get_int("users"),
            INT64_MAX);
  EXPECT_DOUBLE_EQ(parsed_with("--rate", "2.5e3").get_double("rate"), 2500.0);
  EXPECT_DOUBLE_EQ(parsed_with("--rate", "7").get_double("rate"), 7.0);
}

TEST(ArgParser, UnsignedParsesTheFullRange) {
  EXPECT_EQ(parsed_with("--users", "0").get_uint("users"), 0u);
  EXPECT_EQ(parsed_with("--users", "18446744073709551615").get_uint("users"),
            UINT64_MAX);
}

TEST(ArgParser, BoolAcceptsEightSpellings) {
  for (const char* yes : {"true", "1", "yes", "on"}) {
    EXPECT_TRUE(parsed_with("--stream", yes).get_bool("stream")) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    EXPECT_FALSE(parsed_with("--stream", no).get_bool("stream")) << no;
  }
}

TEST(ArgParserDeathTest, TrailingGarbageInIntegerExitsTwo) {
  EXPECT_EXIT(parsed_with("--users", "10x").get_int("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected integer, got '10x'");
}

TEST(ArgParserDeathTest, NonNumericIntegerExitsTwoWithUsage) {
  EXPECT_EXIT(parsed_with("--users", "abc").get_int("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected integer, got 'abc'(.|\n)*flags:");
}

TEST(ArgParserDeathTest, OutOfRangeIntegerExitsTwo) {
  EXPECT_EXIT(parsed_with("--users", "9223372036854775808").get_int("users"),
              ::testing::ExitedWithCode(2), "expected integer");
}

TEST(ArgParserDeathTest, EmptyIntegerExitsTwo) {
  EXPECT_EXIT(parsed_with("--users", "").get_int("users"),
              ::testing::ExitedWithCode(2), "--users: expected integer, got ''");
}

TEST(ArgParserDeathTest, BadDoubleExitsTwo) {
  EXPECT_EXIT(parsed_with("--rate", "1.5.2").get_double("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected number, got '1.5.2'");
  EXPECT_EXIT(parsed_with("--rate", "1e999").get_double("rate"),
              ::testing::ExitedWithCode(2), "--rate: expected number");
}

TEST(ArgParserDeathTest, NegativeUnsignedExitsTwo) {
  // Read as -5 and cast, this used to become a 2^64 - 5 user count.
  EXPECT_EXIT(parsed_with("--users", "-5").get_uint("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected non-negative integer, got '-5'");
  EXPECT_EXIT(parsed_with("--users", "18446744073709551616").get_uint("users"),
              ::testing::ExitedWithCode(2), "expected non-negative integer");
  EXPECT_EXIT(parsed_with("--users", "7x").get_uint("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected non-negative integer, got '7x'");
}

TEST(ArgParser, PositiveAccessorsAcceptPositiveValues) {
  EXPECT_EQ(parsed_with("--rate", "0.05").get_positive_double("rate"), 0.05);
  EXPECT_EQ(parsed_with("--users", "2").get_positive_uint("users"), 2u);
}

TEST(ArgParserDeathTest, NonPositiveOrNonFiniteValueExitsTwo) {
  // A zero backbone latency used to reach ShardedSim's contract
  // check and end in an uncaught ContractViolation.
  EXPECT_EXIT(parsed_with("--rate", "0").get_positive_double("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got '0'(.|\n)*flags:");
  EXPECT_EXIT(parsed_with("--rate", "-0.5").get_positive_double("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got '-0.5'");
  EXPECT_EXIT(parsed_with("--rate", "inf").get_positive_double("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got 'inf'");
  EXPECT_EXIT(parsed_with("--rate", "nan").get_positive_double("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got 'nan'");
  EXPECT_EXIT(parsed_with("--users", "0").get_positive_uint("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected positive integer, got '0'");
  EXPECT_EXIT(parsed_with("--users", "-1").get_positive_uint("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected positive integer, got '-1'");
}

TEST(ArgParser, ListsParseEveryToken) {
  EXPECT_EQ(parsed_with("--rate", "80,2.5e1,0.5").get_list<double>("rate"),
            (std::vector<double>{80.0, 25.0, 0.5}));
  EXPECT_EQ(parsed_with("--rate", "-1").get_list<double>("rate"),
            (std::vector<double>{-1.0}));
  EXPECT_EQ(parsed_with("--users", "1,2,8").get_list<std::uint64_t>("users"),
            (std::vector<std::uint64_t>{1, 2, 8}));
}

TEST(ArgParserDeathTest, BadListTokenExitsTwo) {
  // Each of these used to be wrapped, read as a prefix, or silently
  // dropped by a bare std::stoul / std::stod.
  EXPECT_EXIT(parsed_with("--users", "1,-1").get_list<std::uint64_t>("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected non-negative integer, got '-1'");
  EXPECT_EXIT(parsed_with("--users", "2,10x").get_list<std::uint64_t>("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected non-negative integer, got '10x'(.|\n)*flags:");
  EXPECT_EXIT(parsed_with("--rate", "0.5,nan").get_list<double>("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected finite number, got 'nan'");
  EXPECT_EXIT(parsed_with("--rate", "inf").get_list<double>("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected finite number, got 'inf'");
  EXPECT_EXIT(parsed_with("--rate", "abc,1").get_list<double>("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected finite number, got 'abc'");
}

TEST(ArgParserDeathTest, EmptyListTokenExitsTwo) {
  EXPECT_EXIT(parsed_with("--rate", "").get_list<double>("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected finite number, got ''");
  EXPECT_EXIT(parsed_with("--rate", "1,,2").get_list<double>("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected finite number, got ''");
  EXPECT_EXIT(parsed_with("--users", "4,").get_list<std::uint64_t>("users"),
              ::testing::ExitedWithCode(2),
              "--users: expected non-negative integer, got ''");
}

TEST(ArgParser, PositiveListsAcceptPositiveValues) {
  EXPECT_EQ(parsed_with("--rate", "80,2.5e1,0.5").get_positive_list("rate"),
            (std::vector<double>{80.0, 25.0, 0.5}));
}

TEST(ArgParserDeathTest, NonPositiveListTokenExitsTwo) {
  // A bandwidth sweep reading -1 or 0 through get_list used to reach the
  // server's bandwidth contract and abort with an uncaught
  // ContractViolation.
  EXPECT_EXIT(parsed_with("--rate", "-1").get_positive_list("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got '-1'(.|\n)*flags:");
  EXPECT_EXIT(parsed_with("--rate", "80,0").get_positive_list("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got '0'");
  EXPECT_EXIT(parsed_with("--rate", "1,inf").get_positive_list("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got 'inf'");
  EXPECT_EXIT(parsed_with("--rate", "1,,2").get_positive_list("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got ''");
  EXPECT_EXIT(parsed_with("--rate", "2,x").get_positive_list("rate"),
              ::testing::ExitedWithCode(2),
              "--rate: expected positive finite number, got 'x'");
}

TEST(ArgParserDeathTest, UnknownBoolSpellingExitsTwo) {
  EXPECT_EXIT(parsed_with("--stream", "maybe").get_bool("stream"),
              ::testing::ExitedWithCode(2),
              "--stream: expected boolean, got 'maybe'");
}

TEST(ArgParser, WritableProbeLeavesFilesAsItFoundThem) {
  const ArgParser p = parsed_with("--users", "1");
  const std::string fresh = ::testing::TempDir() + "argparse_probe_fresh";
  std::remove(fresh.c_str());
  p.require_writable("users", fresh);
  EXPECT_FALSE(std::ifstream(fresh).good()) << "the probe left a file";

  const std::string kept = ::testing::TempDir() + "argparse_probe_kept";
  std::ofstream(kept) << "contents";
  p.require_writable("users", kept);
  std::string got;
  std::getline(std::ifstream(kept), got);
  EXPECT_EQ(got, "contents");
  std::remove(kept.c_str());
}

TEST(ArgParserDeathTest, UnwritablePathExitsTwo) {
  // An export path in a missing directory used to be found unwritable
  // only after the whole run, which then exited 0.
  EXPECT_EXIT(parsed_with("--users", "1")
                  .require_writable("users", "/nonexistent/dir/t.json"),
              ::testing::ExitedWithCode(2),
              "--users: expected writable path, got '/nonexistent/dir/t.json'");
}

TEST(Contract, ViolationMessageNamesKindAndExpression) {
  try {
    SPECPF_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}


// An element that counts its live instances, so the slab's teardown can be
// checked to destroy exactly the constructed prefix.
struct Counted {
  static inline int live = 0;
  char pad[88 - sizeof(int)] = {};
  int value = 0;
  Counted() { ++live; }
  ~Counted() { --live; }
};

TEST(ChunkedSlab, SlotsStayPutAcrossGrowthAndChunksAreLineAligned) {
  {
    ChunkedSlab<Counted, 2> slab;  // 4 elements per chunk
    std::vector<const Counted*> addresses;
    for (std::uint32_t i = 0; i < 11; ++i) {
      ASSERT_EQ(slab.emplace_back(), i);
      slab[i].value = static_cast<int>(i);
      addresses.push_back(&slab[i]);
    }
    EXPECT_EQ(slab.size(), 11u);
    EXPECT_EQ(slab.capacity(), 12u);
    EXPECT_EQ(Counted::live, 11);  // constructed on hand-out, not per chunk
    for (std::uint32_t i = 0; i < 11; ++i) {
      EXPECT_EQ(&slab[i], addresses[i]);
      EXPECT_EQ(slab[i].value, static_cast<int>(i));
      if (i % 4 == 0) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&slab[i]) % kCacheLineBytes,
                  0u);
      }
    }
  }
  EXPECT_EQ(Counted::live, 0);
}

}  // namespace
}  // namespace specpf
