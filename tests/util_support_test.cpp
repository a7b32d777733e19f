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

/// A parser with a flag of every kind, fed `args` after the program name.
ArgParser parsed(std::vector<const char*> args) {
  const auto is_family = [](const std::string& name) {
    return name == "fixed" || name == "token";
  };
  ArgParser p("prog", "test");
  p.add_flag("users", flag::kPositiveUint, "10", "");
  p.add_flag("seed", flag::kUint, "7", "");
  p.add_flag("rate", flag::kPositiveNumber, "1.5", "");
  p.add_flag("skew", flag::kNumber, "-0.5", "");
  p.add_flag("smoke", flag::kBool, "false", "");
  p.add_flag("abort", flag::kBool, "true", "");
  p.add_flag("threads", flag::list(flag::kUint), "1", "");
  p.add_flag("shards", flag::list(flag::kPositiveUint), "1,2", "");
  p.add_flag("rates", flag::list(flag::kPositiveNumber), "0.5", "");
  p.add_flag("knobs", flag::list(flag::kNumber), "0.4,-1", "");
  p.add_flag("family", flag::name("family name", is_family), "fixed", "");
  p.add_flag("families", flag::list(flag::name("family name", is_family)),
             "fixed,token", "");
  p.add_flag("in", flag::kInputPath, "", "");
  p.add_flag("out", flag::kOutputPath, "", "");
  args.insert(args.begin(), "prog");
  p.parse(static_cast<int>(args.size()), args.data());
  return p;
}

TEST(ArgParser, ParsesEqualsAndSpaceForms) {
  const ArgParser p = parsed({"--rate=2.5", "--family", "token"});
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 2.5);
  EXPECT_EQ(p.get_string("family"), "token");
}

TEST(ArgParser, DefaultsApply) {
  const ArgParser p = parsed({});
  EXPECT_EQ(p.get_uint("users"), 10u);
  EXPECT_DOUBLE_EQ(p.get_double("skew"), -0.5);
  EXPECT_TRUE(p.get_bool("abort"));
  EXPECT_EQ(p.get_list<std::uint64_t>("shards"),
            (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(p.get_list<std::string>("families"),
            (std::vector<std::string>{"fixed", "token"}));
  EXPECT_EQ(p.get_string("out"), "");
}

TEST(ArgParser, BoolFlagsReadAsTyped) {
  // A following true/false word is the flag's value: `--smoke false` used
  // to toggle the gate on and leave `false` behind as a positional.
  EXPECT_FALSE(parsed({"--smoke", "false"}).get_bool("smoke"));
  EXPECT_TRUE(parsed({"--smoke"}).get_bool("smoke"));
  EXPECT_TRUE(parsed({"--smoke=true"}).get_bool("smoke"));
  const ArgParser p = parsed({"--smoke", "--abort", "false"});
  EXPECT_TRUE(p.get_bool("smoke"));
  EXPECT_FALSE(p.get_bool("abort"));
  for (const char* yes : {"true", "1", "yes", "on"}) {
    EXPECT_TRUE(parsed({"--smoke", yes}).get_bool("smoke")) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    EXPECT_FALSE(parsed({"--abort", no}).get_bool("abort")) << no;
  }
}

TEST(ArgParser, GoodValuesOfEveryKindParse) {
  EXPECT_EQ(parsed({"--users", "2"}).get_uint("users"), 2u);
  EXPECT_EQ(parsed({"--seed", "0"}).get_uint("seed"), 0u);
  EXPECT_EQ(parsed({"--seed", "18446744073709551615"}).get_uint("seed"),
            UINT64_MAX);
  EXPECT_DOUBLE_EQ(parsed({"--rate", "2.5e3"}).get_double("rate"), 2500.0);
  EXPECT_DOUBLE_EQ(parsed({"--skew", "-3"}).get_double("skew"), -3.0);
  EXPECT_DOUBLE_EQ(parsed({"--skew", "0"}).get_double("skew"), 0.0);
  EXPECT_EQ(parsed({"--threads", "0,2,8"}).get_list<std::uint64_t>("threads"),
            (std::vector<std::uint64_t>{0, 2, 8}));
  EXPECT_EQ(parsed({"--shards", "4"}).get_list<std::uint64_t>("shards"),
            (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(parsed({"--rates", "80,2.5e1,0.5"}).get_list<double>("rates"),
            (std::vector<double>{80.0, 25.0, 0.5}));
  EXPECT_EQ(parsed({"--knobs", "-1"}).get_list<double>("knobs"),
            (std::vector<double>{-1.0}));
  // A name list skips empty tokens, as the sweeps always have.
  EXPECT_EQ(parsed({"--families", "token,,fixed,"})
                .get_list<std::string>("families"),
            (std::vector<std::string>{"token", "fixed"}));
  const std::string readable = ::testing::TempDir() + "argparse_readable";
  std::ofstream(readable) << "x";
  EXPECT_EQ(parsed({"--in", readable.c_str()}).get_string("in"), readable);
  std::remove(readable.c_str());
}

TEST(ArgParserDeathTest, BadValueOfEveryKindExitsTwoNamingTheFlag) {
  struct Case {
    const char* flag;
    const char* value;
    const char* expected;  ///< the kind, then the offending token
  };
  for (const Case& c : std::vector<Case>{
           {"--users", "0", "positive integer, got '0'"},
           {"--users", "-1", "positive integer, got '-1'"},
           {"--seed", "-5", "non-negative integer, got '-5'"},
           {"--seed", "10x", "non-negative integer, got '10x'"},
           {"--seed", "1e3", "non-negative integer, got '1e3'"},
           {"--seed", "18446744073709551616", "non-negative integer"},
           {"--seed", "", "non-negative integer, got ''"},
           {"--rate", "0", "positive finite number, got '0'"},
           {"--rate", "-0.5", "positive finite number, got '-0.5'"},
           {"--rate", "inf", "positive finite number, got 'inf'"},
           {"--skew", "nan", "finite number, got 'nan'"},
           {"--skew", "1.5.2", "finite number, got '1.5.2'"},
           {"--skew", "1e999", "finite number, got '1e999'"},
           {"--smoke", "maybe", "boolean, got 'maybe'"},
           {"--threads", "1,-1", "non-negative integer, got '-1'"},
           {"--threads", "4,", "non-negative integer, got ''"},
           {"--shards", "2,0", "positive integer, got '0'"},
           {"--rates", "1,,2", "positive finite number, got ''"},
           {"--rates", "80,0", "positive finite number, got '0'"},
           {"--knobs", "0.5,nan", "finite number, got 'nan'"},
           {"--knobs", "abc,1", "finite number, got 'abc'"},
           {"--family", "bogus", "family name, got 'bogus'"},
           {"--families", "fixed,bogus", "family name, got 'bogus'"},
           {"--in", "/nonexistent/x", "readable path, got '/nonexistent/x'"},
           {"--out", "/nonexistent/d/x",
            "writable path, got '/nonexistent/d/x'"},
       }) {
    EXPECT_EXIT(parsed({c.flag, c.value}), ::testing::ExitedWithCode(2),
                std::string("^") + c.flag + ": expected " + c.expected +
                    "(.|\n)*flags:")
        << c.flag << " " << c.value;
  }
}

TEST(ArgParserDeathTest, ArgvErrorsExitTwoAndHelpExitsZero) {
  EXPECT_EXIT(parsed({"--users", "3", "file1"}), ::testing::ExitedWithCode(2),
              "^unexpected argument 'file1'(.|\n)*flags:");
  EXPECT_EXIT(parsed({"--nope=1"}), ::testing::ExitedWithCode(2),
              "^--nope: unknown flag");
  EXPECT_EXIT(parsed({"--users"}), ::testing::ExitedWithCode(2),
              "^--users: missing value");
  EXPECT_EXIT(parsed({"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parsed({"-h"}), ::testing::ExitedWithCode(0), "");
}

TEST(ArgParser, UsageShowsEveryFlagsKind) {
  const std::string usage = parsed({}).usage();
  for (const char* line :
       {"--users <positive integer> (default: 10)",
        "--smoke <boolean> (default: false)",
        "--rates <positive finite number,...> (default: 0.5)",
        "--families <family name,...> (default: fixed,token)",
        "--out <writable path> (default: \"\")"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line;
  }
}

TEST(ArgParser, OutputProbeLeavesFilesAsItFoundThem) {
  const std::string fresh = ::testing::TempDir() + "argparse_probe_fresh";
  std::remove(fresh.c_str());
  parsed({"--out", fresh.c_str()});
  EXPECT_FALSE(std::ifstream(fresh).good()) << "the probe left a file";

  const std::string kept = ::testing::TempDir() + "argparse_probe_kept";
  std::ofstream(kept) << "contents";
  parsed({"--out", kept.c_str()});
  std::string got;
  std::getline(std::ifstream(kept), got);
  EXPECT_EQ(got, "contents");
  std::remove(kept.c_str());
}

TEST(ArgParser, DeclarationBugsTripContracts) {
  ArgParser p("prog", "test");
  EXPECT_THROW(p.add_flag("users", flag::kPositiveUint, "0", ""),
               ContractViolation);
  EXPECT_THROW(p.add_flag("rate", flag::kNumber, "nan", ""),
               ContractViolation);
  EXPECT_THROW(p.add_flag("smoke", flag::kBool, "", ""), ContractViolation);
  EXPECT_THROW(p.add_flag("rates", flag::list(flag::kPositiveNumber), "1,,2",
                          ""),
               ContractViolation);
  EXPECT_THROW(
      p.add_flag("family",
                 flag::name("family name",
                            [](const std::string& name) {
                              return name == "fixed";
                            }),
                 "token", ""),
      ContractViolation);
  // A getter of another kind's type is a bug too.
  EXPECT_THROW(parsed({}).get_double("users"), ContractViolation);
  EXPECT_THROW(parsed({}).get_list<double>("rate"), ContractViolation);
}

TEST(ArgParserDeathTest, DomainRejectionsExitTwo) {
  const ArgParser p = parsed({});
  EXPECT_EXIT(p.reject_value("users", "integer >= 2", "1"),
              ::testing::ExitedWithCode(2),
              "^--users: expected integer >= 2, got '1'(.|\n)*flags:");
  EXPECT_EXIT(p.require_valid("hit_ratio: must be in [0, 1], got 2"),
              ::testing::ExitedWithCode(2), "^hit_ratio: must be in");
  p.require_valid("");  // an empty check() message passes
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
