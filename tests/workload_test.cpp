#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "workload/session_graph.hpp"
#include "workload/session_source.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace.hpp"

namespace specpf {
namespace {

TEST(SessionGraph, LinkProbabilitiesSumToOne) {
  SessionGraphConfig cfg;
  cfg.num_pages = 50;
  cfg.out_degree = 4;
  SessionGraph graph(cfg, 13);
  for (std::uint64_t page = 0; page < 50; ++page) {
    double total = 0.0;
    for (const auto& link : graph.links(page)) {
      total += link.probability;
      EXPECT_NE(link.target, page);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(SessionGraph, NextDistributionScalesByContinuation) {
  SessionGraphConfig cfg;
  cfg.exit_probability = 0.25;
  SessionGraph graph(cfg, 17);
  double total = 0.0;
  for (const auto& link : graph.next_distribution(0)) {
    total += link.probability;
  }
  EXPECT_NEAR(total, 0.75, 1e-9);
}

TEST(SessionGraph, SessionLengthIsGeometric) {
  SessionGraphConfig cfg;
  cfg.exit_probability = 0.2;  // mean length 5
  SessionGraph graph(cfg, 19);
  Rng rng(21);
  double total_length = 0.0;
  constexpr int kSessions = 20000;
  for (int i = 0; i < kSessions; ++i) {
    total_length += static_cast<double>(graph.sample_session(rng).size());
  }
  EXPECT_NEAR(total_length / kSessions, 5.0, 0.15);
}

TEST(SessionGraph, SessionsFollowEdges) {
  SessionGraphConfig cfg;
  cfg.num_pages = 30;
  SessionGraph graph(cfg, 23);
  Rng rng(25);
  for (int s = 0; s < 200; ++s) {
    const auto session = graph.sample_session(rng);
    for (std::size_t i = 1; i < session.size(); ++i) {
      const auto& links = graph.links(session[i - 1]);
      const bool is_neighbor =
          std::any_of(links.begin(), links.end(), [&](const auto& l) {
            return l.target == session[i];
          });
      ASSERT_TRUE(is_neighbor);
    }
  }
}

TEST(SessionGraph, PopularityEstimateNormalised) {
  SessionGraphConfig cfg;
  cfg.num_pages = 40;
  SessionGraph graph(cfg, 27);
  const auto pop = graph.estimate_popularity(1, 5000);
  double total = 0.0;
  for (double p : pop) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

SessionTraceSource small_session_source(std::size_t users, double end_time) {
  SessionGraphConfig cfg;
  cfg.num_pages = 25;
  cfg.out_degree = 3;
  return SessionTraceSource(cfg, users, 0.5, 0.2, 31, end_time);
}

TEST(SessionTraceSource, RecordsAreTimeOrderedOnTheGraphAndInsideTheWindow) {
  constexpr double kEnd = 400.0;
  SessionTraceSource source = small_session_source(6, kEnd);
  TraceRecord r;
  TraceRecord prev{-1.0, 0, 0};
  std::size_t count = 0;
  while (source.next(&r)) {
    ASSERT_TRUE(r.time > prev.time ||
                (r.time == prev.time && r.user > prev.user))
        << "record " << count;
    ASSERT_LE(r.time, kEnd) << "record " << count;
    ASSERT_LT(r.user, 6u);
    ASSERT_LT(r.item, 25u);
    prev = r;
    ++count;
  }
  // 6 users x 0.5 sessions/s x ~6.7 pages over 400 s.
  EXPECT_GT(count, 5000u);
  EXPECT_FALSE(source.next(&r));  // stays exhausted
}

TEST(SessionTraceSource, ResetReplaysTheIdenticalSequence) {
  SessionTraceSource source = small_session_source(4, 200.0);
  std::vector<TraceRecord> first;
  TraceRecord r;
  while (source.next(&r)) first.push_back(r);
  ASSERT_FALSE(first.empty());
  source.reset();
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(source.next(&r)) << "record " << i;
    EXPECT_EQ(r.time, first[i].time) << "record " << i;
    EXPECT_EQ(r.user, first[i].user) << "record " << i;
    EXPECT_EQ(r.item, first[i].item) << "record " << i;
  }
  EXPECT_FALSE(source.next(&r));
}

TEST(SessionTraceSource, EachUserIsTheSessionStreamOfItsSubstream) {
  // The documented seeding: graph from substream 0, user u from 200 + u.
  SessionGraphConfig cfg;
  cfg.num_pages = 25;
  cfg.out_degree = 3;
  constexpr std::uint64_t kSeed = 31;
  constexpr double kEnd = 150.0;
  constexpr std::size_t kUsers = 5;
  SessionTraceSource source(cfg, kUsers, 0.5, 0.2, kSeed, kEnd);
  const Rng root(kSeed);
  const SessionGraph graph(cfg, root.substream(0).next_u64());
  ASSERT_EQ(source.graph()->links(3)[0].target, graph.links(3)[0].target);

  std::vector<std::vector<TraceRecord>> per_user(kUsers);
  TraceRecord r;
  while (source.next(&r)) per_user[r.user].push_back(r);
  for (std::size_t u = 0; u < kUsers; ++u) {
    SCOPED_TRACE("user " + std::to_string(u));
    SessionStream stream(graph, 0.5, 0.2, root.substream(200 + u));
    for (const TraceRecord& got : per_user[u]) {
      const Request want = stream.next();
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.item, want.item);
    }
    // The stream's next request is the first past the window.
    EXPECT_GT(stream.next().time, kEnd);
  }
}

TEST(Trace, CsvRoundTrip) {
  Trace trace;
  trace.append({0.5, 1, 100});
  trace.append({1.25, 2, 200});
  trace.append({2.0, 1, 100});
  std::stringstream ss;
  trace.save_csv(ss);
  const Trace loaded = Trace::load_csv(ss);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.records()[1].time, 1.25);
  EXPECT_EQ(loaded.records()[1].user, 2u);
  EXPECT_EQ(loaded.records()[2].item, 100u);
}

TEST(Trace, RejectsBadHeaderAndRecords) {
  std::stringstream bad_header("nope\n");
  EXPECT_THROW(Trace::load_csv(bad_header), std::runtime_error);
  std::stringstream bad_record("time,user,item\n1.0;2;3\n");
  EXPECT_THROW(Trace::load_csv(bad_record), std::runtime_error);
}

TEST(Trace, LoadCsvRejectsMalformedLinesWithLineNumbers) {
  const char* cases[] = {
      "time,user,item\n1.0,2\n",             // missing column
      "time,user,item\n1.0,2,3,4\n",         // trailing garbage
      "time,user,item\n1.0,-2,3\n",          // negative user
      "time,user,item\n1.0,2,-3\n",          // negative item
      "time,user,item\nnan,2,3\n",           // non-finite time
      "time,user,item\ninf,2,3\n",
      "time,user,item\nabc,2,3\n",           // non-numeric time
      "time,user,item\n2.0,1,1\n1.0,2,2\n",  // time moves backwards
  };
  for (const char* text : cases) {
    std::stringstream ss(text);
    SCOPED_TRACE(text);
    try {
      Trace::load_csv(ss);
      FAIL() << "expected rejection";
    } catch (const std::runtime_error& e) {
      // Every rejection names the offending line (all cases above fail on
      // line 2 or 3 of the stream).
      EXPECT_TRUE(std::string(e.what()).find("line") != std::string::npos)
          << e.what();
    }
  }
  // Equal timestamps are fine (only strict regressions reject).
  std::stringstream ties("time,user,item\n1.0,1,1\n1.0,2,2\n");
  EXPECT_EQ(Trace::load_csv(ties).size(), 2u);
}

TEST(TraceShardViewTest, MatchesPartitionByUser) {
  Trace trace;
  Rng rng(41);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.next_double() * 0.1;
    trace.append({t, static_cast<std::uint32_t>(rng.next_u64() % 50),
                  rng.next_u64() % 200});
  }
  constexpr std::size_t kShards = 7;
  const auto parts = trace.partition_by_user(kShards);
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const TraceShardView view(trace, s, kShards);
    EXPECT_EQ(view.count(), parts[s].size()) << "shard " << s;
    total += view.count();
    std::size_t i = 0;
    for (const TraceRecord& r : view) {
      ASSERT_LT(i, parts[s].size()) << "shard " << s;
      EXPECT_DOUBLE_EQ(r.time, parts[s].records()[i].time);
      EXPECT_EQ(r.user, parts[s].records()[i].user);
      EXPECT_EQ(r.item, parts[s].records()[i].item);
      ++i;
    }
    EXPECT_EQ(i, parts[s].size()) << "shard " << s;
  }
  EXPECT_EQ(total, trace.size());
  // A 1-way view walks the whole trace.
  const TraceShardView whole(trace, 0, 1);
  EXPECT_EQ(whole.count(), trace.size());
}

TEST(Trace, Statistics) {
  Trace trace;
  trace.append({0.0, 0, 5});
  trace.append({1.0, 1, 5});
  trace.append({4.0, 0, 7});
  EXPECT_EQ(trace.unique_items(), 2u);
  EXPECT_EQ(trace.unique_users(), 2u);
  EXPECT_DOUBLE_EQ(trace.duration(), 4.0);
  EXPECT_DOUBLE_EQ(trace.mean_request_rate(), 0.75);
  const auto counts = trace.item_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].second, 2u);  // item 5 twice
}

TEST(Trace, SortByTime) {
  Trace trace;
  trace.append({3.0, 0, 1});
  trace.append({1.0, 0, 2});
  EXPECT_FALSE(trace.is_time_ordered());
  trace.sort_by_time();
  EXPECT_TRUE(trace.is_time_ordered());
  EXPECT_EQ(trace.records()[0].item, 2u);
}

TEST(SyntheticTrace, TimeOrderedAndSized) {
  SyntheticTraceConfig cfg;
  cfg.num_users = 2000;
  cfg.num_requests = 20000;
  cfg.request_rate = 100.0;
  cfg.seed = 3;
  const Trace trace = generate_synthetic_trace(cfg);
  EXPECT_EQ(trace.size(), cfg.num_requests);
  EXPECT_TRUE(trace.is_time_ordered());
  // Uniform user draws with requests >> users cover almost everyone.
  EXPECT_GT(trace.unique_users(), cfg.num_users * 9 / 10);
  EXPECT_LE(trace.unique_users(), cfg.num_users);
  EXPECT_LE(trace.unique_items(), cfg.graph.num_pages);
  EXPECT_GT(trace.unique_items(), 0u);
  // Poisson process at the configured aggregate rate.
  EXPECT_NEAR(trace.mean_request_rate(), cfg.request_rate,
              cfg.request_rate * 0.1);
}

TEST(SyntheticTrace, DeterministicPerSeed) {
  SyntheticTraceConfig cfg;
  cfg.num_users = 100;
  cfg.num_requests = 1000;
  const Trace a = generate_synthetic_trace(cfg);
  const Trace b = generate_synthetic_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].user, b.records()[i].user);
    EXPECT_EQ(a.records()[i].item, b.records()[i].item);
    EXPECT_DOUBLE_EQ(a.records()[i].time, b.records()[i].time);
  }
  cfg.seed = 99;
  const Trace c = generate_synthetic_trace(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a.records()[i].item != c.records()[i].item ||
              a.records()[i].user != c.records()[i].user;
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticTraceStreamTest, MatchesMaterializedTraceAndReplaysOnReset) {
  SyntheticTraceConfig cfg;
  cfg.num_users = 150;
  cfg.num_requests = 2500;
  cfg.request_rate = 40.0;
  cfg.seed = 37;
  const Trace trace = generate_synthetic_trace(cfg);

  SyntheticTraceStream stream(cfg);
  TraceRecord r;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(stream.next(&r)) << "record " << i;
      EXPECT_DOUBLE_EQ(r.time, trace.records()[i].time) << "record " << i;
      EXPECT_EQ(r.user, trace.records()[i].user) << "record " << i;
      EXPECT_EQ(r.item, trace.records()[i].item) << "record " << i;
    }
    EXPECT_FALSE(stream.next(&r));  // exhausted at num_requests
    stream.reset();                 // second pass replays identically
  }
}

TEST(SyntheticTrace, PerUserSequencesFollowTheSessionGraph) {
  // Consecutive items of one user must be linked in the generating graph
  // (or be session restarts at an entry page) — the structure predictors
  // learn from.
  SyntheticTraceConfig cfg;
  cfg.num_users = 10;
  cfg.num_requests = 2000;
  cfg.seed = 17;
  SessionGraph graph(cfg.graph, Rng(cfg.seed).substream(1).next_u64());
  const Trace trace = generate_synthetic_trace(cfg);
  std::map<std::uint32_t, std::uint64_t> last;
  std::size_t linked = 0, steps = 0;
  for (const auto& r : trace.records()) {
    auto it = last.find(r.user);
    if (it != last.end()) {
      ++steps;
      for (const auto& link : graph.links(it->second)) {
        if (link.target == r.item) {
          ++linked;
          break;
        }
      }
    }
    last[r.user] = r.item;
  }
  ASSERT_GT(steps, 500u);
  // With exit probability 0.15 most steps follow a link.
  EXPECT_GT(static_cast<double>(linked) / static_cast<double>(steps), 0.6);
}

}  // namespace
}  // namespace specpf
