// Merge semantics backing the sharded runtime's canonical-order reduction:
// SimMetrics, LogHistogram, ServerStats, and BackboneStats. The
// load-bearing property is that a merge of one accumulator into a fresh one
// reproduces it bit-for-bit (the 1-shard differential depends on it), and
// that counter-style state adds exactly.
#include <gtest/gtest.h>

#include "net/backbone.hpp"
#include "net/server.hpp"
#include "sim/metrics.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

SimMetrics make_metrics(std::uint64_t seed, int samples) {
  SimMetrics m;
  Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    switch (rng.next_below(4)) {
      case 0:
        m.record_hit();
        break;
      case 1:
        m.record_miss(rng.next_double());
        break;
      case 2:
        m.record_inflight_hit(rng.next_double() * 0.5);
        break;
      case 3:
        m.record_demand_retrieval(rng.next_double() * 2.0);
        m.record_prefetch_retrieval(rng.next_double());
        if (rng.bernoulli(0.25)) m.record_wasted_prefetch();
        break;
    }
  }
  return m;
}

void expect_metrics_eq(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.requests(), b.requests());
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.hit_ratio(), b.hit_ratio());
  EXPECT_EQ(a.mean_access_time(), b.mean_access_time());
  EXPECT_EQ(a.access_time_stats().std_error(),
            b.access_time_stats().std_error());
  EXPECT_EQ(a.retrieval_time_per_request(), b.retrieval_time_per_request());
  EXPECT_EQ(a.retrievals_per_request(), b.retrievals_per_request());
  EXPECT_EQ(a.demand_retrievals(), b.demand_retrievals());
  EXPECT_EQ(a.prefetch_retrievals(), b.prefetch_retrievals());
  EXPECT_EQ(a.mean_demand_sojourn(), b.mean_demand_sojourn());
  EXPECT_EQ(a.mean_prefetch_sojourn(), b.mean_prefetch_sojourn());
  EXPECT_EQ(a.inflight_hits(), b.inflight_hits());
  EXPECT_EQ(a.mean_inflight_wait(), b.mean_inflight_wait());
  EXPECT_EQ(a.wasted_prefetches(), b.wasted_prefetches());
}

TEST(SimMetricsMerge, MergeIntoEmptyIsIdentity) {
  const SimMetrics m = make_metrics(7, 500);
  SimMetrics merged;
  merged.merge(m);
  expect_metrics_eq(merged, m);
}

TEST(SimMetricsMerge, MergeOfEmptyIsNoOp) {
  SimMetrics m = make_metrics(7, 500);
  const SimMetrics reference = make_metrics(7, 500);
  m.merge(SimMetrics{});
  expect_metrics_eq(m, reference);
}

TEST(SimMetricsMerge, CountersAddExactlyAndMomentsCombine) {
  SimMetrics a = make_metrics(1, 400);
  const SimMetrics b = make_metrics(2, 300);
  const std::uint64_t requests = a.requests() + b.requests();
  const std::uint64_t hits = a.hits() + b.hits();
  const std::uint64_t wasted = a.wasted_prefetches() + b.wasted_prefetches();
  const std::uint64_t demand = a.demand_retrievals() + b.demand_retrievals();
  const double total_sojourn = a.retrieval_time_per_request() *
                                   static_cast<double>(a.requests()) +
                               b.retrieval_time_per_request() *
                                   static_cast<double>(b.requests());
  a.merge(b);
  EXPECT_EQ(a.requests(), requests);
  EXPECT_EQ(a.hits(), hits);
  EXPECT_EQ(a.wasted_prefetches(), wasted);
  EXPECT_EQ(a.demand_retrievals(), demand);
  EXPECT_NEAR(a.retrieval_time_per_request(),
              total_sojourn / static_cast<double>(requests), 1e-12);
}

TEST(SimMetricsMerge, MergeMatchesSequentialAccumulationClosely) {
  // Chan's update is not bit-identical to sequential Welford, but the
  // merged moments must agree to floating-point noise.
  SimMetrics split_a = make_metrics(11, 600);
  const SimMetrics split_b = make_metrics(12, 600);
  SimMetrics joint;
  joint.merge(make_metrics(11, 600));
  joint.merge(make_metrics(12, 600));
  split_a.merge(split_b);
  EXPECT_NEAR(split_a.mean_access_time(), joint.mean_access_time(), 1e-14);
  EXPECT_NEAR(split_a.access_time_stats().variance(),
              joint.access_time_stats().variance(), 1e-12);
}

TEST(LogHistogramMerge, BinsAddExactly) {
  LogHistogram a, b;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) a.add(rng.next_double() * 100.0);
  for (int i = 0; i < 400; ++i) b.add(rng.next_double() * 0.01);
  LogHistogram joint;
  joint.merge(a);
  joint.merge(b);
  EXPECT_EQ(joint.count(), a.count() + b.count());

  LogHistogram copy;
  copy.merge(a);
  EXPECT_EQ(copy.quantile(0.5), a.quantile(0.5));
}

TEST(ServerStatsMerge, SingleLinkIsVerbatim) {
  ServerStats s;
  s.completed = 41;
  s.mean_sojourn = 0.731;
  s.mean_jobs_in_system = 2.5;
  s.utilization = 0.61;
  s.total_service_demand = 17.25;
  const ServerStats merged = merge_server_stats({s});
  EXPECT_EQ(merged.completed, s.completed);
  EXPECT_EQ(merged.mean_sojourn, s.mean_sojourn);
  EXPECT_EQ(merged.mean_jobs_in_system, s.mean_jobs_in_system);
  EXPECT_EQ(merged.utilization, s.utilization);
  EXPECT_EQ(merged.total_service_demand, s.total_service_demand);
}

TEST(ServerStatsMerge, ParallelLinksCombine) {
  ServerStats a, b;
  a.completed = 10;
  a.mean_sojourn = 1.0;
  a.mean_jobs_in_system = 1.0;
  a.utilization = 0.5;
  a.total_service_demand = 5.0;
  b.completed = 30;
  b.mean_sojourn = 2.0;
  b.mean_jobs_in_system = 3.0;
  b.utilization = 0.9;
  b.total_service_demand = 45.0;
  const ServerStats merged = merge_server_stats({a, b});
  EXPECT_EQ(merged.completed, 40u);
  EXPECT_DOUBLE_EQ(merged.mean_sojourn, (10.0 * 1.0 + 30.0 * 2.0) / 40.0);
  EXPECT_DOUBLE_EQ(merged.mean_jobs_in_system, 4.0);
  EXPECT_DOUBLE_EQ(merged.utilization, 0.7);
  EXPECT_DOUBLE_EQ(merged.total_service_demand, 50.0);
}

TEST(BackboneStatsMerge, SingleLinkIsVerbatimAndCountersAdd) {
  BackboneStats a;
  a.demand_jobs = 7;
  a.prefetch_jobs = 11;
  a.completed = 15;
  a.mean_sojourn = 0.25;
  a.utilization = 0.4;
  a.total_service_demand = 3.0;
  const BackboneStats one = merge_backbone_stats({a});
  EXPECT_EQ(one.mean_sojourn, a.mean_sojourn);
  EXPECT_EQ(one.jobs(), 18u);

  BackboneStats b;
  b.demand_jobs = 3;
  b.prefetch_jobs = 1;
  b.completed = 5;
  b.mean_sojourn = 0.45;
  b.utilization = 0.2;
  b.total_service_demand = 1.0;
  const BackboneStats merged = merge_backbone_stats({a, b});
  EXPECT_EQ(merged.demand_jobs, 10u);
  EXPECT_EQ(merged.prefetch_jobs, 12u);
  EXPECT_EQ(merged.completed, 20u);
  EXPECT_DOUBLE_EQ(merged.mean_sojourn, (15.0 * 0.25 + 5.0 * 0.45) / 20.0);
  EXPECT_DOUBLE_EQ(merged.utilization, 0.3);
  EXPECT_DOUBLE_EQ(merged.total_service_demand, 4.0);
}

}  // namespace
}  // namespace specpf
