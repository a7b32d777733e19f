#include "sim/stack_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "control/governor.hpp"
#include "sim/proxy_sim.hpp"
#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf {

std::string StackConfig::check() const {
  if (!positive_finite(bandwidth)) {
    return config_error("bandwidth", "must be positive and finite", bandwidth);
  }
  if (!positive_finite(item_size)) {
    return config_error("item_size", "must be positive and finite", item_size);
  }
  if (cache_capacity < 1) {
    return config_error("cache_capacity", "must be >= 1", cache_capacity);
  }
  if (max_prefetch_per_request < 1) {
    return config_error("max_prefetch_per_request", "must be >= 1",
                        max_prefetch_per_request);
  }
  return {};
}

StackRuntime::StackRuntime(Simulator& sim, PredictorPlane& predictor,
                           PrefetchPolicy& policy, StackRuntimeConfig config)
    : sim_(sim),
      predictor_(predictor),
      policy_(policy),
      config_(std::move(config)),
      server_(sim, config_.bandwidth),
      estimate_cache_(config_.num_users, 0.0),
      demand_inflight_(config_.num_users, 0),
      pending_prefetches_(config_.num_users),
      sensor_(config_.sensor),
      sense_(config_.enable_load_sensor || config_.governor != nullptr),
      measuring_(false),
      telemetry_(config_.telemetry) {
  expect_valid(config_.check());
  SPECPF_EXPECTS(config_.num_users >= 1);
  CachePlaneConfig plane_config;
  plane_config.num_users = config_.num_users;
  plane_config.capacity = config_.cache_capacity;
  plane_config.seed = config_.seed;
  caches_ = make_cache_plane(config_.cache_kind, plane_config);
  caches_->set_eviction_observer([this](UserId, ItemId, EntryTag tag) {
    --cache_residents_;
    if (tag == EntryTag::kUntagged) {
      ++wasted_evictions_;
      if (measuring_) metrics_.record_wasted_prefetch();
      if (telemetry_) telemetry_->registry().add(tele_.wasted_evictions);
      // Waste feedback is dynamics, not just metrics: the governor learns
      // from warmup evictions too.
      if (config_.governor) config_.governor->on_prefetch_wasted();
    }
  });
  for (std::size_t u = 0; u < config_.num_users; ++u) {
    refresh_estimate(static_cast<UserId>(u));
  }
  if (telemetry_) setup_telemetry();
}

void StackRuntime::setup_telemetry() {
  TelemetryRegistry& reg = telemetry_->registry();
  tele_.requests = reg.register_counter("req.count");
  tele_.hits = reg.register_counter("req.hit");
  tele_.misses = reg.register_counter("req.miss");
  tele_.inflight_attaches = reg.register_counter("req.inflight_attach");
  tele_.demand_fetches = reg.register_counter("fetch.demand");
  tele_.prefetch_fetches = reg.register_counter("fetch.prefetch");
  tele_.prefetch_deferred = reg.register_counter("pf.deferred");
  tele_.prefetch_throttled = reg.register_counter("pf.throttled");
  tele_.wasted_evictions = reg.register_counter("cache.wasted_evictions");
  tele_.link_queue = reg.register_gauge("link.queue_depth", "jobs");
  tele_.link_util = reg.register_gauge("link.util_ewma", "ratio");
  tele_.link_depth_ewma = reg.register_gauge("link.depth_ewma", "jobs");
  tele_.link_slowdown = reg.register_gauge("link.slowdown_ewma", "ratio");
  tele_.gov_state = reg.register_gauge("gov.state", "state");
  tele_.gov_depth_limit = reg.register_gauge("gov.depth_limit", "items");
  tele_.inflight_demand = reg.register_gauge("inflight.demand", "transfers");
  tele_.inflight_prefetch =
      reg.register_gauge("inflight.prefetch", "transfers");
  tele_.cache_residents = reg.register_gauge("cache.residents", "items");
  tele_.pred_contexts = reg.register_gauge("pred.contexts", "contexts");
  tele_.pred_halvings = reg.register_gauge("pred.halvings", "count");
  // Gauge refresh runs only at sample instants (cold relative to the
  // request path) and reads state the runtime already maintains — no
  // fleet-wide walks, no mutation, no allocation.
  telemetry_->set_gauge_source([this](TelemetryRegistry& r) {
    r.set_gauge(tele_.link_queue,
                static_cast<double>(server_.active_jobs()));
    const LoadSignals& s = sensor_.signals();
    r.set_gauge(tele_.link_util, s.utilization);
    r.set_gauge(tele_.link_depth_ewma, s.queue_depth);
    r.set_gauge(tele_.link_slowdown, s.slowdown);
    if (config_.governor != nullptr) {
      r.set_gauge(tele_.gov_state, config_.governor->state_gauge());
      r.set_gauge(tele_.gov_depth_limit,
                  static_cast<double>(config_.governor->depth_limit(
                      config_.max_prefetch_per_request)));
    }
    r.set_gauge(tele_.inflight_demand,
                static_cast<double>(inflight_demand_total_));
    r.set_gauge(tele_.inflight_prefetch,
                static_cast<double>(inflight_prefetch_total_));
    r.set_gauge(tele_.cache_residents,
                static_cast<double>(cache_residents_));
    r.set_gauge(tele_.pred_contexts,
                static_cast<double>(predictor_.context_count()));
    r.set_gauge(tele_.pred_halvings,
                static_cast<double>(predictor_.counter_halvings()));
  });
  telemetry_->seal();
}

void StackRuntime::refresh_estimate(UserId user) {
  const double e = caches_->estimate(user, config_.estimator_model);
  estimate_sum_ += e - estimate_cache_[user];
  estimate_cache_[user] = e;
}

void StackRuntime::begin_measurement() {
  if constexpr (kAuditBuild) {
    AuditReport report;
    audit(report);
    report.require();
  }
  measuring_ = true;
  metrics_.reset();
  server_.reset_stats();
  // Warmup evictions belong to the warmup, like every other metric.
  wasted_evictions_ = 0;
  throttled_prefetches_ = 0;
  // Peaks are per-window metrics; the sensor's smoothed estimates keep
  // their learned state across the boundary (they are dynamics).
  if (sense_) sensor_.reset_peaks();
}

PolicyContext StackRuntime::current_context() const {
  PolicyContext ctx;
  ctx.params.bandwidth = config_.bandwidth;
  ctx.params.mean_item_size = config_.item_size;
  ctx.params.cache_items = static_cast<double>(config_.cache_capacity);
  ctx.params.request_rate =
      (total_requests_ >= 100 && sim_.now() > 1.0)
          ? static_cast<double>(total_requests_) / sim_.now()
          : config_.lambda_prior;
  ctx.params.hit_ratio = std::clamp(
      estimate_sum_ / static_cast<double>(config_.num_users), 0.0, 0.999);
  return ctx;
}

void StackRuntime::flush_pending_prefetches(UserId user) {
  std::vector<ItemId> batch = std::move(pending_prefetches_[user]);
  pending_prefetches_[user].clear();
  for (ItemId item : batch) {
    if (caches_->contains(user, item)) continue;
    if (inflight_.contains(inflight_key(user, item))) continue;
    submit_retrieval(user, item, /*is_prefetch=*/true);
  }
}

void StackRuntime::submit_retrieval(UserId user, ItemId item,
                                    bool is_prefetch) {
  if (config_.retrieval_observer) {
    config_.retrieval_observer(user, item, is_prefetch);
  }
  Inflight& entry = inflight_.get_or_insert(inflight_key(user, item));
  entry.is_prefetch = is_prefetch;
  if (!is_prefetch) ++demand_inflight_[user];
  if (is_prefetch) {
    ++inflight_prefetch_total_;
  } else {
    ++inflight_demand_total_;
  }
  if (telemetry_) {
    telemetry_->registry().add(is_prefetch ? tele_.prefetch_fetches
                                           : tele_.demand_fetches);
    entry.span = telemetry_->spans().open(
        is_prefetch ? SpanTracer::SpanKind::kPrefetchFetch
                    : SpanTracer::SpanKind::kDemandFetch,
        sim_.now(), user, item);
  }
  server_.submit(config_.item_size, [this, user, item,
                                     is_prefetch](const TransferResult& r) {
    if (sense_) {
      sensor_.observe_completion(sim_.now(), r.sojourn(),
                                 config_.item_size / config_.bandwidth);
      sensor_.observe_queue(sim_.now(), server_.active_jobs());
    }
    // Re-read measuring_ at completion: a retrieval submitted during warmup
    // that lands inside the measurement window counts toward retrieval
    // metrics, matching the server stats (which are reset at the warmup
    // boundary and see the same completion).
    if (measuring_) {
      if (is_prefetch) {
        metrics_.record_prefetch_retrieval(r.sojourn());
      } else {
        metrics_.record_demand_retrieval(r.sojourn());
      }
    }
    const Inflight info = inflight_.take(inflight_key(user, item));
    if (is_prefetch) {
      --inflight_prefetch_total_;
    } else {
      --inflight_demand_total_;
    }
    if (is_prefetch) {
      if (info.waiter_times.empty() && !info.demand_promoted) {
        caches_->admit_prefetch(user, item);
      } else {
        caches_->admit_prefetch_accessed(user, item);
      }
    } else {
      caches_->admit_demand(user, item);
    }
    ++cache_residents_;
    refresh_estimate(user);
    if (measuring_) {
      for (double t0 : info.waiter_times) {
        if (is_prefetch) {
          metrics_.record_inflight_hit(sim_.now() - t0);
        } else {
          metrics_.record_miss(sim_.now() - t0);
        }
      }
    }
    if (telemetry_) {
      SpanTracer& spans = telemetry_->spans();
      spans.close(info.span, sim_.now());
      // Waits are reconstructed here from their recorded start instants
      // (waiter_times only accumulates inside the measurement window, so
      // wait spans cover the measured run, like the wait metrics).
      for (double t0 : info.waiter_times) {
        spans.complete(is_prefetch ? SpanTracer::SpanKind::kInflightWait
                                   : SpanTracer::SpanKind::kDemandWait,
                       t0, sim_.now(), user, item);
      }
      // Completions also advance the sampling clock: the drain tail after
      // the last request still produces queue-depth samples.
      telemetry_->maybe_sample(sim_.now());
    }
    // A prefetch that a demand miss attached to holds the link like a
    // demand fetch (the user is blocked on it).
    const bool held_link = !is_prefetch || info.demand_promoted;
    if (held_link && --demand_inflight_[user] == 0) {
      flush_pending_prefetches(user);
    }
  });
  // Observe the arrival after the job entered the link (busy for sure).
  if (sense_) sensor_.observe_queue(sim_.now(), server_.active_jobs());
}

void StackRuntime::handle_request(UserId user, ItemId item) {
  SPECPF_EXPECTS(user < config_.num_users);
  ++total_requests_;
  if (telemetry_) {
    telemetry_->registry().add(tele_.requests);
    // The sampling clock piggybacks on instants the runtime already
    // visits — never its own events — so the cadence is "the first
    // arrival/completion at-or-after each interval boundary".
    telemetry_->maybe_sample(sim_.now());
  }
  switch (caches_->access(user, item)) {
    case AccessOutcome::kHitTagged:
      if (measuring_) metrics_.record_hit();
      if (telemetry_) telemetry_->registry().add(tele_.hits);
      break;
    case AccessOutcome::kHitUntagged:
      // First touch of a landed prefetch — the precision signal the
      // confidence governor learns from.
      if (config_.governor) config_.governor->on_prefetch_useful();
      if (measuring_) metrics_.record_hit();
      if (telemetry_) telemetry_->registry().add(tele_.hits);
      break;
    case AccessOutcome::kMiss: {
      if (telemetry_) telemetry_->registry().add(tele_.misses);
      if (Inflight* fl = inflight_.find(inflight_key(user, item))) {
        if (measuring_) fl->waiter_times.push_back(sim_.now());
        if (telemetry_) telemetry_->registry().add(tele_.inflight_attaches);
        if (fl->is_prefetch && !fl->demand_promoted &&
            config_.governor) {
          // The demand stream caught up with a live prefetch: useful.
          config_.governor->on_prefetch_useful();
        }
        if (fl->is_prefetch && !fl->demand_promoted) {
          // Promote: the user now waits on this transfer, so it must defer
          // prefetch dispatch exactly like a demand fetch (paper §1's
          // idle-link rule). Promotion is independent of measuring_ — it
          // changes dynamics, not just metrics.
          fl->demand_promoted = true;
          ++demand_inflight_[user];
        }
      } else {
        submit_retrieval(user, item, /*is_prefetch=*/false);
        if (measuring_) {
          inflight_.get_or_insert(inflight_key(user, item))
              .waiter_times.push_back(sim_.now());
        }
      }
      break;
    }
  }
  refresh_estimate(user);

  predictor_.observe(user, item);
  predictor_.predict_into(user, config_.max_prefetch_per_request,
                          prediction_scratch_);
  if (prediction_scratch_.empty()) return;
  viable_scratch_.clear();
  for (const auto& c : prediction_scratch_) {
    if (c.item == item) continue;
    if (caches_->contains(user, c.item)) continue;
    if (inflight_.contains(inflight_key(user, c.item))) continue;
    viable_scratch_.push_back(c);
  }
  if (viable_scratch_.empty()) return;
  const auto selected = policy_.select(viable_scratch_, current_context());
  PrefetchGovernor* governor = config_.governor;
  std::size_t depth_budget = selected.size();
  if (governor) {
    // Gate each policy-selected candidate through the governor. Admission
    // happens at selection time even for deferred prefetches (the token
    // spend / AIMD decision belongs to the moment the decision is made,
    // not the idle instant the transfer dispatches at). The sensor is as
    // fresh as the last submission/completion — jobs only change at those
    // events, and deliberately no extra observation happens here: the
    // governed and ungoverned runs must make the *same* observation
    // sequence, so the noop governor stays bit-identical to ungoverned
    // including the sensor peaks (EWMA composition is not bit-invariant
    // under resampling).
    depth_budget = std::min(
        depth_budget, governor->depth_limit(config_.max_prefetch_per_request));
  }
  std::size_t admitted = 0;
  for (const auto& c : selected) {
    if (governor) {
      if (admitted >= depth_budget ||
          !governor->admit(sim_.now(), user, c, config_.item_size,
                           sensor_.signals())) {
        ++throttled_prefetches_;
        if (telemetry_) telemetry_->registry().add(tele_.prefetch_throttled);
        continue;
      }
    }
    ++admitted;
    if (demand_inflight_[user] > 0) {
      pending_prefetches_[user].push_back(c.item);
      if (telemetry_) telemetry_->registry().add(tele_.prefetch_deferred);
    } else {
      submit_retrieval(user, c.item, /*is_prefetch=*/true);
    }
  }
}

StackAggregates StackRuntime::aggregates() const {
  const CachePlaneTotals totals = caches_->totals(config_.estimator_model);
  StackAggregates agg;
  agg.hprime_sum = totals.hprime_sum;
  agg.prefetch_inserts = totals.prefetch_inserts;
  agg.prefetch_first_uses = totals.prefetch_first_uses;
  agg.wasted_evictions = wasted_evictions_;
  agg.num_users = config_.num_users;
  agg.throttled_prefetches = throttled_prefetches_;
  if (sense_) {
    agg.peak_queue_depth = sensor_.signals().peak_queue_depth;
    agg.peak_slowdown = sensor_.signals().peak_slowdown;
  }
  return agg;
}

ProxySimResult assemble_stack_result(const SimMetrics& metrics,
                                     const ServerStats& horizon_stats,
                                     const StackAggregates& aggregates,
                                     std::string policy_name) {
  ProxySimResult out;
  out.policy = std::move(policy_name);
  out.mean_access_time = metrics.mean_access_time();
  out.access_time_std_error = metrics.access_time_stats().std_error();
  out.access_time_p50 = metrics.access_time_quantile(0.50);
  out.access_time_p95 = metrics.access_time_quantile(0.95);
  out.access_time_p99 = metrics.access_time_quantile(0.99);
  out.hit_ratio = metrics.hit_ratio();
  out.server_utilization = horizon_stats.utilization;
  out.retrieval_time_per_request = metrics.retrieval_time_per_request();
  out.retrievals_per_request = metrics.retrievals_per_request();
  out.requests = metrics.requests();
  out.demand_jobs = metrics.demand_retrievals();
  out.prefetch_jobs = metrics.prefetch_retrievals();
  out.wasted_prefetch_evictions = aggregates.wasted_evictions;
  out.inflight_hits = metrics.inflight_hits();
  out.mean_inflight_wait = metrics.mean_inflight_wait();
  out.mean_demand_sojourn = metrics.mean_demand_sojourn();
  out.hprime_estimate = safe_div(aggregates.hprime_sum,
                                 static_cast<double>(aggregates.num_users));
  out.prefetch_useful_fraction =
      aggregates.prefetch_inserts
          ? static_cast<double>(aggregates.prefetch_first_uses) /
                static_cast<double>(aggregates.prefetch_inserts)
          : 0.0;
  out.throttled_prefetches = aggregates.throttled_prefetches;
  out.peak_queue_depth = aggregates.peak_queue_depth;
  out.peak_slowdown = aggregates.peak_slowdown;
  return out;
}

ProxySimResult StackRuntime::finalize(const ServerStats& horizon_stats,
                                      std::string policy_name) const {
  if constexpr (kAuditBuild) {
    AuditReport report;
    audit(report);
    report.require();
  }
  return assemble_stack_result(metrics_, horizon_stats, aggregates(),
                               std::move(policy_name));
}

void StackRuntime::audit(AuditReport& report) const {
  const AuditScope scope(report, "StackRuntime");
  // In-flight bookkeeping: keys well-formed, promotion flags consistent,
  // and per-user demand counts re-derived from scratch.
  std::vector<int> derived_demand(config_.num_users, 0);
  inflight_.for_each([&](std::uint64_t key, const Inflight& fl) {
    const auto user = static_cast<std::uint32_t>(key >> 32);
    if (!report.check(user < config_.num_users,
                      "in-flight key names user " + std::to_string(user) +
                          " outside the fleet")) {
      return;
    }
    report.check(fl.is_prefetch || !fl.demand_promoted,
                 "demand transfer marked demand_promoted (user " +
                     std::to_string(user) + ")");
    report.check(!fl.is_prefetch || fl.waiter_times.empty() ||
                     fl.demand_promoted,
                 "prefetch with waiters was never promoted (user " +
                     std::to_string(user) + ")");
    if (!fl.is_prefetch || fl.demand_promoted) ++derived_demand[user];
  });
  for (std::uint32_t u = 0; u < config_.num_users; ++u) {
    report.check(demand_inflight_[u] == derived_demand[u],
                 "user " + std::to_string(u) + ": demand_inflight_ says " +
                     std::to_string(demand_inflight_[u]) +
                     " but the in-flight index holds " +
                     std::to_string(derived_demand[u]) +
                     " link-holding transfers");
    report.check(pending_prefetches_[u].empty() || demand_inflight_[u] > 0,
                 "user " + std::to_string(u) +
                     " defers prefetches with no blocking demand fetch");
  }
  // Cached ĥ' estimates: each user's cache must be bit-equal to a fresh
  // recomputation (refresh_estimate runs after every mutation), and the
  // incrementally-maintained sum within accumulation tolerance of the
  // exact one.
  double exact_sum = 0.0;
  for (std::uint32_t u = 0; u < config_.num_users; ++u) {
    const double fresh = caches_->estimate(u, config_.estimator_model);
    report.check(estimate_cache_[u] == fresh,
                 "user " + std::to_string(u) +
                     ": cached h' estimate is stale");
    exact_sum += estimate_cache_[u];
  }
  const double tolerance =
      1e-7 * (1.0 + static_cast<double>(config_.num_users));
  report.check(std::abs(estimate_sum_ - exact_sum) <= tolerance,
               "running h' sum drifted " +
                   std::to_string(std::abs(estimate_sum_ - exact_sum)) +
                   " from the exact sum");
  // Telemetry occupancy counters: rederive the maintained O(1) gauges from
  // the structures they summarize.
  std::uint64_t derived_prefetch = 0;
  std::uint64_t derived_demand_total = 0;
  inflight_.for_each([&](std::uint64_t, const Inflight& fl) {
    if (fl.is_prefetch) {
      ++derived_prefetch;
    } else {
      ++derived_demand_total;
    }
  });
  report.check(inflight_demand_total_ == derived_demand_total,
               "inflight_demand_total_ says " +
                   std::to_string(inflight_demand_total_) + " but the index holds " +
                   std::to_string(derived_demand_total));
  report.check(inflight_prefetch_total_ == derived_prefetch,
               "inflight_prefetch_total_ says " +
                   std::to_string(inflight_prefetch_total_) +
                   " but the index holds " + std::to_string(derived_prefetch));
  std::uint64_t derived_residents = 0;
  for (std::uint32_t u = 0; u < config_.num_users; ++u) {
    derived_residents += caches_->size(u);
  }
  report.check(cache_residents_ == derived_residents,
               "cache_residents_ says " + std::to_string(cache_residents_) +
                   " but the fleet holds " +
                   std::to_string(derived_residents) + " entries");
  // Structural sweeps of the planes and the engine this slice runs on.
  inflight_.audit(report);
  caches_->audit(report);
  predictor_.audit(report);
  server_.audit(report);
  sim_.audit(report);
  if (telemetry_ != nullptr) telemetry_->audit(report);
}

}  // namespace specpf
