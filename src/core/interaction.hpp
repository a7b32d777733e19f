// Unified prefetch–cache interaction analysis (paper §2.2, §3, §6).
//
// The paper analyses two eviction models:
//   Model A — prefetched items evict zero-value cache entries;
//             h = h' + n̄(F)·p                       (eq. 7)
//   Model B — every cache entry contributes h'/n̄(C) to the hit ratio, so an
//             eviction costs that much;
//             h = h' − n̄(F)·h'/n̄(C) + n̄(F)·p        (eq. 15)
// and §6 sketches the interpolating "Model AB" in which the evicted victim
// has some per-item value q ∈ [0, h'/n̄(C)].
//
// All three are special cases of a single family parameterised by the
// *victim value* q (expected hit-ratio contribution of each evicted entry):
//   h   = h' + n̄(F)(p − q)
//   ρ   = (1 − h + n̄(F))·λ·s̄/b
//   t̄   = (1 − h)·r̄
//   G   = t̄' − t̄
//        = n̄(F)·s̄·(p·b − f'λs̄ − q·b)
//          / ((b − f'λs̄)(b − f'λs̄ − n̄(F)(1 − p + q)λs̄))
//   p_th = ρ' + q
// Setting q = 0 recovers Model A's eqs. (7)–(13); q = h'/n̄(C) recovers
// Model B's eqs. (15)–(21). Tests verify these identities against the
// independently coded per-model formulas in model_a.hpp / model_b.hpp.
#pragma once

#include <string>

#include "core/no_prefetch.hpp"
#include "core/params.hpp"

namespace specpf::core {

/// Which prefetch–cache interaction assumption to analyse.
enum class InteractionModel {
  kModelA,  ///< evict zero-value items (q = 0)
  kModelB,  ///< evict average-value items (q = h'/n̄(C))
};

/// Victim value q for the chosen model.
double victim_value(const SystemParams& params, InteractionModel model);

/// A prefetching operating point: every prefetched item is assumed to have
/// the same access probability p (paper §3), and n̄(F) items are prefetched
/// per user request.
struct OperatingPoint {
  double access_probability = 0.5;  ///< p in (0, 1]
  double prefetch_rate = 0.0;       ///< n̄(F) >= 0

  /// "" when p is in (0, 1] and n̄(F) is finite and >= 0, else
  /// "<field>: <rule>, got <value>" for the first that is not: the domain
  /// `analyze` requires. Frontends call it at the edge and exit 2 on a
  /// message.
  std::string check() const;

  /// "" when n̄(F) is at most max_candidates(params, p) = f'/p, else
  /// "prefetch_rate: <rule>, got <n̄(F)>": eq. (6) bounds how many items
  /// can have access probability p at once, and past it h exceeds 1.
  /// Requires check() to pass.
  std::string check_candidates(const SystemParams& params) const;
};

/// Positivity conditions (12)/(20) for the gain G.
struct GainConditions {
  bool prob_above_threshold = false;  ///< condition 1: p·b − f'λs̄ − q·b > 0
  bool demand_within_capacity = false;  ///< condition 2: b − f'λs̄ > 0
  bool total_within_capacity = false;   ///< condition 3: denominator > 0
  bool all() const {
    return prob_above_threshold && demand_within_capacity &&
           total_within_capacity;
  }
};

/// Full closed-form evaluation of one operating point.
struct PrefetchAnalysis {
  double victim_value = 0.0;    ///< q
  double hit_ratio = 0.0;       ///< h
  double utilization = 0.0;     ///< ρ
  double retrieval_time = 0.0;  ///< r̄
  double access_time = 0.0;     ///< t̄
  double gain = 0.0;            ///< G = t̄' − t̄
  double threshold = 0.0;       ///< p_th = ρ' + q
  GainConditions conditions;
  NoPrefetchResult baseline;    ///< ρ', r̄', t̄'

  /// "" when the link is within capacity with prefetching (ρ < 1,
  /// condition 3), else "utilization: <rule>, got <ρ>": the sojourn-time
  /// forms and the excess cost hold only below it.
  std::string check_stable() const;
};

/// Generalised interaction analysis with explicit victim value q.
/// Requires params valid, ρ' < 1, p in (0,1], n̄(F) >= 0, q in [0, p_max].
/// The resulting system must be stable (condition 3) for the sojourn-time
/// forms to be meaningful; `analyze` still returns the algebraic values when
/// unstable but marks conditions.total_within_capacity = false.
PrefetchAnalysis analyze_with_victim_value(const SystemParams& params,
                                           const OperatingPoint& op,
                                           double victim_value);

/// Analysis under Model A or Model B.
PrefetchAnalysis analyze(const SystemParams& params, const OperatingPoint& op,
                         InteractionModel model);

/// Access-probability threshold p_th for the chosen model:
/// Model A: p_th = ρ' (eq. 13);  Model B: p_th = ρ' + h'/n̄(C) (eq. 21).
double threshold(const SystemParams& params, InteractionModel model);

/// Bound on n̄(F) implied by condition 3 at the *strictest useful bandwidth*
/// (b just above the threshold-satisfying minimum): equals f'/(p − q),
/// which is ≥ max(np) = f'/p — the paper's argument that condition 3 is
/// redundant (eq. 14 / eq. 22).
double prefetch_rate_limit_at_min_bandwidth(const SystemParams& params,
                                            double access_probability,
                                            InteractionModel model);

/// Largest n̄(F) keeping the prefetching system stable (condition 3) at the
/// *actual* bandwidth, i.e. the root of the t̄ denominator. Infinite when
/// p = 1 and q = 0 makes the coefficient vanish.
double prefetch_rate_capacity_limit(const SystemParams& params,
                                    double access_probability,
                                    InteractionModel model);

}  // namespace specpf::core
