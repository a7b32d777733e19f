// Concrete prefetch policies.
#pragma once

#include <memory>

#include "core/interaction.hpp"
#include "policy/policy.hpp"

namespace specpf {

/// Never prefetches — the caching-only baseline (paper §2.3).
class NoPrefetchPolicy final : public PrefetchPolicy {
 public:
  std::vector<core::Candidate> select(const std::vector<core::Candidate>&,
                                      const PolicyContext&) override {
    return {};
  }
  std::string name() const override { return "none"; }
};

/// The paper's rule: prefetch exclusively all items with p > p_th, where
/// p_th = ρ' (Model A) or ρ' + h'/n̄(C) (Model B), computed from the
/// context's current parameter estimate on every decision.
class ThresholdPolicy final : public PrefetchPolicy {
 public:
  explicit ThresholdPolicy(core::InteractionModel model)
      : model_(model) {}

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& ctx) override;

  std::string name() const override {
    return model_ == core::InteractionModel::kModelA ? "threshold-A"
                                                     : "threshold-B";
  }

  /// Threshold the policy would use under `ctx`.
  double threshold(const PolicyContext& ctx) const;

 private:
  core::InteractionModel model_;
};

/// Static heuristic: prefetch everything with p > θ for a fixed θ,
/// regardless of load — what §1 calls the usual "simple heuristic".
class FixedThresholdPolicy final : public PrefetchPolicy {
 public:
  explicit FixedThresholdPolicy(double theta);

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& ctx) override;

  std::string name() const override;

 private:
  double theta_;
};

/// Budget heuristic: always prefetch the k most probable candidates.
class TopKPolicy final : public PrefetchPolicy {
 public:
  explicit TopKPolicy(std::size_t k);

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& ctx) override;

  std::string name() const override;

 private:
  std::size_t k_;
};

/// Threshold rule with a utilisation cap — the QoS-flavoured variant the
/// paper's conclusion gestures at for multimedia access. Selects candidates
/// with p > p_th (like ThresholdPolicy) but caps the batch so the predicted
/// post-prefetch utilisation stays within `max_utilization`, reserving
/// capacity headroom for the delay variance and in-flight effects that the
/// mean-value closed forms ignore (and which bite precisely as ρ → 1; see
/// EXPERIMENTS.md "Full-stack deviations").
class QosThresholdPolicy final : public PrefetchPolicy {
 public:
  QosThresholdPolicy(core::InteractionModel model, double max_utilization);

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& ctx) override;

  std::string name() const override;

 private:
  core::InteractionModel model_;
  double max_utilization_;
};

/// Adaptive cost-ratio policy in the spirit of Jiang & Kleinrock [3]:
/// prefetch when the expected saving in user wait outweighs the weighted
/// network time spent, i.e. p·r̄' > ω·x/(1−ρ') ⟺ p > ω·ρ'/f'... reduced
/// here to the decision p > ω·ρ' with a tunable network-cost weight ω.
/// ω = 1 coincides with the paper's Model A threshold; ω > 1 is more
/// conservative, ω < 1 more aggressive.
class AdaptiveCostPolicy final : public PrefetchPolicy {
 public:
  explicit AdaptiveCostPolicy(double network_weight);

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& ctx) override;

  std::string name() const override;

 private:
  double network_weight_;
};

/// Fresh policy instance by CLI-friendly name: none, threshold-a,
/// threshold-b, fixed-<theta>, topk-<k>, adaptive-<w>, qos-<rho>. Returns
/// nullptr for unknown names, including a suffix that does not parse as a
/// whole (`fixed-0.05x`), is not finite, is not an integer for topk, or
/// lies outside what the policy's constructor accepts (`topk-0`,
/// `fixed-1.5`). Shared by the examples and the sharded driver's per-shard
/// factories so name→policy mappings cannot drift.
std::unique_ptr<PrefetchPolicy> make_policy_by_name(const std::string& name);

}  // namespace specpf
