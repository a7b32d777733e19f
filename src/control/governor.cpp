#include "control/governor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/contract.hpp"
#include "util/parse.hpp"

namespace specpf {

// --- token bucket -----------------------------------------------------------

TokenBucketGovernor::TokenBucketGovernor(const GovernorConfig& config)
    : rate_(config.token_rate),
      burst_(config.token_rate * config.token_burst_seconds),
      buckets_(config.token_groups) {
  SPECPF_EXPECTS(config.token_rate > 0.0);
  SPECPF_EXPECTS(config.token_burst_seconds > 0.0);
  SPECPF_EXPECTS(config.token_groups >= 1);
  for (Bucket& b : buckets_) b.tokens = burst_;
}

std::string TokenBucketGovernor::name() const {
  std::ostringstream os;
  os << "token-" << rate_;
  return os.str();
}

bool TokenBucketGovernor::admit(double now, UserId user, const core::Candidate&,
                                double size, const LoadSignals&) {
  Bucket& b = buckets_[user % buckets_.size()];
  if (now > b.last_refill) {
    b.tokens = std::min(burst_, b.tokens + rate_ * (now - b.last_refill));
    b.last_refill = now;
  }
  if (b.tokens < size) return false;
  b.tokens -= size;
  return true;
}

// --- AIMD threshold scaling -------------------------------------------------

AimdGovernor::AimdGovernor(const GovernorConfig& config) : config_(config) {
  SPECPF_EXPECTS(config.aimd_setpoint > 0.0);
  SPECPF_EXPECTS(config.aimd_interval > 0.0);
  SPECPF_EXPECTS(config.aimd_mult > 1.0);
  SPECPF_EXPECTS(config.aimd_decrease > 0.0);
  SPECPF_EXPECTS(config.aimd_kick > 0.0 && config.aimd_kick <= 1.0);
  SPECPF_EXPECTS(config.aimd_ceiling > 0.0 && config.aimd_ceiling <= 1.0);
}

std::string AimdGovernor::name() const {
  std::ostringstream os;
  os << "aimd-" << config_.aimd_setpoint;
  return os.str();
}

void AimdGovernor::maybe_adjust(double now, double slowdown) {
  if (!have_last_) {
    have_last_ = true;
    last_adjust_ = now;
    return;
  }
  if (now - last_adjust_ < config_.aimd_interval) return;
  last_adjust_ = now;
  if (slowdown > config_.aimd_setpoint) {
    // Congested: multiplicative step up (θ_g = 0 kicks to aimd_kick first —
    // multiplying zero would never move).
    theta_ = std::min(config_.aimd_ceiling,
                      std::max(config_.aimd_kick, theta_ * config_.aimd_mult));
  } else {
    // Calm: additive decay back toward admitting what the policy chose.
    theta_ = std::max(0.0, theta_ - config_.aimd_decrease);
  }
}

bool AimdGovernor::admit(double now, UserId, const core::Candidate& candidate,
                         double, const LoadSignals& load) {
  // React to the worse of the local link and the fleet-wide signal the
  // epoch barrier pushed in (0 until the first exchange — inert).
  maybe_adjust(now, std::max(load.slowdown, fleet_signal_));
  return candidate.probability > theta_;
}

// --- confidence-gated depth -------------------------------------------------

ConfidenceGovernor::ConfidenceGovernor(const GovernorConfig& config)
    : config_(config), precision_(config.conf_alpha, 1.0) {
  SPECPF_EXPECTS(config.conf_alpha > 0.0 && config.conf_alpha <= 1.0);
  SPECPF_EXPECTS(config.conf_low >= 0.0);
  SPECPF_EXPECTS(config.conf_high > config.conf_low);
}

std::string ConfidenceGovernor::name() const {
  std::ostringstream os;
  os << "conf-" << config_.conf_high;
  return os.str();
}

std::size_t ConfidenceGovernor::depth_limit(std::size_t configured) const {
  const double p = precision_.value();
  if (p >= config_.conf_high) return configured;
  const double fraction = std::max(
      0.0, (p - config_.conf_low) / (config_.conf_high - config_.conf_low));
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(configured) * fraction));
}

// --- factory ----------------------------------------------------------------

namespace {

/// `<prefix><number>` with a finite, positive number — the domain every
/// governor knob shares (rate, setpoint and precision bound are all > 0).
bool positive_suffix(const std::string& name, const char* prefix,
                     double* out) {
  return parse_name_suffix(name, prefix, out) && *out > 0.0;
}

}  // namespace

bool is_governor_name(const std::string& name) {
  if (name == "noop") return true;
  double v = 0.0;
  return positive_suffix(name, "token-", &v) ||
         positive_suffix(name, "aimd-", &v) ||
         positive_suffix(name, "conf-", &v);
}

std::unique_ptr<PrefetchGovernor> make_governor_by_name(
    const std::string& name, const GovernorConfig& config) {
  if (name == "noop") return std::make_unique<NoopGovernor>();
  double v = 0.0;
  if (positive_suffix(name, "token-", &v)) {
    GovernorConfig c = config;
    c.token_rate = v;
    return std::make_unique<TokenBucketGovernor>(c);
  }
  if (positive_suffix(name, "aimd-", &v)) {
    GovernorConfig c = config;
    c.aimd_setpoint = v;
    return std::make_unique<AimdGovernor>(c);
  }
  if (positive_suffix(name, "conf-", &v)) {
    GovernorConfig c = config;
    c.conf_high = v;
    return std::make_unique<ConfidenceGovernor>(c);
  }
  return nullptr;
}

}  // namespace specpf
