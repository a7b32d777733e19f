#include "core/no_prefetch.hpp"

#include "util/contract.hpp"

namespace specpf::core {

NoPrefetchResult analyze_no_prefetch(const SystemParams& params) {
  params.validate();
  expect_valid(params.check_stable());

  NoPrefetchResult out;
  out.utilization = params.utilization_no_prefetch();
  // Eq. (4): r̄' = s̄ / (b(1-ρ')).
  out.retrieval_time =
      params.mean_item_size / (params.bandwidth * (1.0 - out.utilization));
  // Eq. (5): t̄' = (1-h')·r̄' = f's̄ / (b - f'λs̄).
  out.access_time = params.fault_ratio() * out.retrieval_time;
  return out;
}

}  // namespace specpf::core
