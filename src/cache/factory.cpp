#include "cache/factory.hpp"

#include "util/contract.hpp"

namespace specpf {

const char* cache_kind_name(CacheKind kind) {
  switch (kind) {
    case CacheKind::kLru:
      return "lru";
    case CacheKind::kLfu:
      return "lfu";
    case CacheKind::kFifo:
      return "fifo";
    case CacheKind::kClock:
      return "clock";
    case CacheKind::kRandom:
      return "random";
  }
  SPECPF_ASSERT(false && "unknown cache kind");
  return "?";
}

}  // namespace specpf
