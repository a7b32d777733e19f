// Test-only reference backends: the pre-arena per-user TaggedCache fleet and
// the virtual Predictor tables, adapted to the CachePlane / PredictorPlane
// interfaces the stack runs on. Built into the specpf_reference library
// (tests only, never linked into specpf) so the arena planes can still be
// fuzzed against the implementations they replaced. The full-stack results
// these backends produced are frozen in tests/stack_digests.inc.
#pragma once

#include <memory>

#include "cache/cache_plane.hpp"
#include "predict/predictor_plane.hpp"

namespace specpf {

/// One heap TaggedCache per user, constructed exactly as the pre-arena
/// StackRuntime did (random policy: per-user seed root.substream(100 + u)).
std::unique_ptr<CachePlane> make_legacy_cache_plane(
    CacheKind kind, const CachePlaneConfig& config);

/// The virtual Predictor table for `kind` behind the plane interface.
std::unique_ptr<PredictorPlane> make_legacy_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config);

}  // namespace specpf
