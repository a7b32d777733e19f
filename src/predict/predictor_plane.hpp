// PredictorPlane — the slab-backed SoA access-model layer behind
// StackRuntime, built the way cache/cache_plane.hpp rebuilt the caches.
//
// One plane owns a predictor's entire table state in a shared ContextArena
// (predict/context_arena.hpp): contexts named by structure — by an item,
// by a successor slot of a parent context, or as the one root — with no
// hashed context keys; each context's successors in one contiguous block
// of a shared pool; counts quantized to saturating u16 counters with
// periodic halving; and per-user state in user-indexed slabs (Markov's
// last item id, PPM's refs into its context trie, the dependency graph's
// window ring).
// Prediction writes into a caller-provided scratch buffer (predict_into),
// so the stack's hot path does zero allocation per request. Markov and
// frequency read their top-k off a RankedPrefix (predict/ranked_prefix.hpp)
// kept in rank order as counts move; the blending and clipping models rank
// with a partial top-k select instead of a full sort.
//
// make_predictor_plane dispatches once per run to one concrete class per
// PredictorKind, exactly like make_cache_plane.
//
// Below the counter-saturation point every plane computes the same
// arithmetic as the pre-arena virtual tables kept in tests/reference/;
// tests/predict_plane_test.cpp fuzzes bit-identical predict output against
// them and tests/stack_digests.inc freezes the full-stack results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/planner.hpp"
#include "predict/factory.hpp"
#include "util/audit.hpp"
#include "util/ids.hpp"

namespace specpf {

class SessionGraph;  // workload/session_graph.hpp (oracle backend only)

struct PredictorPlaneConfig {
  /// Users are dense ids in [0, num_users); per-user history lives in a
  /// user-indexed slab, so the plane must know the fleet size up front.
  std::size_t num_users = 1;
  std::size_t ppm_order = 3;            ///< PPM: longest context length
  std::size_t depgraph_lookahead = 4;   ///< dependency graph window w
  /// Generating graph, required for kOracle (borrowed; must outlive the
  /// plane). Ignored by every other kind.
  const SessionGraph* graph = nullptr;
};

class PredictorPlane {
 public:
  virtual ~PredictorPlane() = default;

  /// Feeds one observed access into the model.
  virtual void observe(UserId user, std::uint64_t item) = 0;

  /// Predicts the next-access distribution for `user` after their latest
  /// observed access, replacing the contents of `out`: at most
  /// `max_candidates` entries, highest probability first (probability ties
  /// broken by ascending item). `out` may be left empty when the model has
  /// no basis for prediction. Reusing one buffer across calls makes the
  /// steady state allocation-free.
  virtual void predict_into(UserId user, std::size_t max_candidates,
                            std::vector<core::Candidate>& out) const = 0;

  /// Convenience wrapper for tests and reports (allocates; the stack's hot
  /// path uses predict_into with a reused scratch buffer).
  std::vector<core::Candidate> predict(UserId user,
                                       std::size_t max_candidates) const {
    std::vector<core::Candidate> out;
    predict_into(user, max_candidates, out);
    return out;
  }

  /// Counter-halving events so far (0 for planes without counters).
  virtual std::uint64_t counter_halvings() const { return 0; }

  /// Distinct contexts created in the plane's ContextArena (0 for planes
  /// without one) — the occupancy gauge the telemetry plane samples.
  virtual std::uint64_t context_count() const { return 0; }

  /// Deep-invariant sweep (util/audit.hpp): the arena planes walk their
  /// ContextArena (block bounds and pool conservation, context naming,
  /// interning round-trips, index health), PPM also its per-user trie refs,
  /// and Markov and frequency also check every ranked prefix against their
  /// blocks. The stateless oracle has nothing slab-backed to walk —
  /// default no-op.
  virtual void audit(AuditReport& /*report*/) const {}
};

/// Builds the predictor plane for `kind`. This switch is the once-per-run
/// model dispatch — everything after it is monomorphic (one virtual hop
/// into the plane per observe/predict, total).
std::unique_ptr<PredictorPlane> make_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config);

}  // namespace specpf
