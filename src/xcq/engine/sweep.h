#ifndef XCQ_ENGINE_SWEEP_H_
#define XCQ_ENGINE_SWEEP_H_

/// \file sweep.h
/// Shared traversal state for the axis sweeps (docs/INTERNALS.md §8,
/// §9.5).
///
/// The region-gated kernels replace the DFS of Fig. 4 with
/// *height-band* sweeps: `height(v)` (longest path to a leaf) strictly
/// decreases along every edge, so all vertices of one height can be
/// decided in any order once every higher band is final — downward
/// axes walk bands root-first, upward axes leaf-first. A `SweepPlan`
/// carries the reachable set and the bands.
///
/// The plan *is* the instance's memoized `TraversalCache`: building it
/// used to cost one full `PostOrder()` walk per axis op, which
/// dominated short queries; now every op on a structurally unchanged
/// instance reads the same cached order/bands, and only a mutation
/// (split, edge rewrite, root move) triggers a rebuild on the next
/// read. Everything in the plan is derived deterministically from the
/// instance.
///
/// Lifetime: the returned reference stays valid until a structural
/// mutation *followed by* another `EnsureTraversal` read. The kernels
/// take the plan once up front and may then mutate the instance
/// (splits, re-points) while still iterating the now-stale snapshot —
/// sound because nothing in a kernel re-reads the cache mid-sweep, and
/// exactly the snapshot semantics the pre-cache code had.

#include <cstdint>
#include <vector>

#include "xcq/instance/instance.h"

namespace xcq::engine {

/// The memoized traversal doubles as the sweep plan: `order`
/// (post-order), `height` / `bands` when requested.
using SweepPlan = TraversalCache;

/// \brief Reads the plan from the instance's traversal cache,
/// (re)building it only if the structure changed; heights and bands
/// cost one extra O(V + E) pass on first request per generation.
inline const SweepPlan& BuildSweepPlan(const Instance& instance,
                                       bool need_heights) {
  return instance.EnsureTraversal(need_heights);
}

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_SWEEP_H_
