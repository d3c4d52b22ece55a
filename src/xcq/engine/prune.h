#ifndef XCQ_ENGINE_PRUNE_H_
#define XCQ_ENGINE_PRUNE_H_

/// \file prune.h
/// Path-summary sweep pruning (docs/INTERNALS.md §9).
///
/// The evaluator interprets each plan abstractly over the instance's
/// path summary (Instance::EnsurePathSummary): every op gets an
/// *admissible node set* — summary paths its selection can possibly
/// lie on — computed by the same transfer the concrete op applies,
/// intersected down the plan. Before a concrete axis sweep, the
/// admissible sets of its source and destination are turned into a
/// *vertex region*: the set of vertices the deterministic banded /
/// phased kernels must visit to produce an instance bit-identical to
/// the unpruned sweep (same bits, same splits in the same order, same
/// re-pointed edges). Everything outside the region is provably
/// untouched: its destination bits stay 0, it never splits, and its
/// edge lists are rewritten (if at all) to identical content, which
/// `Instance::SetEdges` already treats as a no-op.
///
/// The soundness invariant maintained by every evaluator column: if a
/// relation bit is set on vertex v, then *all* tree occurrences of v
/// are selected, so v's entire realized path set lies inside the op's
/// admissible set. Region construction closes the admissible sets
/// under trie-parents of the realized paths, which covers exactly the
/// demand-0 completions (fringe parents, sibling lists) the kernels
/// need for split parity; see INTERNALS.md §9 for the argument.

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "xcq/algebra/op.h"
#include "xcq/engine/evaluator.h"
#include "xcq/instance/instance.h"
#include "xcq/util/bitset.h"

namespace xcq::engine {

/// \brief Which kernel family a sweep belongs to (drives the region
/// closure: downward needs fringe parents, sibling needs list owners,
/// upward needs only the receivers).
enum class SweepKind { kUpward, kDownward, kSibling };

/// \brief Region family for `axis`. kSelf (a column copy, never swept)
/// maps to kUpward but is never gated; kFollowing/kPreceding are
/// composed of three staged sweeps, each gated separately.
SweepKind SweepKindFor(xpath::Axis axis);

/// \brief Verdict for one concrete sweep.
struct PruneGate {
  /// The sweep cannot select or split anything: skip it outright (the
  /// destination column stays all-zero, exactly the unpruned result).
  bool skip = false;
  /// Vertex region to restrict the kernel to; null = sweep everything
  /// (pruning unavailable). Borrowed from the issuing pruner or the
  /// instance's gate memo, and valid until the pruner's next gate.
  const DynamicBitset* region = nullptr;
  /// Number of vertices in `region` (0 when null or skipped).
  uint64_t region_vertices = 0;
};

/// \brief Region machinery over one bound summary: turns admissible
/// node sets into vertex regions. The binding tolerates mid-plan
/// splits (which only add clone vertices): bind-time realization
/// slices stay supersets for pre-existing vertices, and Realize admits
/// every post-bind vertex unconditionally. Callers re-Bind only when
/// the label schema changes or vertices are renumbered.
class SummaryRegions {
 public:
  /// Binds to `instance.EnsurePathSummary()` (building it if needed).
  /// Inactive when the summary is saturated or the instance is empty.
  void Bind(const Instance& instance);
  /// Binds to `summary` as built over the first `bound_vertices`
  /// vertices, even if splits have made it stale since: the same ride
  /// as a binding that outlives mid-plan splits.
  void Bind(const Instance& instance, const PathSummary& summary,
            size_t bound_vertices);

  bool active() const { return active_; }
  const PathSummary& summary() const { return *summary_; }
  /// Instance vertex count at Bind time (0 while inactive).
  size_t bound_vertices() const { return bound_vertices_; }

  /// Computes the gate for one sweep from the admissible node sets of
  /// its source and destination (sized to the summary's node count).
  /// The returned region pointer is invalidated by the next Gate call.
  PruneGate Gate(SweepKind kind, const DynamicBitset& src_nodes,
                 const DynamicBitset& dst_nodes);

 private:
  /// Sets `region_` to the vertices realizing a node in `want` and
  /// returns their count.
  uint64_t Realize(const DynamicBitset& want);
  /// Collects into `collected_` every node realized by a vertex that
  /// realizes a node in `base` (the paths of the base region).
  void CollectRealized(const DynamicBitset& base);

  const Instance* instance_ = nullptr;
  const PathSummary* summary_ = nullptr;
  bool active_ = false;
  size_t bound_vertices_ = 0;  ///< vertex count at Bind time
  DynamicBitset base_;       ///< node-set scratch
  DynamicBitset collected_;  ///< node-set scratch
  DynamicBitset region_;     ///< vertex region handed out via PruneGate
};

/// \brief The admissible node sets of one compiled plan over one bound
/// summary — a pure function of (summary, plan, options), recomputed
/// wholesale after a summary rebuild (node ids renumber).
class PlanAbstract {
 public:
  void Compute(const Instance& instance, const PathSummary& summary,
               const algebra::QueryPlan& plan, const EvalOptions& options);

  /// Admissible set of op `i`'s selection.
  const DynamicBitset& OpSet(size_t i) const { return op_sets_[i]; }

  /// Stage outputs for composed kFollowing/kPreceding ops: stage 0 =
  /// ancestor-or-self, stage 1 = sibling, stage 2 = OpSet(i).
  const DynamicBitset& StageSet(size_t i, int stage) const;

 private:
  std::vector<DynamicBitset> op_sets_;
  /// {aos, sibling} outputs, present only for composed-axis ops.
  std::map<size_t, std::array<DynamicBitset, 2>> stage_sets_;
};

/// \brief Per-query pruner driven by the evaluator: keeps the summary
/// binding and the plan's abstract sets in sync and issues gates per
/// sweep. Mid-plan splits bump the structure generation but leave the
/// binding usable (clones realize subsets of existing paths and old
/// vertices never gain incoming edges), so the pruner rides out the
/// drift instead of rebuilding the summary per split; only a label
/// schema change or vertex renumbering forces a re-bind.
///
/// Gates are served from the instance's GateMemo first: a plan seen on
/// the current summary gets its stored gates without binding, computing
/// abstract sets, or scanning realizations — and without allocating.
/// A gate computed on a miss is stored only while the instance is still
/// at the summary's generation (no split since the bind).
class PlanPruner {
 public:
  /// `bind_seconds` (nullable) accumulates the time spent (re)binding:
  /// the summary bind plus the plan's abstract interpretation.
  PlanPruner(Instance* instance, const algebra::QueryPlan* plan,
             const EvalOptions* options, double* bind_seconds = nullptr);

  /// Pruning is available (summary built, not saturated).
  bool active() const {
    return entry_ != nullptr ? entry_->active : regions_.active();
  }

  /// Gate for the single sweep of a plain-axis op.
  PruneGate AxisGate(size_t op_index) { return Issue(op_index, -1); }

  /// Gate for stage 0/1/2 of a composed kFollowing/kPreceding op:
  /// ancestor-or-self, sibling, descendant-or-self.
  PruneGate StageGate(size_t op_index, int stage) {
    return Issue(op_index, stage);
  }

  /// Summary nodes behind the issued gates (0 while inactive).
  uint64_t summary_nodes() const {
    return active() ? summary_->nodes.size() : 0;
  }

  /// Full (re)binds so far: summary bind plus abstract interpretation.
  /// 0 when every gate came from the memo.
  uint64_t binds() const { return binds_; }

 private:
  /// Memo lookup, else Sync + compute (+ store while still exact).
  PruneGate Issue(size_t op_index, int stage);
  /// Looks the plan up in the memo (first gate only).
  void Attach();
  /// Re-binds if the instance's summary went stale, charging the bind
  /// to `bind_seconds`. Returns regions_.active().
  bool Sync();
  PruneGate Compute(size_t op_index, int stage);
  /// The stored gate as a PruneGate; post-bind clones (a split since the
  /// memo's generation) are admitted unconditionally, as Realize does.
  PruneGate FromMemo(const GateMemo::Gate& stored);

  Instance* instance_;
  const algebra::QueryPlan* plan_;
  const EvalOptions* options_;
  double* bind_seconds_;
  SummaryRegions regions_;
  PlanAbstract abstract_;
  uint64_t bound_generation_ = 0;
  uint64_t bound_fingerprint_ = 0;
  bool bound_ = false;
  uint64_t binds_ = 0;

  bool attached_ = false;
  uint64_t hash_ = 0;  ///< GateMemo::Hash of this plan's key.
  /// This plan's memo entry; null until found or first stored.
  GateMemo::Entry* entry_ = nullptr;
  /// Summary behind active gates (the memo's at Attach, else the bound
  /// one), with its vertex count and label fingerprint.
  const PathSummary* summary_ = nullptr;
  size_t summary_vertices_ = 0;
  uint64_t summary_fingerprint_ = 0;
  /// A stored region grown over post-bind clones (mid-plan splits).
  DynamicBitset grown_;
};

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_PRUNE_H_
