// Path-summary pruned sweeps (docs/INTERNALS.md §9).
//
// The contract under test: evaluation with `prune_sweeps` on is
// *bit-identical* to the full-sweep oracle — same answers, same splits,
// same resulting instance — for every corpus and minimize mode, while visiting no more vertices than the full sweep.
// The summary itself is pinned against an independent oracle (every
// realized (vertex, path) pair recomputed by walking the DAG), and its
// validity tracking across structural and non-structural mutations is
// pinned explicitly: rebuilt after splits and in-place minimization,
// kept across edge compaction and relation-bit churn.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/util/rng.h"

namespace xcq {
namespace {

Instance CompressAllTags(const std::string& xml) {
  CompressOptions options;  // LabelMode::kAllTags by default
  auto result = CompressXml(xml, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).Value();
}

/// The summary label of `v`: the sorted ids of the live, named, non-xcq
/// relations whose column holds v — recomputed from the schema, not
/// from the summary's interned tables.
std::vector<RelationId> OracleLabel(const Instance& instance, VertexId v) {
  std::vector<RelationId> label;
  for (const RelationId r : instance.LiveRelations()) {
    const std::string& name = instance.schema().Name(r);
    if (name.empty() || name.rfind("xcq:", 0) == 0) continue;
    const DynamicBitset& column = instance.RelationBits(r);
    if (v < column.size() && column.Test(v)) label.push_back(r);
  }
  std::sort(label.begin(), label.end());
  return label;
}

/// Recomputes every (vertex, summary node) realization pair by walking
/// the DAG from the root, following trie edges by child label, and
/// asserts the summary's CSR slices hold exactly those pairs.
void ExpectSummaryMatchesOracle(const Instance& instance) {
  const PathSummary& s = instance.EnsurePathSummary();
  ASSERT_FALSE(s.saturated);
  ASSERT_TRUE(instance.path_summary_valid());
  const size_t n = instance.vertex_count();
  ASSERT_EQ(s.vertex_begin.size(), n + 1);

  const auto trie_child = [&](uint32_t parent,
                              const std::vector<RelationId>& label) {
    for (uint32_t j = 0; j < s.nodes.size(); ++j) {
      if (s.nodes[j].parent == parent && s.labels[s.nodes[j].label] == label) {
        return j;
      }
    }
    return PathSummary::kNoNode;
  };

  std::vector<std::set<uint32_t>> expected(n);
  std::set<std::pair<VertexId, uint32_t>> seen;
  std::vector<std::pair<VertexId, uint32_t>> work;
  if (instance.root() != kNoVertex && !s.nodes.empty()) {
    const uint32_t root_node =
        trie_child(PathSummary::kNoNode, OracleLabel(instance, instance.root()));
    ASSERT_NE(root_node, PathSummary::kNoNode)
        << "root path missing from the summary";
    ASSERT_EQ(root_node, 0u) << "root path must be node 0";
    work.emplace_back(instance.root(), root_node);
    seen.insert(work.back());
  }
  while (!work.empty()) {
    const auto [v, node] = work.back();
    work.pop_back();
    expected[v].insert(node);
    for (const Edge& e : instance.Children(v)) {
      const uint32_t child_node =
          trie_child(node, OracleLabel(instance, e.child));
      ASSERT_NE(child_node, PathSummary::kNoNode)
          << "path of vertex " << e.child << " missing from the summary";
      if (seen.insert({e.child, child_node}).second) {
        work.emplace_back(e.child, child_node);
      }
    }
  }

  for (size_t v = 0; v < n; ++v) {
    const std::set<uint32_t> realized(
        s.vertex_nodes.begin() + s.vertex_begin[v],
        s.vertex_nodes.begin() + s.vertex_begin[v + 1]);
    ASSERT_EQ(realized, expected[v]) << "vertex " << v;
  }
}

SessionOptions PruningOptions(bool prune, bool minimize) {
  SessionOptions options;
  options.prune_sweeps = prune;
  options.minimize_after_query = minimize;
  options.incremental_minimize = minimize;
  return options;
}

/// Runs `queries` through two lockstep sessions — pruned and the
/// full-sweep oracle — and asserts bit-level agreement after every
/// query: answers, splits, the reachable structure the query left
/// behind, and (with `minimize`) the re-minimized structure. Also
/// checks the pruning counters stay on their own side: the oracle never
/// prunes, the pruned run never visits more than the full sweep would.
void ExpectPrunedMatchesUnpruned(const std::string& xml,
                                 const std::vector<std::string>& queries,
                                 bool minimize,
                                 uint64_t* pruned_or_skipped = nullptr) {
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession pruned,
      QuerySession::Open(xml, PruningOptions(true, minimize)));
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession oracle,
      QuerySession::Open(xml, PruningOptions(false, minimize)));

  uint64_t restricted = 0;
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome p, pruned.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome o, oracle.Run(query));

    EXPECT_EQ(p.selected_tree_nodes, o.selected_tree_nodes);
    EXPECT_EQ(p.selected_dag_nodes, o.selected_dag_nodes);
    EXPECT_EQ(p.stats.splits, o.stats.splits);
    // Pre-minimize structure after the sweep (Evaluate measures before
    // any session re-minimization).
    EXPECT_EQ(p.stats.vertices_after, o.stats.vertices_after);
    EXPECT_EQ(p.stats.edges_after, o.stats.edges_after);

    EXPECT_EQ(o.stats.pruned_sweeps, 0u);
    EXPECT_EQ(o.stats.skipped_sweeps, 0u);
    EXPECT_EQ(o.stats.summary_builds, 0u);
    EXPECT_LE(p.stats.sweep_visited, p.stats.sweep_full);
    restricted += p.stats.pruned_sweeps + p.stats.skipped_sweeps;

    // Post-minimize (or just post-query) structure.
    EXPECT_EQ(pruned.instance().ReachableCount(),
              oracle.instance().ReachableCount());
    EXPECT_EQ(pruned.instance().ReachableEdgeCount(),
              oracle.instance().ReachableEdgeCount());
    const RelationId rp =
        pruned.instance().FindRelation(engine::kResultRelation);
    const RelationId ro =
        oracle.instance().FindRelation(engine::kResultRelation);
    ASSERT_NE(rp, kNoRelation);
    ASSERT_NE(ro, kNoRelation);
    EXPECT_EQ(SelectedTreeNodeCount(pruned.instance(), rp),
              SelectedTreeNodeCount(oracle.instance(), ro));
  }
  XCQ_ASSERT_OK(pruned.instance().Validate());
  if (pruned_or_skipped != nullptr) *pruned_or_skipped = restricted;
}

/// The generic mix: recursive descent, splitting sibling walks, and an
/// upward tail — the same pool the traversal-cache oracle drives.
std::vector<std::string> QueryPool(std::string_view corpus_name) {
  std::vector<std::string> pool = {
      "//*/following-sibling::*",
      "//*",
      "/*",
      "//*/preceding-sibling::*/parent::*",
  };
  const Result<corpus::QuerySet> set = corpus::QueriesFor(corpus_name);
  if (set.ok()) {
    for (const std::string_view q : set->queries) pool.emplace_back(q);
  }
  return pool;
}

TEST(PrunedSweepEquivalenceTest, RandomizedSequencesOverEveryCorpus) {
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 900;
    gen.seed = 31 + corpus_index;
    const std::string xml = generator->Generate(gen);

    const std::vector<std::string> pool = QueryPool(generator->name());
    Rng rng(4321 + corpus_index);
    std::vector<std::string> sequence;
    for (int i = 0; i < 6; ++i) sequence.push_back(rng.Pick(pool));

    uint64_t restricted = 0;
    ExpectPrunedMatchesUnpruned(xml, sequence, /*minimize=*/false,
                                &restricted);
    ExpectPrunedMatchesUnpruned(xml, sequence, /*minimize=*/true);
    // The corpora are small enough that the summary never saturates:
    // pruning must actually have engaged somewhere in the sequence.
    EXPECT_GT(restricted, 0u) << "pruning never engaged";
    ++corpus_index;
  }
}

TEST(PrunedSweepEquivalenceTest, SessionVerifyOracleHoldsOverEveryCorpus) {
  // The built-in verify_pruned_sweeps oracle re-runs every query
  // unpruned on a snapshot and fails the query on any divergence —
  // driving it over every corpus is the acceptance check that the
  // shipped verification mode itself works.
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 600;
    gen.seed = 131 + corpus_index;
    const std::string xml = generator->Generate(gen);

    const std::vector<std::string> pool = QueryPool(generator->name());
    Rng rng(99 + corpus_index);
    SessionOptions options = PruningOptions(true, false);
    options.verify_pruned_sweeps = true;
    XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                             QuerySession::Open(xml, options));
    for (int i = 0; i < 4; ++i) {
      const std::string query = rng.Pick(pool);
      SCOPED_TRACE(query);
      XCQ_ASSERT_OK(session.Run(query).status());
    }
    ++corpus_index;
  }
}

TEST(PathSummaryTest, MatchesOracleOnExampleAndAfterSplits) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  ExpectSummaryMatchesOracle(instance);

  // Split something (sibling axis on a repetitive document), then the
  // rebuilt summary must match the oracle on the grown DAG too.
  Instance rep = CompressAllTags(
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>");
  ExpectSummaryMatchesOracle(rep);
  XCQ_ASSERT_OK_AND_ASSIGN(
      const algebra::QueryPlan plan,
      algebra::CompileString("//b/following-sibling::b"));
  engine::EvalStats stats;
  XCQ_ASSERT_OK(
      engine::Evaluate(&rep, plan, engine::EvalOptions{}, &stats).status());
  ExpectSummaryMatchesOracle(rep);
  XCQ_ASSERT_OK(rep.Validate());
}

TEST(PathSummaryTest, ColdBuildThenWarmReuse) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  // `/bib/book` runs a gated child sweep (a bare `//label` from the
  // root is answered closed-form without consulting the summary), and
  // book vertices occur only as children of the selected root, so the
  // plan cannot split and the second evaluation sees untouched
  // structure.
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("/bib/book"));

  // Cold: the first pruned evaluation pays exactly one summary build.
  engine::EvalStats cold;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &cold)
          .status());
  EXPECT_EQ(cold.summary_builds, 1u);
  EXPECT_GT(cold.summary_nodes, 0u);

  // Warm: a non-splitting plan left the structure alone, so the next
  // evaluation reuses the summary without rebuilding.
  EXPECT_TRUE(instance.path_summary_valid());
  engine::EvalStats warm;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &warm)
          .status());
  EXPECT_EQ(warm.summary_builds, 0u);
  EXPECT_EQ(warm.summary_nodes, cold.summary_nodes);
  EXPECT_EQ(warm.sweep_visited, cold.sweep_visited);
  EXPECT_EQ(instance.path_summary_builds(), 1u);
}

TEST(PathSummaryTest, ValidityTracksStructureAndSchema) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  (void)instance.EnsurePathSummary();
  EXPECT_TRUE(instance.path_summary_valid());
  const uint64_t builds = instance.path_summary_builds();

  // Repeated reads do not rebuild.
  (void)instance.EnsurePathSummary();
  EXPECT_EQ(instance.path_summary_builds(), builds);

  // Non-structural churn keeps it valid: scratch columns, xcq: result
  // relations, edge compaction, identical rewrites.
  const RelationId scratch = instance.AcquireScratchRelation();
  instance.SetBit(scratch, instance.root());
  instance.ReleaseScratchRelation(scratch);
  instance.CompactEdges();
  std::vector<Edge> same(instance.Children(instance.root()).begin(),
                         instance.Children(instance.root()).end());
  instance.SetEdges(instance.root(), same);
  EXPECT_TRUE(instance.path_summary_valid());
  EXPECT_EQ(instance.path_summary_builds(), builds);

  // A structural mutation invalidates; the next Ensure rebuilds.
  const VertexId clone = instance.CloneVertex(instance.root());
  (void)clone;
  EXPECT_FALSE(instance.path_summary_valid());
  (void)instance.EnsurePathSummary();
  EXPECT_EQ(instance.path_summary_builds(), builds + 1);
  EXPECT_TRUE(instance.path_summary_valid());

  // A *label schema* change invalidates even without a structure bump:
  // the label alphabet the trie was interned over is gone.
  const RelationId added = instance.AddRelation("brand-new-tag");
  instance.SetBit(added, instance.root());
  EXPECT_FALSE(instance.path_summary_valid());
  (void)instance.EnsurePathSummary();
  EXPECT_TRUE(instance.path_summary_valid());
  EXPECT_EQ(instance.path_summary_builds(), builds + 2);
}

TEST(PathSummaryTest, InvalidatedByInPlaceMinimizeThatChangesStructure) {
  // A splitting query grows the DAG; with minimize_after_query the
  // in-place pass re-compresses it. Both steps are structural: a
  // summary bound before the query must be stale after it, and the next
  // pruned query must rebuild against the minimized DAG and still agree
  // with the oracle.
  const std::string xml =
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>";
  SessionOptions options = PruningOptions(true, true);
  options.verify_pruned_sweeps = true;
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(xml, options));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome split,
                           session.Run("//b/following-sibling::b"));
  EXPECT_GT(split.stats.splits, 0u);
  EXPECT_GE(split.stats.summary_builds, 1u);
  ExpectSummaryMatchesOracle(session.instance());

  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome next, session.Run("//a/b"));
  EXPECT_GE(next.stats.summary_builds, 1u)
      << "minimize changed the structure; the summary must rebuild";
  ExpectSummaryMatchesOracle(session.instance());
}

TEST(PrunedSweepStatsTest, RecursiveDescentVisitsLessThanFullSweep) {
  // A label-targeted recursive query on a corpus with many labels must
  // actually save work, not just match the oracle: the pruned sweeps
  // visit a strict subset of what the full sweeps walk.
  corpus::GenerateOptions gen;
  gen.target_nodes = 2000;
  gen.seed = 7;
  const std::string xml = corpus::Shakespeare().Generate(gen);
  SessionOptions options = PruningOptions(true, false);
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(xml, options));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                           session.Run("//SPEECH/SPEAKER"));
  EXPECT_GT(outcome.stats.pruned_sweeps + outcome.stats.skipped_sweeps, 0u);
  EXPECT_LT(outcome.stats.sweep_visited, outcome.stats.sweep_full);
}

// --- Gate memo (docs/INTERNALS.md §9.6) -------------------------------------

void ExpectSameFamilyCounters(const engine::EvalStats& a,
                              const engine::EvalStats& b) {
  for (size_t f = 0; f < engine::kAxisFamilyCount; ++f) {
    SCOPED_TRACE(engine::AxisFamilyName(static_cast<engine::AxisFamily>(f)));
    EXPECT_EQ(a.axis[f].visited, b.axis[f].visited);
    EXPECT_EQ(a.axis[f].pruned, b.axis[f].pruned);
    EXPECT_EQ(a.axis[f].skipped, b.axis[f].skipped);
  }
}

/// Index of the first kAxis op of `plan` on `axis` (ops.size() if none).
size_t AxisOpIndex(const algebra::QueryPlan& plan, xpath::Axis axis) {
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (plan.ops[i].kind == algebra::OpKind::kAxis &&
        plan.ops[i].axis == axis) {
      return i;
    }
  }
  return plan.ops.size();
}

/// Warms `instance` with each query until it stops splitting, then
/// evaluates it twice more — the first run binds and fills the memo,
/// the second is served from it — next to a full-sweep run on a copy.
void ExpectMemoizedRunMatchesFirstRunAndFullSweep(
    Instance instance, const std::vector<std::string>& queries) {
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                             algebra::CompileString(query));
    const engine::EvalOptions pruned_options;
    engine::EvalOptions full_options;
    full_options.prune_sweeps = false;
    for (int round = 0; round < 8; ++round) {
      engine::EvalStats warmup;
      XCQ_ASSERT_OK(
          engine::Evaluate(&instance, plan, pruned_options, &warmup)
              .status());
      if (warmup.splits == 0) break;
    }
    instance.gate_memo().Clear();
    Instance oracle = instance;

    engine::EvalStats first;
    XCQ_ASSERT_OK_AND_ASSIGN(
        const RelationId first_result,
        engine::Evaluate(&instance, plan, pruned_options, &first));
    const DynamicBitset first_bits = instance.RelationBits(first_result);
    engine::EvalStats second;
    XCQ_ASSERT_OK_AND_ASSIGN(
        const RelationId second_result,
        engine::Evaluate(&instance, plan, pruned_options, &second));
    engine::EvalStats full;
    XCQ_ASSERT_OK_AND_ASSIGN(
        const RelationId full_result,
        engine::Evaluate(&oracle, plan, full_options, &full));

    ASSERT_EQ(first.splits, 0u) << "warm-up did not reach the fixpoint";
    EXPECT_EQ(first.prune_binds, 1u);
    EXPECT_EQ(second.prune_binds, 0u);
    EXPECT_EQ(second.prune_bind_seconds, 0.0);
    EXPECT_EQ(second.summary_builds, 0u);
    EXPECT_EQ(second.summary_nodes, first.summary_nodes);

    EXPECT_EQ(second.splits, first.splits);
    EXPECT_EQ(full.splits, first.splits);
    EXPECT_EQ(instance.RelationBits(second_result), first_bits);
    EXPECT_EQ(oracle.RelationBits(full_result), first_bits);
    for (const engine::EvalStats* other : {&second, &full}) {
      EXPECT_EQ(other->vertices_after, first.vertices_after);
      EXPECT_EQ(other->edges_after, first.edges_after);
    }
    EXPECT_EQ(second.sweep_visited, first.sweep_visited);
    EXPECT_EQ(second.pruned_sweeps, first.pruned_sweeps);
    EXPECT_EQ(second.skipped_sweeps, first.skipped_sweeps);
    ExpectSameFamilyCounters(first, second);
  }
}

TEST(GateMemoTest, MemoizedRunMatchesFirstRunAndFullSweepOnTreeBank) {
  corpus::GenerateOptions gen;
  gen.target_nodes = 3000;
  gen.seed = 42;
  ExpectMemoizedRunMatchesFirstRunAndFullSweep(
      CompressAllTags(corpus::TreeBank().Generate(gen)),
      {"//S//S[descendant::NNS]", "/alltreebank/FILE/EMPTY/S/VP/NP",
       "//NP/ancestor::S", "//VP/following-sibling::NP",
       "//PP/following::NN"});
}

TEST(GateMemoTest, MemoizedRunMatchesFirstRunAndFullSweepOnShakespeare) {
  corpus::GenerateOptions gen;
  gen.target_nodes = 3000;
  gen.seed = 42;
  ExpectMemoizedRunMatchesFirstRunAndFullSweep(
      CompressAllTags(corpus::Shakespeare().Generate(gen)),
      {"//SPEECH/SPEAKER", "//LINE/ancestor::SCENE",
       "//SPEECH/following-sibling::SPEECH/SPEAKER",
       "//SPEAKER/preceding::TITLE"});
}

TEST(GateMemoTest, NewLabelInvalidatesTheMemo) {
  corpus::GenerateOptions gen;
  gen.target_nodes = 2000;
  gen.seed = 7;
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession session,
      QuerySession::Open(corpus::Shakespeare().Generate(gen),
                         PruningOptions(true, false)));
  // Run to the split fixpoint; the split-free run fills the memo.
  QueryOutcome settled;
  for (int round = 0; round < 6; ++round) {
    XCQ_ASSERT_OK_AND_ASSIGN(settled, session.Run("//SPEECH/SPEAKER"));
    if (settled.stats.splits == 0) break;
  }
  ASSERT_EQ(settled.stats.splits, 0u);
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome warm,
                           session.Run("//SPEECH/SPEAKER"));
  EXPECT_EQ(warm.stats.prune_binds, 0u);
  EXPECT_FALSE(session.instance().gate_memo().entries.empty());

  // A query needing a tag the instance does not carry yet merges a new
  // label relation: the summary and every memoized gate are stale.
  XCQ_ASSERT_OK(session.Run("//LINE/parent::SPEECH").status());
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome after,
                           session.Run("//SPEECH/SPEAKER"));
  EXPECT_EQ(after.stats.prune_binds, 1u);
  EXPECT_EQ(after.selected_tree_nodes, warm.selected_tree_nodes);

  // The label fingerprint alone invalidates too: a new relation on an
  // unchanged structure.
  Instance instance = CompressAllTags(testing::BibExampleXml());
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("/bib/book"));
  engine::EvalStats first;
  engine::EvalStats second;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &first)
          .status());
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &second)
          .status());
  EXPECT_EQ(first.prune_binds, 1u);
  EXPECT_EQ(second.prune_binds, 0u);
  ASSERT_EQ(instance.gate_memo().entries.size(), 1u);
  const size_t gates = instance.gate_memo().entries[0].gates.size();
  const uint64_t generation = instance.structure_generation();
  instance.AddRelation("brand-new-tag");
  ASSERT_EQ(instance.structure_generation(), generation);
  engine::EvalStats third;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &third)
          .status());
  EXPECT_EQ(third.prune_binds, 1u);
  EXPECT_EQ(third.summary_builds, 1u);
  EXPECT_EQ(third.sweep_visited, first.sweep_visited);
  // The rebuild emptied the memo: the plan's entry was stored afresh.
  ASSERT_EQ(instance.gate_memo().entries.size(), 1u);
  EXPECT_EQ(instance.gate_memo().entries[0].gates.size(), gates);
}

TEST(GateMemoTest, SplittingPlanStoresNoGateAfterTheSplit) {
  Instance instance = CompressAllTags(
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>");
  XCQ_ASSERT_OK_AND_ASSIGN(
      const algebra::QueryPlan plan,
      algebra::CompileString("//b/following-sibling::b/parent::a"));
  const size_t sibling_op =
      AxisOpIndex(plan, xpath::Axis::kFollowingSibling);
  const size_t parent_op = AxisOpIndex(plan, xpath::Axis::kParent);
  ASSERT_LT(sibling_op, parent_op);
  ASSERT_LT(parent_op, plan.ops.size());

  engine::EvalStats stats;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &stats)
          .status());
  ASSERT_GT(stats.splits, 0u);
  EXPECT_EQ(stats.prune_binds, 1u);

  // The sibling gate was computed on the current summary and stored;
  // the parent gate came after the sibling sweep split and was not.
  const GateMemo::Entry* entry = instance.gate_memo().entries.empty()
                                     ? nullptr
                                     : &instance.gate_memo().entries[0];
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(instance.gate_memo().entries.size(), 1u);
  EXPECT_EQ(entry->ops, plan.ops);
  ASSERT_EQ(entry->gates.size(), 1u);
  EXPECT_EQ(entry->gates[0].slot, sibling_op * GateMemo::kSlotsPerOp);
  EXPECT_EQ(entry->FindGate(static_cast<uint32_t>(
                parent_op * GateMemo::kSlotsPerOp)),
            nullptr);

  // The split made the summary stale: the next run rebuilds and binds.
  engine::EvalStats again;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &again)
          .status());
  EXPECT_EQ(again.summary_builds, 1u);
  EXPECT_EQ(again.prune_binds, 1u);
}

TEST(GateMemoTest, HitAfterMidPlanSplitMatchesTheStaleRide) {
  // A reserved context column changes without a structure or label
  // change, so one plan can run split-free (storing every gate) and
  // then split at its first sweep on the same summary: the gates after
  // the split are memo hits, and must restrict the kernels exactly as
  // a pruner riding its stale binding would.
  Instance instance = CompressAllTags(
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>");
  XCQ_ASSERT_OK_AND_ASSIGN(
      const algebra::QueryPlan plan,
      algebra::CompileString("following-sibling::b/parent::a"));
  ASSERT_LT(AxisOpIndex(plan, xpath::Axis::kParent), plan.ops.size());
  engine::EvalOptions options;
  options.context_relation = "xcq:ctx";
  const RelationId ctx = instance.AddRelation(options.context_relation);
  instance.SetBit(ctx, instance.root());

  engine::EvalStats quiet;
  XCQ_ASSERT_OK(engine::Evaluate(&instance, plan, options, &quiet).status());
  ASSERT_EQ(quiet.splits, 0u);
  ASSERT_TRUE(instance.path_summary_valid());

  // Context = every b occurrence: the sibling sweep now splits.
  const RelationId b = instance.FindRelation("b");
  ASSERT_NE(b, kNoRelation);
  instance.MutableRelationBits(ctx) = instance.RelationBits(b);
  Instance stale = instance;
  stale.gate_memo().Clear();
  Instance oracle = instance;
  engine::EvalOptions full_options = options;
  full_options.prune_sweeps = false;

  engine::EvalStats memo_stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId memo_result,
      engine::Evaluate(&instance, plan, options, &memo_stats));
  engine::EvalStats stale_stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId stale_result,
      engine::Evaluate(&stale, plan, options, &stale_stats));
  engine::EvalStats full_stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId full_result,
      engine::Evaluate(&oracle, plan, full_options, &full_stats));

  ASSERT_GT(memo_stats.splits, 0u);
  EXPECT_EQ(memo_stats.prune_binds, 0u);
  EXPECT_EQ(stale_stats.prune_binds, 1u);
  EXPECT_EQ(memo_stats.splits, stale_stats.splits);
  EXPECT_EQ(memo_stats.splits, full_stats.splits);
  EXPECT_EQ(memo_stats.vertices_after, full_stats.vertices_after);
  EXPECT_EQ(memo_stats.edges_after, full_stats.edges_after);
  // Same kernels over the same regions: identical down to vertex ids.
  EXPECT_EQ(instance.RelationBits(memo_result),
            stale.RelationBits(stale_result));
  EXPECT_EQ(memo_stats.sweep_visited, stale_stats.sweep_visited);
  ExpectSameFamilyCounters(memo_stats, stale_stats);
  EXPECT_EQ(SelectedTreeNodeCount(instance, memo_result),
            SelectedTreeNodeCount(oracle, full_result));
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(GateMemoTest, MissAfterMidPlanSplitBindsTheMemosSummary) {
  // A run cut short by its work budget stores the gate of the sweep it
  // died in and none after it. The next run hits that gate, splits, and
  // misses the parent gate: the pruner must bind to the summary the
  // memo belongs to, as a pruner bound at its first gate would ride it,
  // not rebuild the summary mid-plan.
  Instance instance = CompressAllTags(
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>");
  XCQ_ASSERT_OK_AND_ASSIGN(
      const algebra::QueryPlan plan,
      algebra::CompileString("following-sibling::b/parent::a"));
  engine::EvalOptions options;
  options.context_relation = "xcq:ctx";
  const RelationId ctx = instance.AddRelation(options.context_relation);
  instance.MutableRelationBits(ctx) =
      instance.RelationBits(instance.FindRelation("b"));
  (void)instance.EnsurePathSummary();

  engine::EvalOptions starved = options;
  starved.max_sweep_visits = 1;
  const uint64_t generation = instance.structure_generation();
  EXPECT_EQ(engine::Evaluate(&instance, plan, starved).status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_EQ(instance.structure_generation(), generation);
  ASSERT_EQ(instance.gate_memo().entries.size(), 1u);
  ASSERT_EQ(instance.gate_memo().entries[0].gates.size(), 1u);

  Instance stale = instance;
  stale.gate_memo().Clear();
  Instance oracle = instance;
  engine::EvalOptions full_options = options;
  full_options.prune_sweeps = false;

  engine::EvalStats memo_stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId memo_result,
      engine::Evaluate(&instance, plan, options, &memo_stats));
  engine::EvalStats stale_stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId stale_result,
      engine::Evaluate(&stale, plan, options, &stale_stats));
  engine::EvalStats full_stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId full_result,
      engine::Evaluate(&oracle, plan, full_options, &full_stats));

  ASSERT_GT(memo_stats.splits, 0u);
  EXPECT_EQ(memo_stats.prune_binds, 1u);
  EXPECT_EQ(memo_stats.summary_builds, 0u);
  EXPECT_EQ(memo_stats.splits, full_stats.splits);
  EXPECT_EQ(instance.RelationBits(memo_result),
            stale.RelationBits(stale_result));
  ExpectSameFamilyCounters(memo_stats, stale_stats);
  EXPECT_EQ(SelectedTreeNodeCount(instance, memo_result),
            SelectedTreeNodeCount(oracle, full_result));
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(GateMemoTest, ReservedRelationGatesDoNotDependOnItsPresence) {
  // `xcq:` columns come and go without a structure or label change, so
  // a gate stored while one was absent is served after it appears: the
  // abstraction must admit them whole either way.
  Instance instance = CompressAllTags(testing::BibExampleXml());
  algebra::QueryPlan plan;
  algebra::Op selection;
  selection.kind = algebra::OpKind::kRelation;
  selection.relation = "xcq:selection";
  algebra::Op parent;
  parent.kind = algebra::OpKind::kAxis;
  parent.axis = xpath::Axis::kParent;
  parent.input0 = 0;
  plan.ops = {selection, parent};

  engine::EvalStats absent;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &absent)
          .status());
  EXPECT_EQ(absent.prune_binds, 1u);

  const RelationId column = instance.AddRelation("xcq:selection");
  instance.MutableRelationBits(column) =
      instance.RelationBits(instance.FindRelation("author"));
  Instance oracle = instance;
  engine::EvalOptions full_options;
  full_options.prune_sweeps = false;
  engine::EvalStats present;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &present));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId full_result,
      engine::Evaluate(&oracle, plan, full_options, nullptr));
  EXPECT_EQ(present.prune_binds, 0u);
  EXPECT_EQ(instance.RelationBits(result), oracle.RelationBits(full_result));
  EXPECT_GT(SelectedTreeNodeCount(instance, result), 0u);
}

TEST(GateMemoTest, ContextRelationIsPartOfTheKey) {
  // `b` relative to {root} selects nothing here; relative to the `a`
  // vertices it selects every b. Sharing the {root} entry's gates with
  // the named context would prune the b vertices away.
  Instance instance = CompressAllTags(
      "<r><a><b/><b/></a><a><c/><b/></a></r>");
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("b"));
  const engine::EvalOptions root_context;
  engine::EvalOptions named_context;
  named_context.context_relation = "xcq:ctx";
  const RelationId ctx =
      instance.AddRelation(named_context.context_relation);
  instance.MutableRelationBits(ctx) =
      instance.RelationBits(instance.FindRelation("a"));
  Instance oracle = instance;
  engine::EvalOptions oracle_options = named_context;
  oracle_options.prune_sweeps = false;

  engine::EvalStats first;
  engine::EvalStats second;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, root_context, &first).status());
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, root_context, &second).status());
  EXPECT_EQ(first.prune_binds, 1u);
  EXPECT_EQ(second.prune_binds, 0u);

  engine::EvalStats named;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId named_result,
      engine::Evaluate(&instance, plan, named_context, &named));
  EXPECT_EQ(named.prune_binds, 1u) << "shared the {root} context's entry";
  ASSERT_EQ(instance.gate_memo().entries.size(), 2u);
  EXPECT_EQ(instance.gate_memo().entries[0].ops,
            instance.gate_memo().entries[1].ops);
  EXPECT_NE(instance.gate_memo().entries[0].context_relation,
            instance.gate_memo().entries[1].context_relation);

  engine::EvalStats full;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId full_result,
      engine::Evaluate(&oracle, plan, oracle_options, &full));
  EXPECT_EQ(SelectedTreeNodeCount(instance, named_result),
            SelectedTreeNodeCount(oracle, full_result));
  EXPECT_EQ(SelectedTreeNodeCount(instance, named_result), 3u);
}

}  // namespace
}  // namespace xcq
