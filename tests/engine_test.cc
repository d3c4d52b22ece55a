#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/engine/prune.h"

namespace xcq {
namespace {

using testing::AlternatingBinaryTreeXml;
using testing::BibExampleXml;
using testing::DifferentialResult;
using testing::RandomXml;
using testing::RunDifferential;

// --- Handcrafted differential checks ------------------------------------------

TEST(EngineTest, ChildAxisOnSharedVertices) {
  // Both papers share one subtree; selecting authors of the *second*
  // paper only via a string constraint must split it.
  RunDifferential(BibExampleXml(), "//paper[\"Vardi\"]/author");
}

TEST(EngineTest, BibQueries) {
  const std::string xml = BibExampleXml();
  EXPECT_EQ(RunDifferential(xml, "/bib/book/author").selected_tree_nodes,
            3u);
  EXPECT_EQ(RunDifferential(xml, "//author").selected_tree_nodes, 5u);
  EXPECT_EQ(RunDifferential(xml, "//paper/title").selected_tree_nodes, 2u);
  EXPECT_EQ(
      RunDifferential(xml, "//book[author[\"Vianu\"]]").selected_tree_nodes,
      1u);
  EXPECT_EQ(RunDifferential(xml, "/self::*[bib/paper]").selected_tree_nodes,
            1u);
}

TEST(EngineTest, SelectionOnSharedVertexCountsAllOccurrences) {
  // <a><b><c/></b><b><c/></b></a>: the two b subtrees share vertices;
  // //c selects one DAG vertex representing two tree nodes.
  const DifferentialResult r =
      RunDifferential("<a><b><c/></b><b><c/></b></a>", "//c");
  EXPECT_EQ(r.selected_tree_nodes, 2u);
  EXPECT_EQ(r.selected_dag_nodes, 1u);
}

TEST(EngineTest, UpwardQueryDoesNotDecompress) {
  const DifferentialResult r = RunDifferential(
      BibExampleXml(), "/self::*[bib/book/author]");
  EXPECT_EQ(r.dag_stats.splits, 0u);
  EXPECT_EQ(r.dag_stats.vertices_before, r.dag_stats.vertices_after);
  EXPECT_EQ(r.dag_stats.edges_before, r.dag_stats.edges_after);
  EXPECT_EQ(r.selected_tree_nodes, 1u);
}

TEST(EngineTest, SetOperationsDoNotDecompress) {
  const DifferentialResult r = RunDifferential(
      BibExampleXml(),
      "/self::*[bib/book and not(bib/misc) or bib/paper]");
  EXPECT_EQ(r.dag_stats.splits, 0u);
}

// --- Fig. 5: queries on the compressed complete binary tree --------------------

struct Fig5Case {
  const char* name;
  const char* query;
  uint64_t expected_tree_nodes;  // on the depth-5 tree (31 nodes + #doc)
};

class Fig5Test : public ::testing::TestWithParam<Fig5Case> {};

TEST_P(Fig5Test, MatchesBaselineAndExpectedCount) {
  // Depth-5 alternating binary tree: levels a,b,a,b,a with 1,2,4,8,16
  // nodes. The compressed instance is a 5-vertex chain (+ #doc).
  const std::string xml = AlternatingBinaryTreeXml(5);
  const DifferentialResult r = RunDifferential(xml, GetParam().query);
  EXPECT_EQ(r.selected_tree_nodes, GetParam().expected_tree_nodes)
      << GetParam().query;
}

INSTANTIATE_TEST_SUITE_P(
    PaperFigure5, Fig5Test,
    ::testing::Values(
        // (b) //a — all a-labeled: levels 1,3,5 = 1+4+16
        Fig5Case{"DescA", "//a", 21},
        // (c) //a/b — all b's (every b has an a parent): 2+8
        Fig5Case{"DescAChildB", "//a/b", 10},
        // (d) a — children of root context: the root element itself
        Fig5Case{"ChildA", "a", 1},
        // (e) a/a — no a has an a child
        Fig5Case{"ChildAA", "a/a", 0},
        // (f) a/a/b — empty as well
        Fig5Case{"ChildAAB", "a/a/b", 0},
        // (g) * — children of #doc: the root element
        Fig5Case{"Star", "*", 1},
        // (h) */a — children of the root element tagged a: none (level 2
        // is b)
        Fig5Case{"StarA", "*/a", 0},
        // (i) */a/following::* — empty input stays empty
        Fig5Case{"StarAFollowing", "*/a/following::*", 0}),
    [](const ::testing::TestParamInfo<Fig5Case>& info) {
      return info.param.name;
    });

TEST(Fig5Test, DownwardQueryDecompressesChain) {
  // //a/b on the compressed chain must split level vertices: the b
  // levels get selected/unselected variants only if contexts differ —
  // here all occurrences agree, so growth stays bounded by 2x.
  const std::string xml = AlternatingBinaryTreeXml(5);
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, options));
  const uint64_t before = inst.ReachableCount();
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//a/b"));
  engine::EvalStats stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&inst, plan, engine::EvalOptions{}, &stats));
  EXPECT_EQ(SelectedTreeNodeCount(inst, result), 10u);
  EXPECT_LE(stats.vertices_after, before * 4);  // 2 splitting axes
  XCQ_ASSERT_OK(inst.Validate());
}

// --- Theorem 3.6: growth bounds -------------------------------------------------

TEST(EngineTest, EachSplittingAxisAtMostDoubles) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const std::string xml = RandomXml(seed, 300, 3);
    CompressOptions options;
    options.mode = LabelMode::kAllTags;
    XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, options));
    XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                             algebra::CompileString("//t0/t1"));
    engine::EvalStats stats;
    XCQ_ASSERT_OK_AND_ASSIGN(
        const RelationId result,
        engine::Evaluate(&inst, plan, engine::EvalOptions{}, &stats));
    (void)result;
    const uint64_t k = plan.SplittingAxisCount();
    EXPECT_LE(stats.vertices_after,
              stats.vertices_before * (uint64_t{1} << k))
        << "seed " << seed;
    EXPECT_LE(stats.edges_after, stats.edges_before * (uint64_t{1} << k))
        << "seed " << seed;
    // ... and never beyond the uncompressed tree.
    EXPECT_LE(stats.vertices_after, TreeNodeCount(inst));
  }
}

TEST(EngineTest, ResultInstanceRemainsValid) {
  for (uint64_t seed = 40; seed < 44; ++seed) {
    const std::string xml = RandomXml(seed, 250, 4);
    CompressOptions options;
    options.mode = LabelMode::kAllTags;
    XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, options));
    XCQ_ASSERT_OK_AND_ASSIGN(
        const algebra::QueryPlan plan,
        algebra::CompileString("//t0[t1 and not(t2)]/t1"));
    XCQ_ASSERT_OK_AND_ASSIGN(
        const RelationId result,
        engine::Evaluate(&inst, plan, engine::EvalOptions{}, nullptr));
    (void)result;
    XCQ_ASSERT_OK(inst.Validate());
  }
}

TEST(EngineTest, TemporariesRemovedButResultKept) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), {}));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//author"));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&inst, plan, engine::EvalOptions{}, nullptr));
  EXPECT_EQ(inst.FindRelation(engine::kResultRelation), result);
  for (const std::string& name : inst.schema().LiveNames()) {
    EXPECT_EQ(name.find("xcq:tmp"), std::string::npos) << name;
  }
}

TEST(EngineTest, RepeatedEvaluationOnSameInstance) {
  // Selections persist across queries; a second evaluation must still be
  // correct on the (possibly partially decompressed) instance.
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), options));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan1,
                           algebra::CompileString("//paper/author"));
  XCQ_ASSERT_OK_AND_ASSIGN(
      RelationId r1,
      engine::Evaluate(&inst, plan1, engine::EvalOptions{}, nullptr));
  EXPECT_EQ(SelectedTreeNodeCount(inst, r1), 2u);

  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan2,
                           algebra::CompileString("//book/author"));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId r2,
      engine::Evaluate(&inst, plan2, engine::EvalOptions{}, nullptr));
  EXPECT_EQ(SelectedTreeNodeCount(inst, r2), 3u);
  XCQ_ASSERT_OK(inst.Validate());
}

TEST(EngineTest, EmptyPlanRejected) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml("<a/>", {}));
  algebra::QueryPlan plan;
  EXPECT_EQ(engine::Evaluate(&inst, plan, {}, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, MissingContextRelationRejected) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml("<a/>", {}));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("a"));
  engine::EvalOptions options;
  options.context_relation = "no-such-relation";
  EXPECT_EQ(
      engine::Evaluate(&inst, plan, options, nullptr).status().code(),
      StatusCode::kNotFound);
}

// --- Differential property sweep -----------------------------------------------

struct SweepCase {
  uint64_t seed;
  const char* query;
};

class DifferentialSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DifferentialSweepTest, DagMatchesTree) {
  const std::string xml = RandomXml(GetParam().seed, 220, 3);
  RunDifferential(xml, GetParam().query);
}

constexpr const char* kSweepQueries[] = {
    "//t0",
    "//t0/t1",
    "/t0/t1/t2",
    "//t1[t2]",
    "//t0[not(t1)]",
    "//t0/parent::*",
    "//t1/ancestor::*",
    "//t2/ancestor-or-self::t0",
    "//t1/following-sibling::*",
    "//t2/preceding-sibling::t1",
    "//t1/following::t2",
    "//t2/preceding::*",
    "//t0[t1 or t2]/t1",
    "//t0[t1 and following-sibling::t0]",
    "//t0[descendant::t2]",
    "/self::*[t0//t2]",
    "//t1[not(following::*)]",
    "//t0/descendant-or-self::t1",
    "//t0[/t0/t1]",
    "*/*/*",
};

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    for (const char* query : kSweepQueries) {
      cases.push_back(SweepCase{seed, query});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomDocs, DifferentialSweepTest,
                         ::testing::ValuesIn(MakeSweep()));

// Text-bearing random documents with string constraints.
class DifferentialStringSweepTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialStringSweepTest, DagMatchesTree) {
  const std::string xml = RandomXml(GetParam(), 260, 3);
  RunDifferential(xml, "//t0[\"market\"]");
  RunDifferential(xml, "//t1[\"the\" and t2]");
  RunDifferential(xml, "//t2[\"growth\" or \"index\"]/parent::*");
  RunDifferential(xml, "//t0[not(\"the\")]");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialStringSweepTest,
                         ::testing::Range<uint64_t>(0, 8));

// Deep-document stress: iterative traversals must survive 50k depth.
TEST(EngineTest, VeryDeepDocument) {
  std::string xml;
  const int depth = 50000;
  for (int i = 0; i < depth; ++i) xml += "<d>";
  xml += "<leaf/>";
  for (int i = 0; i < depth; ++i) xml += "</d>";
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, options));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//leaf/ancestor::d"));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&inst, plan, engine::EvalOptions{}, nullptr));
  EXPECT_EQ(SelectedTreeNodeCount(inst, result),
            static_cast<uint64_t>(depth));
}

// --- prune_bind accounting --------------------------------------------------

TEST(PruneBindTimingTest, ColdBindIsChargedAndInSyncGatesAddNothing) {
  // TreeBank's summary trie is large next to its DAG, so building and
  // binding it is most of a cold evaluation of a cheap query.
  XCQ_ASSERT_OK_AND_ASSIGN(const corpus::CorpusGenerator* generator,
                           corpus::FindCorpus("TreeBank"));
  corpus::GenerateOptions gen;
  gen.target_nodes = 3000;
  gen.seed = 5;
  const std::string xml = generator->Generate(gen);
  XCQ_ASSERT_OK_AND_ASSIGN(Instance instance, CompressXml(xml, {}));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//S/NP"));
  const engine::EvalOptions options;  // pruning on

  // Cold: the pruner's first gate builds the summary and binds, and the
  // evaluation reports that time as prune_bind_seconds — most of the
  // whole (about 0.8 on a quiet host).
  engine::EvalStats cold;
  XCQ_ASSERT_OK(engine::Evaluate(&instance, plan, options, &cold).status());
  EXPECT_GT(cold.summary_builds, 0u);
  EXPECT_EQ(cold.prune_binds, 1u);
  EXPECT_GT(cold.prune_bind_seconds, 0.25 * cold.seconds);
  EXPECT_LE(cold.prune_bind_seconds, cold.seconds);

  // Repeats reach the split fixpoint; from there the summary stays
  // cached and no evaluation rebuilds it.
  engine::EvalStats warm;
  for (int round = 0; round < 3; ++round) {
    warm = engine::EvalStats{};
    XCQ_ASSERT_OK(
        engine::Evaluate(&instance, plan, options, &warm).status());
  }
  EXPECT_EQ(warm.splits, 0u);
  EXPECT_EQ(warm.summary_builds, 0u);

  // A split-free run left every gate of the plan in the instance's gate
  // memo, so the next run binds nothing at all.
  engine::EvalStats memoized;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, options, &memoized).status());
  EXPECT_EQ(memoized.prune_binds, 0u);
  EXPECT_EQ(memoized.prune_bind_seconds, 0.0);
  EXPECT_EQ(memoized.summary_nodes, cold.summary_nodes);

  // A pruner charges only its (re)binds: once bound, further gates on
  // an unchanged instance add nothing. Clearing the memo makes the
  // next pruner bind.
  instance.gate_memo().Clear();
  size_t axis_op = plan.ops.size();
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (plan.ops[i].kind == algebra::OpKind::kAxis &&
        plan.ops[i].axis == xpath::Axis::kChild) {
      axis_op = i;
    }
  }
  ASSERT_LT(axis_op, plan.ops.size());
  double bind_seconds = 0.0;
  engine::PlanPruner pruner(&instance, &plan, &options, &bind_seconds);
  pruner.AxisGate(axis_op);
  ASSERT_TRUE(pruner.active());
  const double after_bind = bind_seconds;
  EXPECT_GT(after_bind, 0.0);
  pruner.AxisGate(axis_op);
  pruner.AxisGate(axis_op);
  EXPECT_EQ(bind_seconds, after_bind);
  EXPECT_EQ(pruner.binds(), 1u);
}

}  // namespace
}  // namespace xcq
