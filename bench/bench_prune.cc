// bench_prune — path-summary sweep pruning vs full sweeps
// (docs/INTERNALS.md §9), over the three serving corpora, one query per
// axis family (recursive descent, upward, sibling) plus the corpus'
// Appendix-A navigation query.
//
// Per (corpus, query) it evaluates the same compiled plan twice from
// the same base instance — summary pruning on and off — and records
//   * pruned_s / full_s:   wall time of each evaluation,
//   * sweep_visited / sweep_full: vertices the pruned run visited vs
//     what the full sweeps would have visited (the pruning headline),
//   * summary_nodes:       distinct root-to-label paths of the corpus,
//   * selected_tree, splits: the answer shape (identical by contract),
//   * warm_prune_binds / warm_pruned_s (split-free rows only): the same
//     plan re-evaluated kWarmReps times on the instance the pruned run
//     left behind — full pruner binds summed over those runs (0: every
//     gate comes from the instance's gate memo) and their median time.
//
// Self-checks (non-zero exit on violation):
//   * pruned and full runs must agree on splits, post-evaluation
//     structure, and the exact selected tree-node set (answers are
//     compared through decompression, which is numbering-independent);
//   * warm re-evaluations must bind nothing, split nothing, and select
//     exactly the bits of the first pruned run;
//   * TreeBank recursive-descent rows must visit < 50% of what the
//     full sweeps would — the regression gate for the whole subsystem
//     (the checked-in baseline additionally exact-matches the
//     counters).

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "xcq/util/timer.h"

namespace xcq::bench {
namespace {

struct PruneQuery {
  const char* family;  // "descent" | "upward" | "sibling" | "appendix"
  const char* text;
};

struct CorpusQueries {
  const char* corpus;
  PruneQuery queries[4];
};

// One query per axis family. The descent rows are the paper's
// navigation shape (`//` recursion into a tagged region); upward and
// sibling rows start from the same regions so their sweeps have real
// sources. Descent anchors are chosen with narrow realization sets:
// an anchor whose label is pervasive (TreeBank `//S//…`) defeats
// pruning by construction, because DAG sharing makes nearly every
// vertex realize *some* path under it, and split parity forces the
// kernels to visit all of them.
constexpr CorpusQueries kWorkload[] = {
    {"Shakespeare",
     {
         {"descent", "//SPEECH/SPEAKER"},
         {"upward", "//LINE/ancestor::SCENE"},
         {"sibling", "//SPEECH/following-sibling::SPEECH/SPEAKER"},
         {"appendix", "/all/PLAY/ACT/SCENE/SPEECH/LINE"},
     }},
    {"SwissProt",
     {
         {"descent", "//Record/protein"},
         {"upward", "//topic/parent::comment"},
         {"sibling", "//comment/following-sibling::comment/topic"},
         {"appendix", "/ROOT/Record/comment/topic"},
     }},
    {"TreeBank",
     {
         {"descent", "//FILE/EMPTY/S/VP"},
         {"upward", "//NP/ancestor::S"},
         {"sibling", "//VP/following-sibling::NP"},
         {"appendix", "/alltreebank/FILE/EMPTY/S/VP/S/VP/NP"},
     }},
};

// Warm re-evaluations per split-free pruned row.
constexpr int kWarmReps = 5;

struct RunResult {
  double seconds = 0.0;
  engine::EvalStats stats;
  uint64_t selected_tree = 0;
  uint64_t reachable_vertices = 0;
  DynamicBitset tree_set;  // selected tree nodes, document order
  // Warm re-evaluation (pruned, split-free runs only).
  bool warm = false;
  bool warm_diverged = false;
  uint64_t warm_prune_binds = 0;  // summed over kWarmReps runs
  double warm_seconds = 0.0;      // median
};

RunResult RunOnce(const Instance& base, const algebra::QueryPlan& plan,
                  bool prune) {
  Instance instance = base;
  engine::EvalOptions options;
  options.prune_sweeps = prune;
  RunResult out;
  Timer timer;
  const RelationId result = Unwrap(
      engine::Evaluate(&instance, plan, options, &out.stats), "evaluate");
  out.seconds = timer.Seconds();
  out.selected_tree = SelectedTreeNodeCount(instance, result);
  out.reachable_vertices = instance.ReachableCount();
  const DecompressedTree tree =
      Unwrap(Decompress(instance), "decompress");
  out.tree_set = tree.RelationSet(instance.schema().Name(result));

  if (prune && out.stats.splits == 0) {
    // The serving case: the same plan again on the unchanged instance.
    const DynamicBitset first = instance.RelationBits(result);
    std::vector<double> times;
    for (int rep = 0; rep < kWarmReps; ++rep) {
      engine::EvalStats warm;
      Timer warm_timer;
      const RelationId again = Unwrap(
          engine::Evaluate(&instance, plan, options, &warm), "evaluate");
      times.push_back(warm_timer.Seconds());
      out.warm_prune_binds += warm.prune_binds;
      if (warm.splits != 0 || instance.RelationBits(again) != first) {
        out.warm_diverged = true;
      }
    }
    std::sort(times.begin(), times.end());
    out.warm = true;
    out.warm_seconds = times[times.size() / 2];
  }
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report("prune", args);
  bool failed = false;

  std::printf(
      "%-12s %-9s %-45s %10s %10s %7s %9s %9s %9s\n", "corpus", "family",
      "query", "visited", "full", "ratio", "pruned_s", "full_s", "warm_s");
  PrintRule(126);

  for (const CorpusQueries& workload : kWorkload) {
    const corpus::CorpusGenerator* generator =
        Unwrap(corpus::FindCorpus(workload.corpus), "corpus");
    if (!args.Selected(*generator)) continue;
    corpus::GenerateOptions gen;
    gen.target_nodes = args.TargetNodes(*generator);
    gen.seed = args.seed;
    const std::string xml = generator->Generate(gen);
    CompressOptions copts;
    copts.mode = LabelMode::kAllTags;
    const Instance base = Unwrap(CompressXml(xml, copts), "compress");
    const uint64_t summary_nodes =
        base.EnsurePathSummary().nodes.size();

    for (const PruneQuery& query : workload.queries) {
      const algebra::QueryPlan plan =
          Unwrap(algebra::CompileString(query.text), "compile");
      const RunResult pruned = RunOnce(base, plan, /*prune=*/true);
      const RunResult full = RunOnce(base, plan, /*prune=*/false);

      // Answer equality: exact selected tree-node sets (numbering
      // independent), identical split counts and result structure.
      if (pruned.tree_set != full.tree_set ||
          pruned.selected_tree != full.selected_tree ||
          pruned.stats.splits != full.stats.splits ||
          pruned.stats.vertices_after != full.stats.vertices_after ||
          pruned.stats.edges_after != full.stats.edges_after) {
        std::fprintf(stderr,
                     "FATAL %s %s: pruned run diverged from full run\n",
                     workload.corpus, query.text);
        failed = true;
      }

      if (pruned.warm &&
          (pruned.warm_diverged || pruned.warm_prune_binds != 0)) {
        std::fprintf(stderr,
                     "FATAL %s %s: warm re-evaluation re-bound (%llu "
                     "binds) or diverged from the first pruned run\n",
                     workload.corpus, query.text,
                     static_cast<unsigned long long>(
                         pruned.warm_prune_binds));
        failed = true;
      }

      const double ratio =
          pruned.stats.sweep_full == 0
              ? 0.0
              : static_cast<double>(pruned.stats.sweep_visited) /
                    static_cast<double>(pruned.stats.sweep_full);
      // The headline gate: TreeBank `//` recursion must skip more than
      // half of what unpruned sweeps would touch.
      if (std::strcmp(workload.corpus, "TreeBank") == 0 &&
          std::strcmp(query.family, "descent") == 0 && ratio >= 0.5) {
        std::fprintf(stderr,
                     "FATAL TreeBank %s: pruned sweeps visited %.0f%% "
                     "of the full-sweep volume (gate: < 50%%)\n",
                     query.text, 100.0 * ratio);
        failed = true;
      }

      std::printf("%-12s %-9s %-45s %10llu %10llu %6.1f%% %9.4f %9.4f",
                  workload.corpus, query.family, query.text,
                  static_cast<unsigned long long>(
                      pruned.stats.sweep_visited),
                  static_cast<unsigned long long>(pruned.stats.sweep_full),
                  100.0 * ratio, pruned.seconds, full.seconds);
      if (pruned.warm) {
        std::printf(" %9.4f\n", pruned.warm_seconds);
      } else {
        std::printf(" %9s\n", "-");
      }

      BenchReport& row = report.Row();
      row
          .Set("corpus", workload.corpus)
          .Set("family", query.family)
          .Set("query", query.text)
          .Set("summary_nodes", summary_nodes)
          .Set("sweep_visited", pruned.stats.sweep_visited)
          .Set("sweep_full", pruned.stats.sweep_full)
          .Set("pruned_sweeps", pruned.stats.pruned_sweeps)
          .Set("skipped_sweeps", pruned.stats.skipped_sweeps)
          .Set("selected_tree", pruned.selected_tree)
          .Set("splits", pruned.stats.splits)
          .Set("pruned_s", pruned.seconds)
          .Set("full_s", full.seconds);
      if (pruned.warm) {
        row.Set("warm_prune_binds", pruned.warm_prune_binds)
            .Set("warm_pruned_s", pruned.warm_seconds);
      }
    }
  }
  report.Finish();
  return failed ? 1 : 0;
}

}  // namespace xcq::bench

int main(int argc, char** argv) { return xcq::bench::Main(argc, argv); }
