#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "check/case_gen.h"
#include "obs/query_cost.h"
#include "query/data_evaluator.h"
#include "query/path_expression.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeGraph;

PathExpression MustParse(std::string_view text, const SymbolTable& symbols) {
  auto p = PathExpression::Parse(text, symbols);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(PathExpressionTest, ParseFloating) {
  DataGraph g = MakeGraph({"r", "a", "b"}, {{0, 1}, {1, 2}});
  PathExpression p = MustParse("//a/b", g.symbols());
  EXPECT_FALSE(p.anchored());
  EXPECT_EQ(p.num_steps(), 2u);
  EXPECT_EQ(p.length(), 1u);
  EXPECT_EQ(p.ToString(g.symbols()), "//a/b");
}

TEST(PathExpressionTest, ParseAnchored) {
  DataGraph g = MakeGraph({"r", "a"}, {{0, 1}});
  PathExpression p = MustParse("/r/a", g.symbols());
  EXPECT_TRUE(p.anchored());
  EXPECT_EQ(p.ToString(g.symbols()), "/r/a");
}

TEST(PathExpressionTest, BareIsFloating) {
  DataGraph g = MakeGraph({"r", "a"}, {{0, 1}});
  PathExpression p = MustParse("a", g.symbols());
  EXPECT_FALSE(p.anchored());
  EXPECT_EQ(p.length(), 0u);
}

TEST(PathExpressionTest, WildcardStep) {
  DataGraph g = MakeGraph({"r", "a", "b"}, {{0, 1}, {1, 2}});
  PathExpression p = MustParse("//r/*/b", g.symbols());
  EXPECT_TRUE(p.HasWildcard());
  EXPECT_EQ(p.label(1), kWildcardLabel);
  EXPECT_TRUE(p.StepMatches(1, 0));
  EXPECT_TRUE(p.StepMatches(1, 12345));
  EXPECT_EQ(p.ToString(g.symbols()), "//r/*/b");
}

TEST(PathExpressionTest, UnknownLabelMatchesNothing) {
  DataGraph g = MakeGraph({"r"}, {});
  PathExpression p = MustParse("//nothere", g.symbols());
  EXPECT_EQ(p.label(0), kUnknownLabel);
  EXPECT_FALSE(p.StepMatches(0, 0));
  EXPECT_EQ(p.ToString(g.symbols()), "//?");
}

TEST(PathExpressionTest, ParseErrors) {
  SymbolTable symbols;
  EXPECT_FALSE(PathExpression::Parse("", symbols).ok());
  EXPECT_FALSE(PathExpression::Parse("  ", symbols).ok());
  EXPECT_FALSE(PathExpression::Parse("/", symbols).ok());
  EXPECT_FALSE(PathExpression::Parse("//", symbols).ok());
  EXPECT_FALSE(PathExpression::Parse("a///b", symbols).ok());
  EXPECT_FALSE(PathExpression::Parse("///a", symbols).ok());
  EXPECT_FALSE(PathExpression::Parse("a/", symbols).ok());
  EXPECT_FALSE(PathExpression::Parse("a//", symbols).ok());
}

TEST(PathExpressionTest, DescendantAxisParses) {
  SymbolTable symbols;
  symbols.Intern("a");
  symbols.Intern("b");
  symbols.Intern("c");
  auto p = PathExpression::Parse("//a//b/c", symbols);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(p->HasDescendantAxis());
  EXPECT_FALSE(p->DescendantStep(0));
  EXPECT_TRUE(p->DescendantStep(1));
  EXPECT_FALSE(p->DescendantStep(2));
  EXPECT_EQ(p->ToString(symbols), "//a//b/c");
  auto q = PathExpression::Parse("/a/b", symbols);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->HasDescendantAxis());
  // Equality distinguishes axes.
  auto plain = PathExpression::Parse("//a/b/c", symbols);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(*p == *plain);
}

TEST(PathExpressionTest, VeryLongPathParsesIteratively) {
  // Parse is one loop over the '/'-split steps; input length sets no
  // recursion depth (docs/TESTING.md, "Input depth").
  DataGraph g = MakeGraph({"r", "a"}, {{0, 1}});
  constexpr size_t kSteps = 100000;
  std::string text;
  for (size_t i = 0; i < kSteps; ++i) text += i % 7 == 3 ? "//a" : "/a";
  PathExpression p = MustParse(text, g.symbols());
  EXPECT_EQ(p.num_steps(), kSteps);
  EXPECT_TRUE(p.HasDescendantAxis());
}

TEST(PathExpressionTest, SubpathIsFloating) {
  DataGraph g = MakeGraph({"r", "a", "b"}, {{0, 1}, {1, 2}});
  PathExpression p = MustParse("/r/a/b", g.symbols());
  PathExpression sub = p.Subpath(1, 2);
  EXPECT_FALSE(sub.anchored());
  EXPECT_EQ(sub.ToString(g.symbols()), "//a/b");
}

TEST(PathExpressionTest, Equality) {
  DataGraph g = MakeGraph({"r", "a"}, {{0, 1}});
  EXPECT_TRUE(MustParse("//r/a", g.symbols()) ==
              MustParse("//r/a", g.symbols()));
  EXPECT_FALSE(MustParse("//r/a", g.symbols()) ==
               MustParse("/r/a", g.symbols()));
}

TEST(DataEvaluatorTest, Figure1SitePeoplePerson) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  // The paper: /site/people/person returns {7, 8, 9}. In our model the
  // figure's root node is labeled "root", so the anchored form includes it.
  PathExpression p = MustParse("/root/site/people/person", g.symbols());
  EXPECT_EQ(eval.Evaluate(p), (std::vector<NodeId>{7, 8, 9}));
  // Floating form finds the same nodes.
  PathExpression q = MustParse("//site/people/person", g.symbols());
  EXPECT_EQ(eval.Evaluate(q), (std::vector<NodeId>{7, 8, 9}));
}

TEST(DataEvaluatorTest, Figure1WildcardRegions) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  // The paper: /site/regions/*/item returns {12, 13, 14}.
  PathExpression p = MustParse("//site/regions/*/item", g.symbols());
  EXPECT_EQ(eval.Evaluate(p), (std::vector<NodeId>{12, 13, 14}));
}

TEST(DataEvaluatorTest, TraversesReferenceEdges) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  // auction/seller/person crosses a reference edge (seller -> person).
  PathExpression p = MustParse("//auction/seller/person", g.symbols());
  EXPECT_EQ(eval.Evaluate(p), (std::vector<NodeId>{7, 9}));
}

TEST(DataEvaluatorTest, SingleLabelQuery) {
  DataGraph g = MakeGraph({"r", "b", "b"}, {{0, 1}, {0, 2}});
  DataEvaluator eval(g);
  PathExpression p = MustParse("//b", g.symbols());
  EXPECT_EQ(eval.Evaluate(p), (std::vector<NodeId>{1, 2}));
}

TEST(DataEvaluatorTest, AnchoredRequiresRootStart) {
  // Two 'a' nodes: one child of root, one deeper.
  DataGraph g = MakeGraph({"r", "a", "r", "a"}, {{0, 1}, {0, 2}, {2, 3}});
  DataEvaluator eval(g);
  // Floating //r/a finds both; anchored /r/a only the top one.
  EXPECT_EQ(eval.Evaluate(MustParse("//r/a", g.symbols())),
            (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(eval.Evaluate(MustParse("/r/a", g.symbols())),
            (std::vector<NodeId>{1}));
}

TEST(DataEvaluatorTest, CyclesDoNotLoopForever) {
  DataGraph g = MakeGraph({"r", "a", "b"}, {{0, 1}, {1, 2}, {2, 1}});
  DataEvaluator eval(g);
  PathExpression p = MustParse("//a/b/a/b/a/b", g.symbols());
  EXPECT_EQ(eval.Evaluate(p), (std::vector<NodeId>{2}));
}

TEST(DataEvaluatorTest, HasIncomingPathBasic) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  PathExpression p = MustParse("//site/people/person", g.symbols());
  EXPECT_TRUE(eval.HasIncomingPath(7, p));
  EXPECT_TRUE(eval.HasIncomingPath(9, p));
  EXPECT_FALSE(eval.HasIncomingPath(12, p));  // an item node
  EXPECT_FALSE(eval.HasIncomingPath(1, p));   // the site node itself
}

TEST(DataEvaluatorTest, HasIncomingPathMatchesEvaluateEverywhere) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  for (const char* query :
       {"//person", "//site/people/person", "//auction/bidder/person",
        "//regions/*/item", "//item", "//auction/item/item"}) {
    PathExpression p = std::move(PathExpression::Parse(query, g.symbols())).value();
    std::vector<NodeId> expected = eval.Evaluate(p);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      bool in = std::binary_search(expected.begin(), expected.end(), n);
      EXPECT_EQ(eval.HasIncomingPath(n, p), in)
          << "node " << n << " query " << query;
    }
  }
}

TEST(DataEvaluatorTest, HasIncomingPathAnchored) {
  DataGraph g = MakeGraph({"r", "a", "r", "a"}, {{0, 1}, {0, 2}, {2, 3}});
  DataEvaluator eval(g);
  PathExpression p = std::move(PathExpression::Parse("/r/a", g.symbols())).value();
  EXPECT_TRUE(eval.HasIncomingPath(1, p));
  EXPECT_FALSE(eval.HasIncomingPath(3, p));
}

TEST(DataEvaluatorTest, ValidationCountsVisitedNodes) {
  DataGraph g = MakeGraph({"r", "a", "b"}, {{0, 1}, {1, 2}});
  DataEvaluator eval(g);
  PathExpression p = std::move(PathExpression::Parse("//r/a/b", g.symbols())).value();
  uint64_t visited = 0;
  EXPECT_TRUE(eval.HasIncomingPath(2, p, &visited));
  // Visits b itself, then a, then r.
  EXPECT_EQ(visited, 3u);
}

TEST(DataEvaluatorTest, MismatchedLastLabelCostsNothing) {
  DataGraph g = MakeGraph({"r", "a", "b"}, {{0, 1}, {1, 2}});
  DataEvaluator eval(g);
  PathExpression p = std::move(PathExpression::Parse("//r/a", g.symbols())).value();
  uint64_t visited = 0;
  EXPECT_FALSE(eval.HasIncomingPath(2, p, &visited));
  EXPECT_EQ(visited, 0u);
}

/// The first `steps` steps of `p`, keeping its anchor and axes.
PathExpression Prefix(const PathExpression& p, size_t steps) {
  std::vector<LabelId> labels(p.labels().begin(), p.labels().begin() + steps);
  std::vector<uint8_t> descendant;
  for (size_t i = 0; i < steps; ++i) descendant.push_back(p.DescendantStep(i));
  return PathExpression(std::move(labels), std::move(descendant),
                        p.anchored());
}

// EvaluateAll evaluates a prefix shared by several paths once; each target
// set must still be exactly Evaluate's, in input order. The batches mix the
// generated queries (wildcards, descendant steps, anchors, unknown labels)
// with all their prefixes (down to one step) and repeats, shuffled.
TEST(DataEvaluatorTest, EvaluateAllMatchesEvaluateOnGeneratedCases) {
  struct {
    size_t wildcard = 0;
    size_t unknown = 0;
    size_t anchored = 0;
    size_t one_step = 0;
  } seen;
  Rng rng(25);
  check::CaseGenOptions options;
  for (int c = 0; c < 300; ++c) {
    const check::GeneratedCase gen = check::GenerateCase(rng, options);
    Result<DataGraph> built = gen.graph.Build();
    ASSERT_TRUE(built.ok()) << built.status();
    const DataGraph& g = *built;
    std::vector<PathExpression> paths;
    for (const check::QuerySpec& spec : gen.queries) {
      Result<PathExpression> path = spec.Compile(g.symbols());
      ASSERT_TRUE(path.ok()) << path.status();
      for (size_t n = 1; n <= path->num_steps(); ++n) {
        paths.push_back(Prefix(*path, n));
      }
    }
    const size_t distinct = paths.size();
    for (size_t i = 0; i < distinct; i += 3) paths.push_back(paths[i]);
    for (size_t i = paths.size(); i > 1; --i) {
      std::swap(paths[i - 1], paths[rng.Below(i)]);
    }
    std::vector<const PathExpression*> batch;
    for (const PathExpression& p : paths) {
      batch.push_back(&p);
      seen.wildcard += p.HasWildcard();
      seen.anchored += p.anchored();
      seen.one_step += p.num_steps() == 1;
      for (LabelId label : p.labels()) seen.unknown += label == kUnknownLabel;
    }
    DataEvaluator evaluator(g);
    const std::vector<std::vector<NodeId>> all = evaluator.EvaluateAll(batch);
    ASSERT_EQ(all.size(), paths.size());
    for (size_t i = 0; i < paths.size(); ++i) {
      ASSERT_EQ(all[i], evaluator.Evaluate(paths[i]))
          << "case " << c << ", " << paths[i].ToString(g.symbols());
    }
  }
  EXPECT_GT(seen.wildcard, 0u);
  EXPECT_GT(seen.unknown, 0u);
  EXPECT_GT(seen.anchored, 0u);
  EXPECT_GT(seen.one_step, 0u);
}

/// The level-by-level backward search that validation used before the
/// single-parent chain walk, kept as the reference for its answers and its
/// per-candidate visit counts: each step's frontier holds the distinct
/// instances of that step; a child step visits each matching parent once,
/// a descendant step every distinct proper ancestor of the frontier.
bool ReferenceHasIncomingPath(const DataGraph& g, NodeId node,
                              const PathExpression& path, uint64_t* visited) {
  if (!path.StepMatches(path.num_steps() - 1, g.label(node))) return false;
  std::vector<NodeId> frontier = {node};
  ++*visited;
  for (size_t step = path.num_steps() - 1; step > 0 && !frontier.empty();
       --step) {
    std::vector<char> seen(g.num_nodes(), 0);
    std::vector<NodeId> next;
    if (path.DescendantStep(step)) {
      std::vector<NodeId> work = frontier;
      for (size_t i = 0; i < work.size(); ++i) {
        for (NodeId u : g.parents(work[i])) {
          if (seen[u]) continue;
          seen[u] = 1;
          work.push_back(u);
          ++*visited;
          if (path.StepMatches(step - 1, g.label(u))) next.push_back(u);
        }
      }
    } else {
      for (NodeId v : frontier) {
        for (NodeId u : g.parents(v)) {
          if (path.StepMatches(step - 1, g.label(u)) && !seen[u]) {
            seen[u] = 1;
            next.push_back(u);
            ++*visited;
          }
        }
      }
    }
    frontier.swap(next);
  }
  if (path.anchored()) {
    return std::find(frontier.begin(), frontier.end(), g.root()) !=
           frontier.end();
  }
  return !frontier.empty();
}

/// A path that `g` likely has: the labels of a random upward walk from a
/// random node, root first, then mutated with wildcards, descendant steps
/// (which may skip ancestors), other labels and an anchor.
PathExpression RandomIncomingPath(const DataGraph& g, Rng& rng) {
  NodeId at = static_cast<NodeId>(rng.Below(g.num_nodes()));
  const size_t want = 1 + rng.Below(5);
  std::vector<LabelId> labels = {g.label(at)};
  std::vector<uint8_t> descendant = {0};
  while (labels.size() < want && !g.parents(at).empty()) {
    const bool skip = rng.Chance(0.2);
    for (int hop = skip ? 1 + static_cast<int>(rng.Below(3)) : 1;
         hop > 0 && !g.parents(at).empty(); --hop) {
      const auto parents = g.parents(at);
      at = parents[rng.Below(parents.size())];
    }
    descendant.back() = skip;
    labels.push_back(g.label(at));
    descendant.push_back(0);
  }
  std::reverse(labels.begin(), labels.end());
  std::reverse(descendant.begin(), descendant.end());
  for (size_t i = 0; i < labels.size(); ++i) {
    if (rng.Chance(0.15)) labels[i] = kWildcardLabel;
    if (rng.Chance(0.1)) {
      labels[i] = static_cast<LabelId>(rng.Below(g.symbols().size()));
    }
    if (i > 0 && rng.Chance(0.1)) descendant[i] = 1;
  }
  return PathExpression(std::move(labels), std::move(descendant),
                        rng.Chance(0.25));
}

// The batch validation kernel against the reference search, on the check
// harness's graphs (reference multi-parents, cycles, self-loops, deep
// chains, one-node graphs): Validate keeps exactly the candidates in
// Evaluate's target set, in input order, as one validation check, and each
// candidate costs what the reference search visits.
TEST(DataEvaluatorTest, ValidateMatchesTheLevelSearchOnGeneratedCases) {
  struct {
    size_t multi_parent = 0;
    size_t descendant = 0;
    size_t anchored = 0;
    size_t wildcard = 0;
    size_t survivors = 0;
  } seen;
  Rng rng(29);
  check::CaseGenOptions options;
  for (int c = 0; c < 300; ++c) {
    const check::GeneratedCase gen = check::GenerateCase(rng, options);
    Result<DataGraph> built = gen.graph.Build();
    ASSERT_TRUE(built.ok()) << built.status();
    const DataGraph& g = *built;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      seen.multi_parent += g.parents(n).size() > 1;
    }
    std::vector<PathExpression> paths;
    for (const check::QuerySpec& spec : gen.queries) {
      Result<PathExpression> path = spec.Compile(g.symbols());
      ASSERT_TRUE(path.ok()) << path.status();
      paths.push_back(std::move(path).value());
    }
    for (int i = 0; i < 6; ++i) paths.push_back(RandomIncomingPath(g, rng));

    // Every node, shuffled, and some twice.
    std::vector<NodeId> candidates;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      candidates.push_back(n);
      if (rng.Chance(0.1)) candidates.push_back(n);
    }
    for (size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1], candidates[rng.Below(i)]);
    }

    DataEvaluator evaluator(g);
    for (const PathExpression& path : paths) {
      seen.descendant += path.HasDescendantAxis();
      seen.anchored += path.anchored();
      seen.wildcard += path.HasWildcard();
      const std::vector<NodeId> target = evaluator.Evaluate(path);
      std::vector<NodeId> want;
      uint64_t want_visits = 0;
      for (NodeId n : candidates) {
        uint64_t visits = 0;
        const bool in = ReferenceHasIncomingPath(g, n, path, &visits);
        ASSERT_EQ(in, std::binary_search(target.begin(), target.end(), n))
            << "reference, case " << c << " node " << n << " "
            << path.ToString(g.symbols());
        if (in) want.push_back(n);
        want_visits += visits;
        uint64_t one = 0;
        ASSERT_EQ(evaluator.HasIncomingPath(n, path, &one), in)
            << "case " << c << " node " << n << " "
            << path.ToString(g.symbols());
        ASSERT_EQ(one, visits) << "case " << c << " node " << n << " "
                               << path.ToString(g.symbols());
      }
      std::vector<NodeId> survivors = {kInvalidNode};  // Appended after.
      uint64_t visits = 0;
      obs::QueryCostCounters cost;
      {
        obs::QueryCostScope scope(&cost);
        evaluator.Validate(candidates, path, &survivors, &visits);
      }
      want.insert(want.begin(), kInvalidNode);
      ASSERT_EQ(survivors, want)
          << "case " << c << " " << path.ToString(g.symbols());
      ASSERT_EQ(visits, want_visits)
          << "case " << c << " " << path.ToString(g.symbols());
      EXPECT_EQ(cost.validation_checks, 1u);
      seen.survivors += want.size() - 1;
    }
  }
  EXPECT_GT(seen.multi_parent, 0u);
  EXPECT_GT(seen.descendant, 0u);
  EXPECT_GT(seen.anchored, 0u);
  EXPECT_GT(seen.wildcard, 0u);
  EXPECT_GT(seen.survivors, 0u);
}

TEST(DataEvaluatorTest, PrefixOrderPutsPrefixesFirstAndKeepsTies) {
  DataGraph g = MakeFigure1Graph();
  const PathExpression site = MustParse("//site", g.symbols());
  const PathExpression people = MustParse("//site/people", g.symbols());
  const PathExpression anchored = MustParse("/site/people", g.symbols());
  const std::vector<const PathExpression*> batch = {&people, &anchored,
                                                    &site, &people};
  EXPECT_EQ(DataEvaluator::PrefixOrder(batch),
            (std::vector<uint32_t>{2, 0, 3, 1}));
}

}  // namespace
}  // namespace mrx
