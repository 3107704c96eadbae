#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/case_gen.h"
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
