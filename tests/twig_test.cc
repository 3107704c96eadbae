#include <gtest/gtest.h>

#include "index/twig_eval.h"
#include "query/data_evaluator.h"
#include "query/twig.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeGraph;
using mrx::testing::RandomGraph;

TwigQuery T(const DataGraph& g, std::string_view text) {
  auto t = TwigQuery::Parse(text, g.symbols());
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

TEST(TwigParseTest, PlainPathHasNoPredicates) {
  DataGraph g = MakeFigure1Graph();
  TwigQuery t = T(g, "//site/people/person");
  EXPECT_FALSE(t.HasPredicates());
  EXPECT_EQ(t.ToString(g.symbols()), "//site/people/person");
  EXPECT_EQ(t.TrunkExpression().ToString(g.symbols()),
            "//site/people/person");
}

TEST(TwigParseTest, PredicatesAndAxes) {
  DataGraph g = MakeFigure1Graph();
  TwigQuery t = T(g, "/site[regions//item]/auctions/auction[seller]");
  EXPECT_TRUE(t.HasPredicates());
  EXPECT_TRUE(t.anchored());
  // ToString canonicalizes predicate chains to nested brackets
  // (regions//item ≡ regions[//item] under existential AND semantics).
  EXPECT_EQ(t.ToString(g.symbols()),
            "/site[regions[//item]]/auctions/auction[seller]");
  EXPECT_EQ(t.TrunkExpression().ToString(g.symbols()),
            "/site/auctions/auction");
}

TEST(TwigParseTest, NestedPredicates) {
  DataGraph g = MakeFigure1Graph();
  TwigQuery t = T(g, "//auction[bidder[person]]/item");
  EXPECT_TRUE(t.HasPredicates());
  EXPECT_EQ(t.ToString(g.symbols()), "//auction[bidder[person]]/item");
}

TEST(TwigParseTest, Errors) {
  DataGraph g = MakeFigure1Graph();
  EXPECT_FALSE(TwigQuery::Parse("", g.symbols()).ok());
  EXPECT_FALSE(TwigQuery::Parse("//a[b", g.symbols()).ok());
  EXPECT_FALSE(TwigQuery::Parse("//a]b", g.symbols()).ok());
  EXPECT_FALSE(TwigQuery::Parse("//a[[b]]", g.symbols()).ok());
}

// The parser, evaluation and TwigNode's destructor recurse once per
// pattern node, so nesting is capped at 256 and deeper text is rejected
// instead of overflowing the stack.
TEST(TwigParseTest, DepthCapRejectsDeepTwigs) {
  DataGraph g = MakeGraph({"a", "b"}, {{0, 1}});
  std::string at_cap = "//a";
  for (int i = 1; i < 256; ++i) at_cap += "/a";
  EXPECT_TRUE(TwigQuery::Parse(at_cap, g.symbols()).ok());
  EXPECT_FALSE(TwigQuery::Parse(at_cap + "/a", g.symbols()).ok());

  std::string chain = "//a[b]";
  for (int i = 0; i < 200000; ++i) chain += "/a";
  Result<TwigQuery> long_chain = TwigQuery::Parse(chain, g.symbols());
  ASSERT_FALSE(long_chain.ok());
  EXPECT_EQ(long_chain.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(long_chain.status().message().find("nests deeper"),
            std::string::npos);

  std::string nested = "//a";
  for (int i = 0; i < 200000; ++i) nested += "[a";
  nested += std::string(200000, ']');
  Result<TwigQuery> deep_predicates = TwigQuery::Parse(nested, g.symbols());
  ASSERT_FALSE(deep_predicates.ok());
  EXPECT_EQ(deep_predicates.status().code(), StatusCode::kInvalidArgument);
}

TEST(TwigEvalTest, PredicateFiltersTrunk) {
  //        r
  //      /   \
  //     a     a
  //    / \     \
  //   b   c     c
  // //a[b]/c should return only the first a's c.
  DataGraph g = MakeGraph({"r", "a", "a", "b", "c", "c"},
                          {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}});
  EXPECT_EQ(EvaluateTwig(g, T(g, "//a[b]/c")), (std::vector<NodeId>{4}));
  EXPECT_EQ(EvaluateTwig(g, T(g, "//a/c")), (std::vector<NodeId>{4, 5}));
}

TEST(TwigEvalTest, PredicateOnOutputNode) {
  DataGraph g = MakeGraph({"r", "a", "a", "b"}, {{0, 1}, {0, 2}, {1, 3}});
  // Only the a with a b child matches.
  EXPECT_EQ(EvaluateTwig(g, T(g, "//r/a[b]")), (std::vector<NodeId>{1}));
}

TEST(TwigEvalTest, DescendantPredicate) {
  DataGraph g = MakeGraph({"r", "a", "x", "b", "a"},
                          {{0, 1}, {1, 2}, {2, 3}, {0, 4}});
  // a(1) has b deep below (via x); a(4) has none.
  EXPECT_EQ(EvaluateTwig(g, T(g, "//a[//b]")), (std::vector<NodeId>{1}));
  EXPECT_TRUE(EvaluateTwig(g, T(g, "//a[b]")).empty());
}

TEST(TwigEvalTest, MultiplePredicatesAreConjunctive) {
  DataGraph g = MakeGraph({"r", "a", "a", "b", "c", "b"},
                          {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}});
  EXPECT_EQ(EvaluateTwig(g, T(g, "//r/a[b][c]")), (std::vector<NodeId>{1}));
  EXPECT_EQ(EvaluateTwig(g, T(g, "//r/a[b]")),
            (std::vector<NodeId>{1, 2}));
}

TEST(TwigEvalTest, Figure1Scenarios) {
  DataGraph g = MakeFigure1Graph();
  // Auctions that have a bidder; their item references.
  EXPECT_EQ(EvaluateTwig(g, T(g, "//auction[bidder]/item")),
            (std::vector<NodeId>{19, 20}));
  // Persons referenced by a seller of an auction that also has a bidder.
  EXPECT_EQ(EvaluateTwig(g, T(g, "//auction[bidder]/seller/person")),
            (std::vector<NodeId>{7, 9}));
  // Anchored trunk.
  EXPECT_EQ(EvaluateTwig(g, T(g, "/root/site[regions]/people/person")),
            (std::vector<NodeId>{7, 8, 9}));
  // Predicate that never matches.
  EXPECT_TRUE(EvaluateTwig(g, T(g, "//auction[regions]/item")).empty());
}

TEST(TwigEvalTest, PlainTrunkMatchesPathEvaluation) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  for (const char* text :
       {"//site/people/person", "//auction/seller/person",
        "//site//item", "/root/site/regions"}) {
    TwigQuery t = T(g, text);
    auto p = PathExpression::Parse(text, g.symbols());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(EvaluateTwig(g, t), eval.Evaluate(*p)) << text;
  }
}

TEST(TwigIndexEvalTest, MatchesGroundTruth) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  index.Refine(*PathExpression::Parse("//auctions/auction/item",
                                      g.symbols()));
  for (const char* text :
       {"//auction[bidder]/item", "//auction[bidder]/seller/person",
        "//site[regions//item]/people/person", "//auction/item",
        "//person"}) {
    TwigQuery t = T(g, text);
    QueryResult r = EvaluateTwigWithIndex(index, t, eval);
    EXPECT_EQ(r.answer, EvaluateTwig(g, t)) << text;
    if (t.HasPredicates()) EXPECT_FALSE(r.precise) << text;
  }
}

TEST(TwigIndexEvalTest, RandomGraphSweep) {
  for (uint64_t seed : {601, 602, 603}) {
    DataGraph g = RandomGraph(seed, 40, 4, 20);
    DataEvaluator eval(g);
    MStarIndex index(g);
    const SymbolTable& symbols = g.symbols();
    // All twigs of the form //a[b]/c over the label alphabet.
    for (LabelId a = 0; a < symbols.size(); ++a) {
      for (LabelId b = 0; b < symbols.size(); ++b) {
        for (LabelId c = 0; c < symbols.size(); ++c) {
          std::string text = "//" + symbols.Name(a) + "[" +
                             symbols.Name(b) + "]/" + symbols.Name(c);
          TwigQuery t = T(g, text);
          QueryResult r = EvaluateTwigWithIndex(index, t, eval);
          ASSERT_EQ(r.answer, EvaluateTwig(g, t)) << seed << " " << text;
        }
      }
    }
  }
}

TEST(TwigIndexEvalTest, AnchoredTwig) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  TwigQuery t = T(g, "/root/site[people]/auctions/auction[seller]");
  QueryResult r = EvaluateTwigWithIndex(index, t, eval);
  EXPECT_EQ(r.answer, EvaluateTwig(g, t));
  EXPECT_EQ(r.answer, (std::vector<NodeId>{10, 11}));
}

}  // namespace
}  // namespace mrx
