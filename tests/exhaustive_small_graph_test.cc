// Exhaustive verification over *all* small graphs: every rooted digraph
// with up to 4 nodes over a 2-label alphabet (node 0 = root, every
// non-root node gets a tree parent, all other edges enumerated by
// bitmask). For each graph, every index must answer every 1- and 2-step
// query exactly, and M(k)/M*(k) must keep their invariants after refining
// every length-2 FUP. This complements the random sweeps with a complete
// search of the tiny-graph space (where most partition-refinement corner
// cases — cycles, self-loops, multi-parents, sibling collisions — occur).

#include <gtest/gtest.h>

#include "index/a_k_index.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

/// Builds the graph identified by (n, labels_mask, tree_code, extra_mask):
/// labels_mask bit i = label of node i; tree_code encodes each non-root
/// node's tree parent; extra_mask enumerates all possible extra edges.
DataGraph BuildIndexed(size_t n, uint32_t labels_mask, uint32_t tree_code,
                       uint32_t extra_mask) {
  DataGraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    b.AddNode((labels_mask >> i) & 1 ? "y" : "x");
  }
  // Tree parents: node i (>=1) gets parent (tree_code digit in base i).
  uint32_t code = tree_code;
  for (size_t i = 1; i < n; ++i) {
    b.AddEdge(static_cast<NodeId>(code % i), static_cast<NodeId>(i));
    code /= static_cast<uint32_t>(i);
  }
  // Extra edges: enumerate all ordered pairs (u, v).
  uint32_t bit = 0;
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v, ++bit) {
      if ((extra_mask >> bit) & 1) {
        b.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
      }
    }
  }
  b.SetRoot(0);
  return std::move(std::move(b).Build()).value();
}

/// All length-0..2 floating expressions over the 2-label alphabet.
std::vector<PathExpression> AllQueries(const DataGraph& g) {
  std::vector<PathExpression> out;
  const size_t L = g.symbols().size();
  for (LabelId a = 0; a < L; ++a) {
    out.emplace_back(std::vector<LabelId>{a}, false);
    for (LabelId b = 0; b < L; ++b) {
      out.emplace_back(std::vector<LabelId>{a, b}, false);
      for (LabelId c = 0; c < L; ++c) {
        out.emplace_back(std::vector<LabelId>{a, b, c}, false);
      }
    }
  }
  return out;
}

class ExhaustiveSmallGraphTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExhaustiveSmallGraphTest, EveryIndexExactOnEveryGraph) {
  const size_t n = GetParam();
  // tree_code ranges over prod(i for i in 1..n-1) = (n-1)!.
  uint32_t tree_codes = 1;
  for (uint32_t i = 1; i < n; ++i) tree_codes *= i;
  const uint32_t extra_bits = static_cast<uint32_t>(n * n);
  // For n == 4 enumerating all 2^16 extra masks is too slow with the full
  // index battery; sample a deterministic stride instead.
  const uint32_t extra_limit = 1u << extra_bits;
  const uint32_t stride = n < 4 ? 1 : 613;  // Prime stride for n = 4.

  size_t graphs_checked = 0;
  for (uint32_t labels_mask = 0; labels_mask < (1u << n); ++labels_mask) {
    for (uint32_t tree_code = 0; tree_code < tree_codes; ++tree_code) {
      for (uint32_t extra = 0; extra < extra_limit; extra += stride) {
        DataGraph g =
            BuildIndexed(n, labels_mask, tree_code, extra);
        DataEvaluator eval(g);
        auto queries = AllQueries(g);

        AkIndex a1(g, 1);
        MkIndex mk(g);
        MStarIndex mstar(g);
        for (const auto& q : queries) {
          if (q.length() == 2) {
            mk.Refine(q);
            mstar.Refine(q);
          }
        }
        ASSERT_TRUE(mk.graph().CheckConsistency().ok())
            << "n=" << n << " labels=" << labels_mask
            << " tree=" << tree_code << " extra=" << extra;
        ASSERT_TRUE(mstar.CheckProperties().ok())
            << "n=" << n << " labels=" << labels_mask
            << " tree=" << tree_code << " extra=" << extra;
        ASSERT_TRUE(mrx::testing::ExtentsAreKBisimilar(mk.graph()));

        for (const auto& q : queries) {
          std::vector<NodeId> truth = eval.Evaluate(q);
          ASSERT_EQ(a1.Query(q).answer, truth);
          ASSERT_EQ(mk.Query(q).answer, truth);
          ASSERT_EQ(mstar.QueryTopDown(q, &eval).answer, truth);
          if (q.length() == 2) {
            ASSERT_TRUE(mk.Query(q).precise)
                << "labels=" << labels_mask << " tree=" << tree_code
                << " extra=" << extra << " q=" << q.ToString(g.symbols());
          }
        }
        ++graphs_checked;
      }
    }
  }
  EXPECT_GT(graphs_checked, 50u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExhaustiveSmallGraphTest,
                         ::testing::Values(2, 3, 4),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mrx
