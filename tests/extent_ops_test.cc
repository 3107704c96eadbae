#include "index/extent_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "index/extent.h"
#include "index/index_graph.h"
#include "util/rng.h"

namespace mrx {
namespace {

std::vector<NodeId> OracleIntersect(const std::vector<NodeId>& a,
                                    const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<NodeId> OracleDifference(const std::vector<NodeId>& a,
                                     const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// A sorted duplicate-free random set of `size` ids drawn from
/// [0, universe).
std::vector<NodeId> RandomSet(Rng* rng, size_t size, size_t universe) {
  std::vector<NodeId> v;
  for (size_t i = 0; i < size; ++i) {
    v.push_back(static_cast<NodeId>(rng->Below(universe)));
  }
  SortUnique(&v);
  return v;
}

TEST(ExtentOpsTest, EdgeCases) {
  const std::vector<NodeId> empty;
  const std::vector<NodeId> some = {1, 5, 9};
  EXPECT_TRUE(Intersect(empty, some).empty());
  EXPECT_TRUE(Intersect(some, empty).empty());
  EXPECT_EQ(Intersect(some, some), some);
  EXPECT_TRUE(Difference(empty, some).empty());
  EXPECT_EQ(Difference(some, empty), some);
  EXPECT_TRUE(Difference(some, some).empty());
}

TEST(ExtentOpsTest, DisjointSets) {
  const std::vector<NodeId> a = {1, 3, 5};
  const std::vector<NodeId> b = {2, 4, 6};
  EXPECT_TRUE(Intersect(a, b).empty());
  EXPECT_EQ(Difference(a, b), a);
}

TEST(ExtentOpsTest, MatchesOracleAcrossSkews) {
  // Size pairs straddling the galloping crossover in both directions,
  // including a tiny set against a huge one (the split relevance-filter
  // shape) and near-balanced inputs (the merge path).
  const std::pair<size_t, size_t> shapes[] = {
      {0, 100},  {1, 1},    {3, 2000}, {2000, 3},  {5, 50},
      {50, 5},   {100, 90}, {1, 5000}, {4000, 17}, {256, 256},
  };
  Rng rng(99);
  for (auto [na, nb] : shapes) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<NodeId> a = RandomSet(&rng, na, 8000);
      const std::vector<NodeId> b = RandomSet(&rng, nb, 8000);
      ASSERT_EQ(Intersect(a, b), OracleIntersect(a, b))
          << "|a|=" << a.size() << " |b|=" << b.size();
      ASSERT_EQ(Difference(a, b), OracleDifference(a, b))
          << "|a|=" << a.size() << " |b|=" << b.size();
    }
  }
}

TEST(ExtentOpsTest, GallopTailIsCopied) {
  // a extends past b's last element: DifferenceGallop's bulk tail copy
  // and IntersectGallop's early exit both trigger.
  std::vector<NodeId> a = {10, 20, 9000, 9001, 9002};
  std::vector<NodeId> b;
  for (NodeId i = 0; i < 200; ++i) b.push_back(i * 3);
  EXPECT_EQ(Intersect(a, b), OracleIntersect(a, b));
  EXPECT_EQ(Difference(a, b), OracleDifference(a, b));
}

TEST(ExtentOpsTest, SubsetContainment) {
  Rng rng(7);
  const std::vector<NodeId> big = RandomSet(&rng, 5000, 100000);
  std::vector<NodeId> small;
  for (size_t i = 0; i < big.size(); i += 97) small.push_back(big[i]);
  EXPECT_EQ(Intersect(small, big), small);
  EXPECT_TRUE(Difference(small, big).empty());
}

// ---- k-way intersection ---------------------------------------------------

TEST(IntersectManyTest, MatchesPairwiseFoldAcrossReps) {
  Rng rng(0x4411);
  for (int trial = 0; trial < 40; ++trial) {
    // Deliberately feed operands largest-first so the size ordering inside
    // IntersectMany has to reorder them to get the same answer.
    const std::vector<NodeId> a = RandomSet(&rng, 3000, 20000);
    const std::vector<NodeId> b = RandomSet(&rng, 500, 20000);
    const std::vector<NodeId> c = RandomSet(&rng, 40, 20000);
    const std::vector<NodeId> expected =
        OracleIntersect(OracleIntersect(a, b), c);

    const Extent ea(a), eb(b), ec(c);
    EXPECT_EQ(IntersectMany({&ea, &eb, &ec}).ids(), expected);

    // Vector flavor (the twig-query path) must agree.
    EXPECT_EQ(IntersectMany(std::vector<const std::vector<NodeId>*>{&a, &b,
                                                                    &c}),
              expected);
  }
}

TEST(IntersectManyTest, EdgeCases) {
  const std::vector<NodeId> some = {1, 5, 9};
  const std::vector<NodeId> empty;
  const Extent es = Extent::FromSorted({1, 5, 9});

  // No operands / all-null operands yield the empty set.
  EXPECT_TRUE(IntersectMany(std::vector<const Extent*>{}).empty());
  EXPECT_TRUE(
      IntersectMany(std::vector<const Extent*>{nullptr, nullptr}).empty());
  EXPECT_TRUE(
      IntersectMany(std::vector<const std::vector<NodeId>*>{}).empty());

  // Null operands are skipped, not treated as empty sets.
  EXPECT_EQ(IntersectMany({&es, nullptr, &es}).ids(), some);
  EXPECT_EQ(IntersectMany(
                std::vector<const std::vector<NodeId>*>{&some, nullptr}),
            some);

  // A single operand comes back unchanged; an empty operand wins outright.
  EXPECT_EQ(IntersectMany({&es}).ids(), some);
  const Extent ee = Extent::FromSorted({});
  EXPECT_TRUE(IntersectMany({&es, &ee, &es}).empty());
  EXPECT_TRUE(IntersectMany(std::vector<const std::vector<NodeId>*>{
                  &some, &empty, &some})
                  .empty());
}

// ---- Overlaps -------------------------------------------------------------

TEST(OverlapsTest, MatchesOracleAcrossRepPairs) {
  Rng rng(0x0ee1);
  for (int trial = 0; trial < 30; ++trial) {
    // Mix overlapping and disjoint ranges so both outcomes occur often.
    const size_t universe = 4000;
    const std::vector<NodeId> a = RandomSet(&rng, 1 + rng.Below(300), universe);
    std::vector<NodeId> b = RandomSet(&rng, 1 + rng.Below(300), universe);
    if (trial % 3 == 0 && !a.empty()) {
      // Force disjoint: shift b past a's maximum.
      for (NodeId& x : b) x += a.back() + 1;
    }
    const bool expected = !OracleIntersect(a, b).empty();
    const Extent ea(a), eb(b);
    EXPECT_EQ(Overlaps(a, b), expected) << "trial " << trial;
    EXPECT_EQ(Overlaps(ea, eb), expected) << "trial " << trial;
    EXPECT_EQ(Overlaps(a, eb), expected) << "trial " << trial;
    EXPECT_EQ(Overlaps(ea, b), expected) << "trial " << trial;
    EXPECT_TRUE(Overlaps(a, ea));  // A non-empty set overlaps itself.
  }
}

TEST(OverlapsTest, RangePruneAndSharedPayload) {
  const Extent low = Extent::FromSorted({1, 2, 3});
  const Extent high = Extent::FromSorted({1000, 1001});
  EXPECT_FALSE(Overlaps(low, high));
  EXPECT_FALSE(Overlaps(high, low));
  EXPECT_FALSE(Overlaps(low, Extent::FromSorted({})));

  // A copy shares the member array (one refcount), and Intersect and
  // Difference take the identity shortcut on it: a ∩ a is a itself, a \ a
  // is empty. The shortcut still charges the full logical sizes to the cost
  // hooks.
  const Extent alias = low;
  EXPECT_TRUE(alias.SharesIds(low));
  EXPECT_EQ(alias.begin(), low.begin());
  EXPECT_FALSE(Extent::FromSorted({1, 2, 3}).SharesIds(low));
  obs::QueryCostCounters shared, unshared;
  {
    obs::QueryCostScope scope(&shared);
    EXPECT_TRUE(Overlaps(low, alias));
    EXPECT_TRUE(Intersect(low, alias).SharesIds(low));
    EXPECT_TRUE(Difference(low, alias).empty());
  }
  {
    obs::QueryCostScope scope(&unshared);
    const Extent copy = Extent::FromSorted({1, 2, 3});
    EXPECT_TRUE(Overlaps(low, copy));
    EXPECT_EQ(Intersect(low, copy), low);
    EXPECT_TRUE(Difference(low, copy).empty());
  }
  EXPECT_EQ(shared.extent_elems_scanned, 18u);
  EXPECT_EQ(shared.extent_elems_scanned, unshared.extent_elems_scanned);
  EXPECT_EQ(shared.extent_intersect_calls, unshared.extent_intersect_calls);
  EXPECT_EQ(shared.extent_difference_calls, unshared.extent_difference_calls);
}

TEST(ExtentOpsTest, SortUniqueNormalizes) {
  std::vector<NodeId> v = {5, 1, 5, 3, 1, 1, 9};
  SortUnique(&v);
  EXPECT_EQ(v, (std::vector<NodeId>{1, 3, 5, 9}));

  std::vector<IndexNodeId> ids = {2, 2, 0};
  SortUnique(&ids);
  EXPECT_EQ(ids, (std::vector<IndexNodeId>{0, 2}));
}

}  // namespace
}  // namespace mrx
