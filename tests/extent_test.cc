#include "index/extent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "index/extent_ops.h"
#include "util/rng.h"

namespace mrx {
namespace {

// ---------------------------------------------------------------------------
// GallopLowerBound bracket audit.
//
// The suspicion: after the doubling loop overshoots, the
// bracket [from + bound/2, from + bound + 1) is recomputed from `from`,
// which could be off by one at the container edges. The fuzz below
// cross-checks 10k random (v, from, key) triples — including from == 0,
// from == v.size(), keys below/above the whole range, and single-element
// vectors — against std::lower_bound over the same suffix. It found no
// discrepancy, pinning the bracket math as correct.
// ---------------------------------------------------------------------------

TEST(GallopLowerBoundFuzzTest, AgreesWithStdLowerBoundOn10kRandomTriples) {
  Rng rng(0x9a1107);
  for (int trial = 0; trial < 10000; ++trial) {
    // Sizes straddle the interesting regimes: empty-ish, tiny, and large
    // enough that the doubling loop runs several iterations.
    const size_t size = rng.Below(3) == 0 ? rng.Below(4) : rng.Below(512);
    std::vector<NodeId> v;
    v.reserve(size);
    NodeId next = static_cast<NodeId>(rng.Below(16));
    for (size_t i = 0; i < size; ++i) {
      v.push_back(next);
      next += 1 + static_cast<NodeId>(rng.Below(9));  // Strictly ascending.
    }
    const size_t from = rng.Below(v.size() + 1);  // May equal v.size().
    // Keys range from below v.front() to past v.back().
    const NodeId key = static_cast<NodeId>(
        rng.Below(v.empty() ? 32 : static_cast<uint64_t>(v.back()) + 16));

    const size_t got = extent_internal::GallopLowerBound(v, from, key);
    const size_t want = static_cast<size_t>(
        std::lower_bound(v.begin() + static_cast<ptrdiff_t>(from), v.end(),
                         key) -
        v.begin());
    ASSERT_EQ(got, want) << "trial " << trial << " size " << v.size()
                         << " from " << from << " key " << key;
  }
}

TEST(GallopLowerBoundFuzzTest, EdgeBrackets) {
  const std::vector<NodeId> v = {10, 20, 30, 40, 50};
  using extent_internal::GallopLowerBound;
  EXPECT_EQ(GallopLowerBound(v, 0, 5), 0u);    // Before front.
  EXPECT_EQ(GallopLowerBound(v, 0, 10), 0u);   // Exactly front.
  EXPECT_EQ(GallopLowerBound(v, 0, 55), 5u);   // Past back.
  EXPECT_EQ(GallopLowerBound(v, 4, 50), 4u);   // from at last element.
  EXPECT_EQ(GallopLowerBound(v, 5, 50), 5u);   // from == size.
  const std::vector<NodeId> one = {7};
  EXPECT_EQ(GallopLowerBound(one, 0, 6), 0u);
  EXPECT_EQ(GallopLowerBound(one, 0, 7), 0u);
  EXPECT_EQ(GallopLowerBound(one, 0, 8), 1u);
  const std::vector<NodeId> empty;
  EXPECT_EQ(GallopLowerBound(empty, 0, 3), 0u);
}

// ---------------------------------------------------------------------------
// Kernel property test.
//
// Every kernel flavor (Extent × Extent, Extent × vector in both orders)
// must equal the std::set_* oracle. Extents are drawn from four density
// classes: sparse scatter, dense scatter, clustered runs and a mix, plus
// the degenerate empty / singleton / all-nodes shapes.
// ---------------------------------------------------------------------------

/// A sorted duplicate-free set shaped by `cls`:
///   0 sparse:  ids scattered over a wide universe;
///   1 dense:   >50% occupancy of a narrow range;
///   2 runs:    a few contiguous intervals;
///   3 mixed:   a run block plus a sparse tail on both sides of 2^16.
std::vector<NodeId> RandomExtent(Rng* rng, int cls) {
  std::vector<NodeId> v;
  switch (cls) {
    case 0: {
      const size_t n = 1 + rng->Below(400);
      for (size_t i = 0; i < n; ++i) {
        v.push_back(static_cast<NodeId>(rng->Below(1u << 20)));
      }
      break;
    }
    case 1: {
      const NodeId base = static_cast<NodeId>(rng->Below(1u << 18));
      const size_t span = 512 + rng->Below(2048);
      for (NodeId x = 0; x < span; ++x) {
        if (rng->Below(100) < 60) v.push_back(base + x);
      }
      break;
    }
    case 2: {
      NodeId cursor = static_cast<NodeId>(rng->Below(1u << 18));
      const size_t runs = 1 + rng->Below(6);
      for (size_t r = 0; r < runs; ++r) {
        const size_t len = 1 + rng->Below(300);
        for (size_t i = 0; i < len; ++i) v.push_back(cursor++);
        cursor += 2 + static_cast<NodeId>(rng->Below(5000));
      }
      break;
    }
    default: {
      // A run straddling 2^16 plus scatter on both sides.
      const NodeId border = 1u << 16;
      for (NodeId x = border - 100; x < border + 100; ++x) v.push_back(x);
      const size_t n = rng->Below(200);
      for (size_t i = 0; i < n; ++i) {
        v.push_back(static_cast<NodeId>(rng->Below(1u << 18)));
      }
      break;
    }
  }
  SortUnique(&v);
  return v;
}

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

/// Checks every kernel flavor for (a, b) against the plain-vector oracles.
void ExpectKernelsMatchOracle(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b,
                              const std::string& context) {
  const std::vector<NodeId> want_and = OracleIntersect(a, b);
  const std::vector<NodeId> want_sub = OracleDifference(a, b);
  const Extent ea(a), eb(b);
  ASSERT_EQ(ea.ids(), a) << context;
  EXPECT_EQ(Intersect(ea, b), want_and) << context << " ext ∩ vec";
  EXPECT_EQ(Intersect(a, eb), want_and) << context << " vec ∩ ext";
  EXPECT_EQ(Difference(ea, b), want_sub) << context << " ext \\ vec";
  EXPECT_EQ(Difference(a, eb), want_sub) << context << " vec \\ ext";
  EXPECT_EQ(Intersect(ea, eb).ids(), want_and) << context << " ext ∩ ext";
  EXPECT_EQ(Difference(ea, eb).ids(), want_sub) << context << " ext \\ ext";
  EXPECT_EQ(Overlaps(ea, eb), !want_and.empty()) << context;
}

TEST(ExtentEquivalenceTest, KernelsMatchOracleAcrossDensityClasses) {
  // 500 seeded extents per density class; consecutive extents of a class
  // are paired so both inputs share the class's shape, and each is also
  // paired against the previous class's last extent for cross-shape
  // coverage.
  Rng rng(0xe97e41);
  std::vector<NodeId> cross;
  for (int cls = 0; cls < 4; ++cls) {
    std::vector<NodeId> prev;
    for (int i = 0; i < 500; ++i) {
      std::vector<NodeId> cur = RandomExtent(&rng, cls);
      const std::string context =
          "class " + std::to_string(cls) + " i " + std::to_string(i);
      if (i % 2 == 1) ExpectKernelsMatchOracle(prev, cur, context);
      if (i == 250 && !cross.empty()) {
        ExpectKernelsMatchOracle(cross, cur, context + " cross");
      }
      prev = std::move(cur);
    }
    cross = prev;
  }
}

TEST(ExtentEquivalenceTest, DegenerateShapes) {
  const std::vector<NodeId> empty;
  const std::vector<NodeId> singleton = {42};
  std::vector<NodeId> all(4096);
  for (NodeId i = 0; i < all.size(); ++i) all[i] = i;  // "All nodes".
  const std::vector<std::vector<NodeId>> shapes = {empty, singleton, all,
                                                   {0}, {4095}, {0, 4095}};
  for (size_t i = 0; i < shapes.size(); ++i) {
    for (size_t j = 0; j < shapes.size(); ++j) {
      ExpectKernelsMatchOracle(shapes[i], shapes[j],
                               "shape " + std::to_string(i) + "x" +
                                   std::to_string(j));
    }
  }
}

TEST(ExtentEquivalenceTest, AccessorsAgreeAcrossReps) {
  Rng rng(0x51c6e5);
  for (int cls = 0; cls < 4; ++cls) {
    const std::vector<NodeId> v = RandomExtent(&rng, cls);
    const Extent e(v);
    ASSERT_EQ(e.size(), v.size());
    ASSERT_EQ(e.front(), v.front());
    ASSERT_EQ(e.back(), v.back());
    std::vector<NodeId> iterated;
    for (NodeId x : e) iterated.push_back(x);
    EXPECT_EQ(iterated, v);
    std::vector<NodeId> appended;
    e.AppendTo(&appended);
    EXPECT_EQ(appended, v);
    // Membership probes, both hits and near-misses.
    for (size_t i = 0; i < v.size(); i += 1 + v.size() / 64) {
      EXPECT_TRUE(e.Contains(v[i]));
    }
    EXPECT_FALSE(e.Contains(v.back() + 1));
    if (v.front() > 0) {
      EXPECT_FALSE(e.Contains(v.front() - 1));
    }
    // Equality is by members, not by allocation.
    EXPECT_EQ(e, Extent::FromSorted(std::vector<NodeId>(v)));
    EXPECT_EQ(e, v);
  }
  const Extent none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_TRUE(none.ids().empty());
  EXPECT_FALSE(none.Contains(0));
  EXPECT_EQ(none, Extent::FromSorted({}));
}

}  // namespace
}  // namespace mrx
