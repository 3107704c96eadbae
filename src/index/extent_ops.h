#ifndef MRX_INDEX_EXTENT_OPS_H_
#define MRX_INDEX_EXTENT_OPS_H_

#include <algorithm>
#include <vector>

#include "graph/data_graph.h"
#include "index/extent.h"
#include "obs/query_cost.h"

namespace mrx {

/// \file
/// Shared sorted-extent algebra for the index family (docs/PERFORMANCE.md).
///
/// Every structural index in the reproduction manipulates *extents*:
/// sorted, duplicate-free sets of data-node ids. The split kernels of
/// M(k), M*(k) and D(k) repeatedly intersect and subtract them; before
/// this header they each carried a private copy of the same linear-merge
/// helpers. The kernels here are the single implementation, plus an
/// adaptive *galloping* intersection for the skewed case (a handful of
/// relevant nodes against a huge extent) that split relevance filtering
/// hits constantly.
///
/// The Extent flavors call the same kernels on the extents' member arrays.
/// Every flavor charges the QueryCostScope hooks with *logical* element
/// counts (the §5 cost metric).

/// Size ratio beyond which Intersect/Difference switch from the linear
/// merge to galloping (exponential search) through the larger input. At
/// 16x, the crossover comfortably favors galloping (|a| log|b| work versus
/// |a| + |b|) while keeping near-balanced inputs on the branch-predictable
/// merge.
inline constexpr size_t kGallopRatio = 16;

namespace extent_internal {

/// First index i in [from, v.size()) with v[i] >= key, found by doubling
/// probes from `from` and a binary search over the final bracket. O(log d)
/// where d is the distance advanced — the property that makes a sweep of a
/// small set through a big one O(small * log big) total.
inline size_t GallopLowerBound(const std::vector<NodeId>& v, size_t from,
                               NodeId key) {
  size_t bound = 1;
  while (from + bound < v.size() && v[from + bound] < key) bound <<= 1;
  const size_t lo = from + (bound >> 1);
  const size_t hi = from + bound < v.size() ? from + bound + 1 : v.size();
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<ptrdiff_t>(lo),
                       v.begin() + static_cast<ptrdiff_t>(hi), key) -
      v.begin());
}

/// a ∩ b when |a| is far smaller than |b|: walk a, gallop through b.
inline void IntersectGallop(const std::vector<NodeId>& a,
                            const std::vector<NodeId>& b,
                            std::vector<NodeId>* out) {
  size_t j = 0;
  for (const NodeId x : a) {
    j = GallopLowerBound(b, j, x);
    if (j == b.size()) return;
    if (b[j] == x) {
      out->push_back(x);
      ++j;
    }
  }
}

/// a \ b when |a| is far smaller than |b|: walk a, gallop through b.
inline void DifferenceGallop(const std::vector<NodeId>& a,
                             const std::vector<NodeId>& b,
                             std::vector<NodeId>* out) {
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const NodeId x = a[i];
    j = GallopLowerBound(b, j, x);
    if (j == b.size()) {
      out->insert(out->end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
      return;
    }
    if (b[j] != x) out->push_back(x);
  }
}

/// Uncounted a ∩ b: the kernel body without the cost hook, so a caller that
/// charges the hook itself (the Extent flavors) charges it exactly once.
inline std::vector<NodeId> IntersectVec(const std::vector<NodeId>& a,
                                        const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  if (a.empty() || b.empty()) return out;
  if (a.size() * kGallopRatio < b.size()) {
    out.reserve(a.size());
    IntersectGallop(a, b, &out);
  } else if (b.size() * kGallopRatio < a.size()) {
    out.reserve(b.size());
    IntersectGallop(b, a, &out);
  } else {
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
  }
  return out;
}

/// Uncounted overlap test (see IntersectVec): true iff a ∩ b != ∅,
/// returning at the first common member. Adaptive like the merge kernels:
/// gallops through the larger side under heavy skew.
inline bool OverlapsVec(const std::vector<NodeId>& a,
                        const std::vector<NodeId>& b) {
  if (a.empty() || b.empty()) return false;
  if (a.back() < b.front() || b.back() < a.front()) return false;
  const std::vector<NodeId>& small = a.size() <= b.size() ? a : b;
  const std::vector<NodeId>& large = a.size() <= b.size() ? b : a;
  if (small.size() * kGallopRatio < large.size()) {
    size_t j = 0;
    for (const NodeId x : small) {
      j = GallopLowerBound(large, j, x);
      if (j == large.size()) return false;
      if (large[j] == x) return true;
    }
    return false;
  }
  size_t i = 0, j = 0;
  while (i < small.size() && j < large.size()) {
    const NodeId x = small[i];
    const NodeId y = large[j];
    if (x == y) return true;
    if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Uncounted a \ b (see IntersectVec).
inline std::vector<NodeId> DifferenceVec(const std::vector<NodeId>& a,
                                         const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  if (a.empty()) return out;
  if (b.empty()) return a;
  if (a.size() * kGallopRatio < b.size()) {
    out.reserve(a.size());
    DifferenceGallop(a, b, &out);
  } else {
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  }
  return out;
}

}  // namespace extent_internal

/// Sorted-set intersection a ∩ b. Inputs must be sorted ascending and
/// duplicate-free (the extent invariant); the output is too. Adaptive:
/// linear merge for comparable sizes, galloping through the larger side
/// when the sizes differ by more than kGallopRatio.
inline std::vector<NodeId> Intersect(const std::vector<NodeId>& a,
                                     const std::vector<NodeId>& b) {
  // Cost hook (a thread-local load + branch; active only under a
  // QueryCostScope): one kernel call, both inputs charged as scanned.
  obs::CountIntersect(a.size() + b.size());
  return extent_internal::IntersectVec(a, b);
}

/// Sorted-set difference a \ b, same contracts as Intersect. Only the
/// |a| << |b| skew benefits from galloping (the output is a subset of a);
/// a large `a` against a small `b` is already near-linear in |a| on the
/// merge path.
inline std::vector<NodeId> Difference(const std::vector<NodeId>& a,
                                      const std::vector<NodeId>& b) {
  obs::CountDifference(a.size() + b.size());
  return extent_internal::DifferenceVec(a, b);
}

/// Extent flavors of the kernels above: thin calls into the vector
/// kernels on the extents' member arrays, charging the same logical sizes.
/// Extents holding the same allocation are equal, so their intersection is
/// a refcount bump and their difference is empty (still fully charged).
inline Extent Intersect(const Extent& a, const Extent& b) {
  obs::CountIntersect(a.size() + b.size());
  if (a.SharesIds(b)) return a;
  return Extent::FromSorted(extent_internal::IntersectVec(a.ids(), b.ids()));
}

inline Extent Difference(const Extent& a, const Extent& b) {
  obs::CountDifference(a.size() + b.size());
  if (a.SharesIds(b)) return Extent();
  if (b.empty()) return a;
  return Extent::FromSorted(extent_internal::DifferenceVec(a.ids(), b.ids()));
}

/// Mixed flavors for the refinement hot path: an index node's extent
/// against a plain sorted vector (relevant sets, Succ results). Outputs
/// are plain sorted vectors.
inline std::vector<NodeId> Intersect(const Extent& a,
                                     const std::vector<NodeId>& b) {
  return Intersect(a.ids(), b);
}
inline std::vector<NodeId> Intersect(const std::vector<NodeId>& a,
                                     const Extent& b) {
  return Intersect(a, b.ids());
}
inline std::vector<NodeId> Difference(const Extent& a,
                                      const std::vector<NodeId>& b) {
  return Difference(a.ids(), b);
}
inline std::vector<NodeId> Difference(const std::vector<NodeId>& a,
                                      const Extent& b) {
  return Difference(a, b.ids());
}

/// True iff a ∩ b is non-empty. Replaces the `Intersect(a, b).empty()`
/// idiom on validation paths: returns at the FIRST common member and
/// builds nothing, but charges CountIntersect with the same logical sizes
/// the materializing call would (an early exit must not make a query look
/// cheaper).
inline bool Overlaps(const std::vector<NodeId>& a,
                     const std::vector<NodeId>& b) {
  obs::CountIntersect(a.size() + b.size());
  return extent_internal::OverlapsVec(a, b);
}
inline bool Overlaps(const Extent& a, const Extent& b) {
  return Overlaps(a.ids(), b.ids());
}
inline bool Overlaps(const std::vector<NodeId>& a, const Extent& b) {
  return Overlaps(a, b.ids());
}
inline bool Overlaps(const Extent& a, const std::vector<NodeId>& b) {
  return Overlaps(a.ids(), b);
}

/// k-way intersection folding in ascending size order (size is the kernel
/// cost estimate): the running result is seeded from the smallest operand
/// and stays bounded by it, so every fold step runs a small probe side
/// against the next-cheapest operand, with an early exit the moment the
/// running result is empty. Null entries are skipped. Replaces left-fold
/// `Intersect` chains on the query hot path.
inline Extent IntersectMany(std::vector<const Extent*> operands) {
  std::erase(operands, nullptr);
  if (operands.empty()) return Extent();
  std::sort(operands.begin(), operands.end(),
            [](const Extent* x, const Extent* y) {
              return x->size() < y->size();
            });
  Extent result = *operands.front();
  for (size_t i = 1; i < operands.size() && !result.empty(); ++i) {
    result = Intersect(result, *operands[i]);
  }
  return result;
}

/// Vector flavor of IntersectMany for hot paths that fold plain sorted
/// vectors (twig match-set combination): same ascending-size ordering rule
/// and empty-result early exit. Null entries are skipped; an all-null or
/// empty list yields the empty set.
inline std::vector<NodeId> IntersectMany(
    std::vector<const std::vector<NodeId>*> operands) {
  std::erase(operands, nullptr);
  if (operands.empty()) return {};
  std::sort(operands.begin(), operands.end(),
            [](const std::vector<NodeId>* x, const std::vector<NodeId>* y) {
              return x->size() < y->size();
            });
  std::vector<NodeId> result = *operands.front();
  for (size_t i = 1; i < operands.size() && !result.empty(); ++i) {
    result = Intersect(result, *operands[i]);
  }
  return result;
}

/// Sorts and deduplicates in place — the normalization every extent and
/// index-node id list goes through. Works for NodeId and IndexNodeId
/// vectors alike.
template <typename Id>
inline void SortUnique(std::vector<Id>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace mrx

#endif  // MRX_INDEX_EXTENT_OPS_H_
