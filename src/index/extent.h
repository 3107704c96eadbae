#ifndef MRX_INDEX_EXTENT_H_
#define MRX_INDEX_EXTENT_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include "graph/data_graph.h"

namespace mrx {

/// \file
/// The extent value type.
///
/// Every structural index in the reproduction stands on *extents*: sorted,
/// duplicate-free sets of data-node ids. An Extent holds one immutable
/// sorted `std::vector<NodeId>`, allocated once and shared, so copying an
/// Extent (index clones, `IndexGraph::Part` sharing, answer-cache entries)
/// is one refcount. The paper's §5 cost metric counts index nodes visited
/// and data nodes validated, not extent bytes, and the flat array is the
/// fastest form to serve them from (docs/PERFORMANCE.md "Extents").

/// \brief An immutable sorted duplicate-free set of data-node ids.
class Extent {
 public:
  /// Empty set.
  Extent() = default;

  /// Adopts a sorted duplicate-free vector. Implicit on purpose: every
  /// boundary that builds a member list hands it over on the way in.
  Extent(std::vector<NodeId> sorted) : Extent(FromSorted(std::move(sorted))) {}

  static Extent FromSorted(std::vector<NodeId> sorted);

  /// The members, ascending. An empty extent returns a shared empty vector.
  const std::vector<NodeId>& ids() const {
    return ids_ == nullptr ? kNoIds : *ids_;
  }

  size_t size() const { return ids_ == nullptr ? 0 : ids_->size(); }
  bool empty() const { return ids_ == nullptr; }
  NodeId front() const {
    assert(!empty());
    return ids_->front();
  }
  NodeId back() const {
    assert(!empty());
    return ids_->back();
  }

  /// A copy of the members, for a caller that must own them.
  std::vector<NodeId> Materialize() const { return ids(); }

  bool Contains(NodeId id) const {
    return std::binary_search(begin(), end(), id);
  }

  /// Appends all members to `out` in ascending order. Reserves nothing
  /// itself: a caller that appends several extents reserves their total
  /// once.
  void AppendTo(std::vector<NodeId>* out) const {
    out->insert(out->end(), begin(), end());
  }

  const NodeId* begin() const { return ids().data(); }
  const NodeId* end() const { return ids().data() + size(); }

  /// True iff both extents hold the same allocation (then they are equal;
  /// the converse need not hold).
  bool SharesIds(const Extent& o) const { return ids_ == o.ids_; }

  bool operator==(const Extent& o) const {
    return ids_ == o.ids_ || ids() == o.ids();
  }
  bool operator==(const std::vector<NodeId>& v) const { return ids() == v; }

 private:
  explicit Extent(std::shared_ptr<const std::vector<NodeId>> ids)
      : ids_(std::move(ids)) {}

  inline static const std::vector<NodeId> kNoIds;

  /// Null iff the extent is empty.
  std::shared_ptr<const std::vector<NodeId>> ids_;
};

/// Debug/printing support (gtest failure messages); prints up to 16
/// members then an ellipsis with the size.
std::ostream& operator<<(std::ostream& os, const Extent& extent);

}  // namespace mrx

#endif  // MRX_INDEX_EXTENT_H_
