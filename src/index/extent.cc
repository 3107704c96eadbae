#include "index/extent.h"

#include <ostream>

namespace mrx {

Extent Extent::FromSorted(std::vector<NodeId> sorted) {
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  assert(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  if (sorted.empty()) return Extent();
  // Extents live as long as the index holds them; refinement builds member
  // lists by push_back, so drop their growth slack once here.
  sorted.shrink_to_fit();
  return Extent(std::make_shared<const std::vector<NodeId>>(std::move(sorted)));
}

std::ostream& operator<<(std::ostream& os, const Extent& extent) {
  os << "Extent{";
  size_t shown = 0;
  for (NodeId id : extent) {
    if (shown == 16) {
      os << ", ...";
      break;
    }
    if (shown > 0) os << ", ";
    os << id;
    ++shown;
  }
  os << "} (" << extent.size() << " elems)";
  return os;
}

}  // namespace mrx
