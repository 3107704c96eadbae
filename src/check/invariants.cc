#include "check/invariants.h"

#include <algorithm>
#include <sstream>

#include "index/bisimulation.h"

namespace mrx::check {
namespace {

std::string NodeStr(const DataGraph& g, NodeId n) {
  std::ostringstream out;
  out << n << ":" << g.label_name(n);
  return out.str();
}

}  // namespace

bool PairwiseBisimilarity::Bisimilar(NodeId u, NodeId v, int k) {
  if (g_.label(u) != g_.label(v)) return false;
  if (k <= 0 || u == v) return true;
  auto key = std::make_tuple(std::min(u, v), std::max(u, v), k);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  memo_[key] = true;  // Coinductive default so cycles don't diverge.
  const bool ok = MatchParents(u, v, k) && MatchParents(v, u, k);
  memo_[key] = ok;
  return ok;
}

bool PairwiseBisimilarity::MatchParents(NodeId u, NodeId v, int k) {
  for (NodeId up : g_.parents(u)) {
    bool matched = false;
    for (NodeId vp : g_.parents(v)) {
      if (Bisimilar(up, vp, k - 1)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::vector<std::string> AuditDataGraphCsr(const DataGraph& g) {
  std::vector<std::string> violations;
  auto fail = [&violations](const std::string& msg) {
    violations.push_back("csr: " + msg);
  };

  if (g.num_nodes() == 0) {
    fail("graph has no nodes");
    return violations;
  }
  if (g.root() >= g.num_nodes()) {
    fail("root out of range");
    return violations;
  }

  // The child and parent CSRs must describe the same edge multiset.
  std::map<std::pair<NodeId, NodeId>, int64_t> balance;
  size_t child_edges = 0;
  size_t reference_edges = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    auto children = g.children(n);
    auto kinds = g.child_kinds(n);
    if (children.size() != kinds.size()) {
      fail("children/kinds length mismatch at node " + NodeStr(g, n));
      return violations;
    }
    child_edges += children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i] >= g.num_nodes()) {
        fail("child target out of range at node " + NodeStr(g, n));
        return violations;
      }
      ++balance[{n, children[i]}];
      if (kinds[i] == EdgeKind::kReference) ++reference_edges;
    }
    for (NodeId p : g.parents(n)) {
      if (p >= g.num_nodes()) {
        fail("parent source out of range at node " + NodeStr(g, n));
        return violations;
      }
      --balance[{p, n}];
    }
  }
  for (const auto& [edge, count] : balance) {
    if (count != 0) {
      std::ostringstream out;
      out << "edge (" << edge.first << " -> " << edge.second
          << ") appears " << (count > 0 ? "only in children" : "only in parents")
          << " CSR (imbalance " << count << ")";
      fail(out.str());
    }
  }
  if (child_edges != g.num_edges()) {
    fail("num_edges() disagrees with the child CSR");
  }
  if (reference_edges != g.num_reference_edges()) {
    fail("num_reference_edges() disagrees with child kinds");
  }

  // Label buckets: each bucket holds exactly the nodes with that label,
  // ascending, and every node is in its label's bucket.
  size_t bucketed = 0;
  for (LabelId l = 0; l < g.symbols().size(); ++l) {
    NodeId prev = kInvalidNode;
    for (NodeId n : g.nodes_with_label(l)) {
      if (n >= g.num_nodes()) {
        fail("label bucket entry out of range");
        return violations;
      }
      if (g.label(n) != l) {
        fail("node " + NodeStr(g, n) + " listed under wrong label bucket");
      }
      if (prev != kInvalidNode && n <= prev) {
        fail("label bucket for label " + std::to_string(l) + " not ascending");
      }
      prev = n;
      ++bucketed;
    }
  }
  if (bucketed != g.num_nodes()) {
    fail("label buckets cover " + std::to_string(bucketed) + " of " +
         std::to_string(g.num_nodes()) + " nodes");
  }
  return violations;
}

std::vector<std::string> AuditIndexGraph(const IndexGraph& ig,
                                         size_t pair_cap, int32_t k_cap) {
  std::vector<std::string> violations;

  // `cover`: partition validity, label uniformity, Property 2 adjacency —
  // IndexGraph's own self-check, surfaced under the audit id.
  if (Status s = ig.CheckConsistency(); !s.ok()) {
    violations.push_back("cover: " + s.ToString());
    return violations;  // Extents unreliable; skip the bisim audit.
  }

  // `bisim`: every extent is k-bisimilar for its recorded k, against the
  // independent pairwise oracle.
  PairwiseBisimilarity oracle(ig.data());
  for (IndexNodeId v = 0; v < ig.capacity(); ++v) {
    if (!ig.alive(v)) continue;
    const IndexGraph::Node& node = ig.node(v);
    const int32_t k = std::min(node.k, k_cap);
    const size_t members = std::min(node.extent.size(), pair_cap + 1);
    const NodeId* sampled = node.extent.begin();
    for (size_t i = 1; i < members; ++i) {
      if (!oracle.Bisimilar(sampled[0], sampled[i], k)) {
        std::ostringstream out;
        out << "bisim: index node " << v << " (k=" << node.k << ") holds "
            << NodeStr(ig.data(), sampled[0]) << " and "
            << NodeStr(ig.data(), sampled[i]) << " which are not " << k
            << "-bisimilar";
        violations.push_back(out.str());
      }
    }
  }
  return violations;
}

std::vector<std::string> AuditMStarIndex(const MStarIndex& index,
                                         size_t pair_cap) {
  std::vector<std::string> violations;
  auto fail = [&violations](const std::string& msg) {
    violations.push_back("mstar: " + msg);
  };

  if (Status s = index.CheckProperties(); !s.ok()) {
    fail(s.ToString());
  }

  for (size_t ci = 0; ci < index.num_components(); ++ci) {
    const IndexGraph& component = index.component(ci);
    for (std::string& v : AuditIndexGraph(component, pair_cap)) {
      violations.push_back("I" + std::to_string(ci) + " " + std::move(v));
    }

    // Resolution monotonicity: similarity caps and non-shrinking size.
    for (IndexNodeId v = 0; v < component.capacity(); ++v) {
      if (!component.alive(v)) continue;
      if (component.node(v).k > static_cast<int32_t>(ci)) {
        fail("I" + std::to_string(ci) + " node " + std::to_string(v) +
             " exceeds the component similarity cap (k=" +
             std::to_string(component.node(v).k) + ")");
      }
    }
    if (ci == 0) continue;
    const IndexGraph& coarser = index.component(ci - 1);
    if (component.num_nodes() < coarser.num_nodes()) {
      fail("I" + std::to_string(ci) + " has fewer nodes than I" +
           std::to_string(ci - 1) + " (hierarchy must refine)");
    }

    // Supernode containment: each node's extent lies inside its
    // supernode's extent one component up.
    for (IndexNodeId v = 0; v < component.capacity(); ++v) {
      if (!component.alive(v)) continue;
      const IndexNodeId sup = index.supernode(ci, v);
      if (sup == kInvalidIndexNode || sup >= coarser.capacity() ||
          !coarser.alive(sup)) {
        fail("I" + std::to_string(ci) + " node " + std::to_string(v) +
             " has a dead or invalid supernode");
        continue;
      }
      for (NodeId o : component.node(v).extent) {
        if (coarser.index_of(o) != sup) {
          fail("I" + std::to_string(ci) + " node " + std::to_string(v) +
               " holds data node " + std::to_string(o) +
               " outside its supernode's extent");
          break;
        }
      }
    }
  }
  return violations;
}

}  // namespace mrx::check
