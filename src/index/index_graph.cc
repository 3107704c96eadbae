#include "index/index_graph.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <sstream>

namespace mrx {

namespace {

void SortUnique(std::vector<IndexNodeId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

uint32_t SplitScratch::NextPass(size_t capacity) {
  if (seen.size() < capacity) {
    seen.resize(capacity, 0);
    slot.resize(capacity, 0);
  }
  if (++pass == 0) {  // Wrapped: old stamps could collide with new ones.
    std::fill(seen.begin(), seen.end(), 0);
    pass = 1;
  }
  return pass;
}

IndexGraph IndexGraph::LabelPartition(const DataGraph& g) {
  const size_t num_labels = g.symbols().size();
  std::vector<uint32_t> block_of(g.num_nodes());
  // Blocks are labels with at least one node, renumbered densely.
  std::vector<uint32_t> block_of_label(num_labels, static_cast<uint32_t>(-1));
  uint32_t num_blocks = 0;
  for (LabelId l = 0; l < num_labels; ++l) {
    if (!g.nodes_with_label(l).empty()) block_of_label[l] = num_blocks++;
  }
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    block_of[n] = block_of_label[g.label(n)];
  }
  std::vector<int32_t> block_k(num_blocks, 0);
  return FromPartition(g, block_of, num_blocks, block_k);
}

IndexGraph IndexGraph::FromPartition(const DataGraph& g,
                                     const std::vector<uint32_t>& block_of,
                                     uint32_t num_blocks,
                                     const std::vector<int32_t>& block_k) {
  assert(block_of.size() == g.num_nodes());
  assert(block_k.size() == num_blocks);

  IndexGraph ig;
  ig.graph_ = &g;
  ig.nodes_.resize(num_blocks);
  ig.node_of_.assign(g.num_nodes(), kInvalidIndexNode);
  ig.num_alive_ = num_blocks;

  // Stage extents as plain vectors (NodeIds visited ascending, so they come
  // out sorted), then seal each into its normalized representation.
  std::vector<std::vector<NodeId>> staged(num_blocks);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    IndexNodeId b = block_of[n];
    assert(b < num_blocks);
    staged[b].push_back(n);
    ig.node_of_[n] = b;
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    Node& node = ig.nodes_[b];
    assert(!staged[b].empty());
    node.k = block_k[b];
    node.label = g.label(staged[b].front());
    node.extent = Extent::FromSorted(std::move(staged[b]));
  }
  // Adjacency from data edges.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    IndexNodeId bu = block_of[u];
    for (NodeId v : g.children(u)) {
      ig.nodes_[bu].children.push_back(block_of[v]);
      ig.nodes_[block_of[v]].parents.push_back(bu);
    }
  }
  for (Node& node : ig.nodes_) {
    SortUnique(&node.children);
    SortUnique(&node.parents);
  }
  ig.first_stale_ = num_blocks;
  return ig;
}

size_t IndexGraph::num_edges() const {
  assert(first_stale_ == nodes_.size());
  size_t edges = 0;
  for (const Node& node : nodes_) {
    if (node.alive) edges += node.children.size();
  }
  return edges;
}

std::vector<IndexNodeId> IndexGraph::AliveNodes() const {
  std::vector<IndexNodeId> out;
  out.reserve(num_alive_);
  for (IndexNodeId v = 0; v < nodes_.size(); ++v) {
    if (nodes_[v].alive) out.push_back(v);
  }
  return out;
}

void IndexGraph::ComputeAdjacency(IndexNodeId v, SplitScratch* scratch) {
  Node& node = nodes_[v];
  // Two passes over the decoded extent, one per direction, stamping
  // neighbour ids as they are met, so only the distinct ones are kept and
  // sorted rather than one entry per data edge.
  std::vector<NodeId>& members = scratch->members;
  members.clear();
  node.extent.AppendTo(&members);
  auto collect = [&](auto neighbours, std::vector<IndexNodeId>* out) {
    out->clear();
    const uint32_t pass = scratch->NextPass(nodes_.size());
    for (NodeId o : members) {
      for (NodeId x : neighbours(o)) {
        const IndexNodeId id = node_of_[x];
        if (scratch->seen[id] != pass) {
          scratch->seen[id] = pass;
          out->push_back(id);
        }
      }
    }
    std::sort(out->begin(), out->end());
  };
  collect([&](NodeId o) { return graph_->children(o); }, &node.children);
  collect([&](NodeId o) { return graph_->parents(o); }, &node.parents);
}

std::vector<IndexNodeId> IndexGraph::ReplaceNode(IndexNodeId v,
                                                 std::vector<Part> parts) {
  assert(alive(v));
  assert(!parts.empty());
#ifndef NDEBUG
  {
    size_t total = 0;
    for (const Part& p : parts) {
      assert(!p.extent.empty());
      assert(std::is_sorted(p.extent.begin(), p.extent.end()));
      total += p.extent.size();
    }
    assert(total == nodes_[v].extent.size());
    for (const Part& p : parts) {
      for (NodeId o : p.extent) assert(node_of_[o] == v);
    }
  }
#endif

  const LabelId label = nodes_[v].label;
  if (parts.size() > 1) {
    ++refinement_stats_.splits;
    refinement_stats_.nodes_created += parts.size() - 1;
    refinement_stats_.extent_moves += nodes_[v].extent.size();
  }
  // Neighbours still listing v drop it in the next RebuildAdjacency.
  nodes_[v].alive = false;
  nodes_[v].extent = Extent();
  nodes_[v].children = {};
  nodes_[v].parents = {};
  --num_alive_;

  // Create the parts and remap their data nodes; their ids are appended,
  // so they are all at or past first_stale_.
  std::vector<IndexNodeId> part_ids;
  part_ids.reserve(parts.size());
  for (Part& part : parts) {
    IndexNodeId id = static_cast<IndexNodeId>(nodes_.size());
    part_ids.push_back(id);
    Node node;
    node.label = label;
    node.k = part.k;
    node.extent = std::move(part.extent);
    nodes_.push_back(std::move(node));
    ++num_alive_;
    for (NodeId o : nodes_.back().extent) node_of_[o] = id;
  }
  return part_ids;
}

void IndexGraph::RebuildAdjacency(SplitScratch* scratch) {
  const IndexNodeId first = first_stale_;
  const IndexNodeId end = static_cast<IndexNodeId>(nodes_.size());
  if (first == end) return;
  // New nodes: both lists straight from the data graph (node_of_ is final,
  // so edges among new nodes come out consistent on both sides).
  for (IndexNodeId v = first; v < end; ++v) {
    if (nodes_[v].alive) ComputeAdjacency(v, scratch);
  }
  // Older nodes: every one listing a node replaced since the last rebuild
  // has a data edge into a new node, so it is reached here. New ids exceed
  // every id already listed and are appended ascending, so the lists stay
  // sorted once the dead ids are dropped.
  const uint32_t pass = scratch->NextPass(end);
  std::vector<IndexNodeId> older;
  auto touch = [&](IndexNodeId w) {
    if (scratch->seen[w] != pass) {
      scratch->seen[w] = pass;
      older.push_back(w);
    }
  };
  for (IndexNodeId v = first; v < end; ++v) {
    if (!nodes_[v].alive) continue;
    for (IndexNodeId c : nodes_[v].children) {
      if (c < first) {
        nodes_[c].parents.push_back(v);
        touch(c);
      }
    }
    for (IndexNodeId p : nodes_[v].parents) {
      if (p < first) {
        nodes_[p].children.push_back(v);
        touch(p);
      }
    }
  }
  auto dead = [&](IndexNodeId x) { return !nodes_[x].alive; };
  for (IndexNodeId w : older) {
    std::erase_if(nodes_[w].parents, dead);
    std::erase_if(nodes_[w].children, dead);
  }
  first_stale_ = end;
}

std::vector<NodeId> IndexGraph::Pred(const std::vector<NodeId>& s) const {
  std::vector<NodeId> out;
  for (NodeId o : s) {
    auto ps = graph_->parents(o);
    out.insert(out.end(), ps.begin(), ps.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> IndexGraph::Pred(const Extent& s) const {
  std::vector<NodeId> out;
  for (NodeId o : s) {
    auto ps = graph_->parents(o);
    out.insert(out.end(), ps.begin(), ps.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<IndexNodeId> IndexGraph::ParentHolders(
    const std::vector<NodeId>& members) const {
  std::vector<IndexNodeId> out;
  for (NodeId m : members) {
    for (NodeId p : graph_->parents(m)) out.push_back(node_of_[p]);
  }
  SortUnique(&out);
  return out;
}

std::vector<std::vector<NodeId>> IndexGraph::SplitByParents(
    const std::vector<NodeId>& members, const std::vector<IndexNodeId>& us,
    SplitScratch* scratch) const {
  if (members.empty()) return {};
  if (us.empty()) return {members};

  // Column list of member i: the ascending positions j such that us[j]
  // holds a data parent of the member — one pass over its in-edges.
  std::vector<uint32_t>& offsets = scratch->offsets;
  std::vector<uint32_t>& columns = scratch->columns;
  const size_t n = members.size();
  offsets.resize(n + 1);
  columns.clear();
  for (size_t i = 0; i < n; ++i) {
    offsets[i] = static_cast<uint32_t>(columns.size());
    for (NodeId p : graph_->parents(members[i])) {
      auto it = std::lower_bound(us.begin(), us.end(), node_of_[p]);
      if (it != us.end() && *it == node_of_[p]) {
        columns.push_back(static_cast<uint32_t>(it - us.begin()));
      }
    }
    auto first = columns.begin() + offsets[i];
    std::sort(first, columns.end());
    columns.erase(std::unique(first, columns.end()), columns.end());
  }
  offsets[n] = static_cast<uint32_t>(columns.size());
  auto columns_of = [&](uint32_t i) {
    return std::span<const uint32_t>(columns.data() + offsets[i],
                                     offsets[i + 1] - offsets[i]);
  };

  // The per-u loop orders pieces by their membership bits, u ascending
  // most significant, "in Succ(u)" before "not in". On column lists that
  // is lexicographic order where the end of a list ranks above every
  // column: at the first difference the smaller column sorts first, and a
  // strict prefix sorts after the longer list. The sort is stable, so
  // members stay ascending within a piece.
  auto before = [&](uint32_t a, uint32_t b) {
    std::span<const uint32_t> x = columns_of(a);
    std::span<const uint32_t> y = columns_of(b);
    const size_t common = std::min(x.size(), y.size());
    for (size_t j = 0; j < common; ++j) {
      if (x[j] != y[j]) return x[j] < y[j];
    }
    return x.size() > y.size();
  };
  std::vector<uint32_t>& order = scratch->order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), before);

  std::vector<std::vector<NodeId>> pieces;
  for (size_t r = 0; r < n; ++r) {
    if (r == 0 || !std::ranges::equal(columns_of(order[r - 1]),
                                      columns_of(order[r]))) {
      pieces.emplace_back();
    }
    pieces.back().push_back(members[order[r]]);
  }
  return pieces;
}

Status IndexGraph::CheckConsistency() const {
  if (first_stale_ != nodes_.size()) {
    return Status::Internal("adjacency not rebuilt after ReplaceNode");
  }
  const DataGraph& g = *graph_;
  std::vector<char> seen(g.num_nodes(), 0);
  size_t alive_count = 0;
  for (IndexNodeId v = 0; v < nodes_.size(); ++v) {
    const Node& node = nodes_[v];
    if (!node.alive) continue;
    ++alive_count;
    if (node.extent.empty()) {
      return Status::Internal("alive index node with empty extent");
    }
    if (!std::is_sorted(node.extent.begin(), node.extent.end())) {
      return Status::Internal("extent not sorted");
    }
    for (NodeId o : node.extent) {
      if (seen[o]) return Status::Internal("data node in two extents");
      seen[o] = 1;
      if (node_of_[o] != v) return Status::Internal("node_of out of sync");
      if (g.label(o) != node.label) {
        return Status::Internal("extent label not uniform");
      }
    }
  }
  if (alive_count != num_alive_) {
    return Status::Internal("alive counter out of sync");
  }
  for (NodeId o = 0; o < g.num_nodes(); ++o) {
    if (!seen[o]) return Status::Internal("data node in no extent");
  }
  // Property 2: edges match data edges exactly, both directions.
  for (IndexNodeId v = 0; v < nodes_.size(); ++v) {
    const Node& node = nodes_[v];
    if (!node.alive) continue;
    std::vector<IndexNodeId> children;
    std::vector<IndexNodeId> parents;
    for (NodeId o : node.extent) {
      for (NodeId c : g.children(o)) children.push_back(node_of_[c]);
      for (NodeId p : g.parents(o)) parents.push_back(node_of_[p]);
    }
    SortUnique(&children);
    SortUnique(&parents);
    if (children != node.children) {
      return Status::Internal("children list does not match Property 2");
    }
    if (parents != node.parents) {
      return Status::Internal("parents list does not match Property 2");
    }
    for (IndexNodeId c : node.children) {
      if (!nodes_[c].alive) return Status::Internal("edge to dead node");
    }
    for (IndexNodeId p : node.parents) {
      if (!nodes_[p].alive) return Status::Internal("edge from dead node");
    }
  }
  return Status::Ok();
}

std::string IndexGraph::DebugString() const {
  std::ostringstream os;
  for (IndexNodeId v = 0; v < nodes_.size(); ++v) {
    const Node& node = nodes_[v];
    if (!node.alive) continue;
    os << v << "[" << graph_->symbols().Name(node.label) << ",k=" << node.k
       << "]{";
    bool first = true;
    for (NodeId o : node.extent) {
      if (!first) os << ",";
      os << o;
      first = false;
    }
    os << "} ->";
    for (IndexNodeId c : node.children) os << " " << c;
    os << "\n";
  }
  return os.str();
}

}  // namespace mrx
