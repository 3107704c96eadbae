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
  // out sorted), then seal each into an extent.
  std::vector<std::vector<NodeId>> staged(num_blocks);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    IndexNodeId b = block_of[n];
    assert(b < num_blocks);
    staged[b].push_back(n);
    ig.node_of_[n] = b;
  }
  ig.by_label_.resize(g.symbols().size());
  for (uint32_t b = 0; b < num_blocks; ++b) {
    Node& node = ig.nodes_[b];
    assert(!staged[b].empty());
    node.k = block_k[b];
    node.label = g.label(staged[b].front());
    node.extent = Extent::FromSorted(std::move(staged[b]));
    LabelNodes& same = ig.by_label_[node.label];
    same.ids.push_back(b);
    same.derived = static_cast<uint32_t>(same.ids.size());
  }
  // Adjacency one block at a time (Property 2): walk the members' children
  // and stamp each target block with the block being walked, so a list
  // holds only distinct blocks and is allocated at its exact size. Parents
  // are the transpose; blocks are visited in order, so they come out
  // ascending.
  std::vector<IndexNodeId> stamp(num_blocks, kInvalidIndexNode);
  std::vector<uint32_t> in_degree(num_blocks, 0);
  std::vector<IndexNodeId> targets;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    targets.clear();
    for (NodeId o : ig.nodes_[b].extent) {
      for (NodeId c : g.children(o)) {
        const IndexNodeId t = block_of[c];
        if (stamp[t] != b) {
          stamp[t] = b;
          targets.push_back(t);
          ++in_degree[t];
        }
      }
    }
    std::sort(targets.begin(), targets.end());
    ig.nodes_[b].children.assign(targets.begin(), targets.end());
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    ig.nodes_[b].parents.reserve(in_degree[b]);
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    for (IndexNodeId t : ig.nodes_[b].children) {
      ig.nodes_[t].parents.push_back(b);
    }
  }
  ig.full_horizon_ = num_blocks;
  return ig;
}

size_t IndexGraph::num_edges() const {
  assert(!adjacency_stale_);
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

std::vector<IndexNodeId> IndexGraph::NodesWithLabel(LabelId label) const {
  std::vector<IndexNodeId> out;
  if (label >= by_label_.size()) return out;
  for (IndexNodeId v : by_label_[label].ids) {
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
  // Neighbours still listing v drop it in the next RebuildAdjacency, or
  // when a walk reads their children (ChildrenForWalk).
  nodes_[v].alive = false;
  nodes_[v].extent = Extent();
  nodes_[v].children = {};
  nodes_[v].parents = {};
  --num_alive_;
  LabelNodes& same = by_label_[label];
  ++same.dead;

  // Create the parts and remap their data nodes. Their ids are appended,
  // so they are past every horizon, and wait in their label's list until
  // a derivation reaches them.
  nodes_[v].first_part = static_cast<IndexNodeId>(nodes_.size());
  nodes_[v].num_parts = static_cast<uint32_t>(parts.size());
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
    same.ids.push_back(id);
  }
  adjacency_stale_ = true;
  return part_ids;
}

void IndexGraph::AppendNeighbour(IndexNodeId owner,
                                 std::vector<IndexNodeId>* list,
                                 IndexNodeId v) {
  if (list->empty() || list->back() < horizon(owner)) {
    appended_.push_back(owner);
  }
  list->push_back(v);
}

void IndexGraph::Derive(IndexNodeId v, SplitScratch* scratch) {
  // node_of_ is current, so v's own lists come out exact and sorted. A
  // derived neighbour lists v already iff v existed when it was derived.
  ComputeAdjacency(v, scratch);
  nodes_[v].horizon = static_cast<IndexNodeId>(nodes_.size());
  for (IndexNodeId c : nodes_[v].children) {
    const IndexNodeId h = horizon(c);
    if (h != 0 && v >= h) AppendNeighbour(c, &nodes_[c].parents, v);
  }
  for (IndexNodeId p : nodes_[v].parents) {
    const IndexNodeId h = horizon(p);
    if (h != 0 && v >= h) AppendNeighbour(p, &nodes_[p].children, v);
  }
}

void IndexGraph::DerivePartsOf(IndexNodeId x, SplitScratch* scratch) {
  std::vector<IndexNodeId> stack = {x};
  while (!stack.empty()) {
    const IndexNodeId y = stack.back();
    stack.pop_back();
    const Node& node = nodes_[y];
    if (!node.alive) {
      for (uint32_t j = 0; j < node.num_parts; ++j) {
        stack.push_back(node.first_part + j);
      }
    } else if (horizon(y) == 0) {
      Derive(y, scratch);
    }
  }
}

const std::vector<IndexNodeId>& IndexGraph::ChildrenForWalk(
    IndexNodeId u, LabelId label, SplitScratch* scratch) {
  assert(nodes_[u].alive);
  if (horizon(u) == 0) {
    Derive(u, scratch);  // node_of_ is current: exact, no dead ids.
    return nodes_[u].children;
  }
  // u's list held every child as of its horizon, and each child created
  // since is a part (of a part ...) of a child it names that has died
  // since; deriving such a part appends it to u's list. Parts keep their
  // node's label, so only dead children labelled `label` need it. Derives
  // may append to the list, hence the index loop up to the old size.
  std::vector<IndexNodeId>& children = nodes_[u].children;
  auto replaced = [&](IndexNodeId x) {
    return !nodes_[x].alive && nodes_[x].label == label;
  };
  bool any_replaced = false;
  for (size_t i = 0, n = children.size(); i < n; ++i) {
    if (replaced(children[i])) {
      any_replaced = true;
      DerivePartsOf(children[i], scratch);
    }
  }
  // Their parts are all derived now, so the dead ids have served. Other
  // dead ids stay: they lead a later walk to parts still underived.
  if (any_replaced) std::erase_if(children, replaced);
  return children;
}

void IndexGraph::RebuildAdjacency(SplitScratch* scratch) {
  if (!adjacency_stale_) return;
  for (LabelNodes& same : by_label_) {
    for (size_t i = same.derived; i < same.ids.size(); ++i) {
      const IndexNodeId v = same.ids[i];
      if (nodes_[v].alive && horizon(v) == 0) Derive(v, scratch);
    }
    // Compact once dead ids are the majority, so label lookups stay
    // linear in the label's alive nodes.
    if (2 * same.dead > same.ids.size()) {
      std::erase_if(same.ids,
                    [&](IndexNodeId v) { return !nodes_[v].alive; });
      same.dead = 0;
    }
    same.derived = static_cast<uint32_t>(same.ids.size());
  }
  // Every alive node is derived now. A list that names a node replaced
  // since it was derived also had that node's alive parts appended (each
  // one is past the list's horizon and was derived after it), so the lists
  // with anything to fix are exactly the appended ones: a sorted prefix
  // below the owner's horizon, then ids past it in derivation order.
  const uint32_t pass = scratch->NextPass(nodes_.size());
  auto dead = [&](IndexNodeId x) { return !nodes_[x].alive; };
  for (IndexNodeId w : appended_) {
    if (scratch->seen[w] == pass || !nodes_[w].alive) continue;
    scratch->seen[w] = pass;
    const IndexNodeId h = horizon(w);
    for (std::vector<IndexNodeId>* list :
         {&nodes_[w].parents, &nodes_[w].children}) {
      std::erase_if(*list, dead);
      std::sort(std::partition_point(list->begin(), list->end(),
                                     [h](IndexNodeId x) { return x < h; }),
                list->end());
    }
  }
  appended_.clear();
  full_horizon_ = static_cast<IndexNodeId>(nodes_.size());
  adjacency_stale_ = false;
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
  // strict prefix sorts after the longer list. So the members are sorted
  // by column j = 0, 1, ... in turn (a list's end reads as us.size(), above
  // every column), most significant first: each range of members that
  // agree on columns 0..j-1 is counted and placed by column j. Placing is
  // stable, so members stay ascending within a piece.
  const uint32_t end_of_list = static_cast<uint32_t>(us.size());
  auto column = [&](uint32_t i, uint32_t j) {
    return offsets[i] + j < offsets[i + 1] ? columns[offsets[i] + j]
                                            : end_of_list;
  };
  std::vector<uint32_t>& order = scratch->order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint32_t>& placed = scratch->placed;
  placed.resize(n);
  std::vector<uint32_t>& at = scratch->at;  // Count, then cursor, per value.
  at.assign(us.size() + 1, 0);
  std::vector<uint32_t> values;
  struct Range {
    uint32_t begin, end, j;
  };
  std::vector<Range> ranges = {{0, static_cast<uint32_t>(n), 0}};
  while (!ranges.empty()) {
    const Range r = ranges.back();
    ranges.pop_back();
    if (r.end - r.begin < 2) continue;
    values.clear();
    for (uint32_t x = r.begin; x < r.end; ++x) {
      const uint32_t value = column(order[x], r.j);
      if (at[value]++ == 0) values.push_back(value);
    }
    std::sort(values.begin(), values.end());
    uint32_t cursor = r.begin;
    for (uint32_t value : values) {
      const uint32_t count = at[value];
      // Members whose lists ended are equal: one piece, nothing to sort.
      if (value != end_of_list) {
        ranges.push_back({cursor, cursor + count, r.j + 1});
      }
      at[value] = cursor;
      cursor += count;
    }
    if (values.size() > 1) {
      for (uint32_t x = r.begin; x < r.end; ++x) {
        placed[at[column(order[x], r.j)]++] = order[x];
      }
      std::copy(placed.begin() + r.begin, placed.begin() + r.end,
                order.begin() + r.begin);
    }
    for (uint32_t value : values) at[value] = 0;
  }

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
  if (adjacency_stale_) {
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
  size_t listed = 0;
  for (LabelId label = 0; label < by_label_.size(); ++label) {
    const std::vector<IndexNodeId>& ids = by_label_[label].ids;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0 && ids[i] <= ids[i - 1]) {
        return Status::Internal("label list not ascending");
      }
      if (nodes_[ids[i]].label != label) {
        return Status::Internal("node in another label's list");
      }
      if (nodes_[ids[i]].alive) ++listed;
    }
  }
  if (listed != num_alive_) {
    return Status::Internal("label lists miss alive nodes");
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
