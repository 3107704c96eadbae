#ifndef MRX_INDEX_INDEX_GRAPH_H_
#define MRX_INDEX_INDEX_GRAPH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "index/extent.h"
#include "util/status.h"

namespace mrx {

/// Dense identifier of an index node (an equivalence class of data nodes).
using IndexNodeId = uint32_t;

/// Sentinel for "no index node".
inline constexpr IndexNodeId kInvalidIndexNode = static_cast<IndexNodeId>(-1);

/// \brief Reorganization-effort counters maintained by IndexGraph: how
/// much splitting work refinement performed. The adaptive indexes expose
/// them so experiments can weigh query savings against refinement cost.
struct RefinementStats {
  uint64_t splits = 0;          ///< ReplaceNode calls that split a node.
  uint64_t nodes_created = 0;   ///< New index nodes created by splits.
  uint64_t extent_moves = 0;    ///< Data nodes re-homed across splits.

  RefinementStats& operator+=(const RefinementStats& o) {
    splits += o.splits;
    nodes_created += o.nodes_created;
    extent_moves += o.extent_moves;
    return *this;
  }
};

/// \brief Reusable buffers for the splits of one refinement call
/// (IndexGraph::SplitByParents and RebuildAdjacency, the M*(k) cascade).
/// The caller owns one for the whole call — Refine, Promote, RefineBatch —
/// and hands it to every split, in every component, so no split allocates
/// anything sized to the component. Not thread-safe: one refinement call,
/// one scratch.
struct SplitScratch {
  /// Per index-node id: the last pass that saw it. A pass claims a fresh
  /// value from NextPass(); the array grows with the largest component
  /// and is only cleared when the counter wraps.
  std::vector<uint32_t> seen;
  /// Per index-node id, grown with `seen`: a value a pass attaches to each
  /// id it stamps (its slot in the pass's list of the ids). Meaningful
  /// only for ids `seen` holds the current stamp for; never a stamp, so
  /// leftovers from earlier passes cannot be mistaken for one.
  std::vector<uint32_t> slot;
  uint32_t pass = 0;
  /// ComputeAdjacency: the node's extent, decoded once.
  std::vector<NodeId> members;
  /// SplitByParents: each member's column list in CSR form, and the
  /// member order.
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> columns;
  std::vector<uint32_t> order;
  /// SplitByParents' counting sort: the placement buffer, and a count,
  /// then a cursor, per column value.
  std::vector<uint32_t> placed;
  std::vector<uint32_t> at;

  /// Starts a dedupe pass over ids below `capacity`; returns its stamp.
  uint32_t NextPass(size_t capacity);
};

/// \brief The shared structural-index representation used by the A(k),
/// D(k), M(k) indexes and by each component of the M*(k) index.
///
/// An IndexGraph is a labeled directed graph over index nodes, each holding
/// an *extent* (the set of data nodes it stands for), a label, and a local
/// similarity value `k` (paper §2/§3). It maintains the paper's structural
/// properties mechanically:
///
///  - extents of alive nodes partition the data nodes (Property 1's carrier);
///  - there is an index edge (u, v) iff some data edge crosses the extents
///    (Property 2). Property 2 makes adjacency a function of the extents,
///    so ReplaceNode only re-homes extents, and the lists of the nodes
///    created since are derived from the data graph where they are next
///    read: ChildrenForWalk for what a walk reads, RebuildAdjacency for the
///    rest — once per batch of splits rather than once per split;
///  - `k` values are whatever the owning index algorithm assigns; the
///    *semantic* guarantees (extents k-bisimilar, Property 3) are the
///    algorithm's responsibility and are verified in the test suite.
///
/// Node ids are stable; splitting marks the old node dead and appends new
/// nodes. Dead nodes stay as tombstones (cheap, and keeps outstanding ids
/// harmless); all accessors that enumerate skip them.
class IndexGraph {
 public:
  struct Node {
    LabelId label = 0;
    int32_t k = 0;
    /// The node's data-node set (index/extent.h).
    Extent extent;
    /// Sorted unique alive ids; exact once RebuildAdjacency has run after
    /// the last ReplaceNode.
    std::vector<IndexNodeId> parents;
    std::vector<IndexNodeId> children;
    bool alive = true;
    /// Adjacency bookkeeping between rebuilds (see ChildrenForWalk). An
    /// alive node created since the last RebuildAdjacency: 0 while its
    /// lists are not derived, else the capacity when they were.
    IndexNodeId horizon = 0;
    /// A dead node: the parts that replaced it are the ids from
    /// `first_part` on, `num_parts` of them.
    IndexNodeId first_part = 0;
    uint32_t num_parts = 0;
  };

  /// One piece of a node split: the new extent and its local similarity.
  /// Split kernels assemble a piece as a vector, which seals into an
  /// Extent here; a part that repeats another node's extent shares it.
  struct Part {
    Part() = default;
    Part(std::vector<NodeId> members, int32_t similarity)
        : extent(std::move(members)), k(similarity) {}
    Part(Extent shared, int32_t similarity)
        : extent(std::move(shared)), k(similarity) {}
    Extent extent;
    int32_t k = 0;
  };

  /// The A(0) partition: one index node per label occurring in `g`, k = 0.
  static IndexGraph LabelPartition(const DataGraph& g);

  /// Builds an index graph from an arbitrary partition. `block_of[n]` is
  /// the block of data node n, in [0, num_blocks); `block_k[b]` the local
  /// similarity to record for block b. Every block must be non-empty and
  /// label-uniform (callers produce refinements of the label partition).
  static IndexGraph FromPartition(const DataGraph& g,
                                  const std::vector<uint32_t>& block_of,
                                  uint32_t num_blocks,
                                  const std::vector<int32_t>& block_k);

  IndexGraph(const IndexGraph&) = default;
  IndexGraph& operator=(const IndexGraph&) = default;
  IndexGraph(IndexGraph&&) = default;
  IndexGraph& operator=(IndexGraph&&) = default;

  const DataGraph& data() const { return *graph_; }

  /// Upper bound on node ids (including tombstones).
  size_t capacity() const { return nodes_.size(); }

  bool alive(IndexNodeId v) const { return nodes_[v].alive; }
  const Node& node(IndexNodeId v) const { return nodes_[v]; }

  /// The index node whose extent contains data node `o`.
  IndexNodeId index_of(NodeId o) const { return node_of_[o]; }

  /// Number of alive index nodes — the paper's "number of index nodes".
  size_t num_nodes() const { return num_alive_; }

  /// Number of index edges between alive nodes — the paper's "number of
  /// index edges". Computed on demand; needs current adjacency.
  size_t num_edges() const;

  /// All alive node ids, ascending.
  std::vector<IndexNodeId> AliveNodes() const;

  /// Sets the local similarity of `v`.
  void SetK(IndexNodeId v, int32_t k) { nodes_[v].k = k; }

  /// Replaces alive node `v` by `parts`. Part extents must be non-empty,
  /// pairwise disjoint, and cover v's extent exactly (checked with
  /// assertions in debug builds). Only extents are re-homed: the parents
  /// and children of the new nodes and of their neighbours are stale until
  /// the next RebuildAdjacency, so refinement splits many nodes and derives
  /// adjacency once, where it is next read. Passing a single part
  /// effectively relabels v's similarity under a new id. Returns the new
  /// node ids in part order.
  std::vector<IndexNodeId> ReplaceNode(IndexNodeId v,
                                       std::vector<Part> parts);

  /// Makes adjacency exact again after ReplaceNode calls: derives both
  /// lists of every alive node created since the last rebuild that
  /// ChildrenForWalk has not derived yet, then drops dead ids from, and
  /// sorts, the lists that derivations appended to. Costs the new nodes'
  /// in- and out-edges plus the touched neighbours' list lengths; a no-op
  /// when adjacency is current. Refinement calls it before reading parents
  /// and before it returns, so adjacency is exact wherever a caller can see
  /// it; it passes the scratch of the whole call.
  void RebuildAdjacency(SplitScratch* scratch);

  /// What a forward walk between rebuilds reads of `u` (alive): its
  /// children list, holding every alive child labelled `label`, and
  /// possibly other children, dead ones among them, but no dead node
  /// labelled `label`. Derives only what that
  /// needs: u's own lists if u was created since the last rebuild, else
  /// the lists of the parts (created since and labelled `label`) of the
  /// children u lists that were replaced since; each derived node appends
  /// itself to the lists of its derived neighbours. Lists may be left with
  /// appended ids out of order until the next RebuildAdjacency.
  const std::vector<IndexNodeId>& ChildrenForWalk(IndexNodeId u,
                                                   LabelId label,
                                                   SplitScratch* scratch);

  /// The alive nodes labelled `label`, ascending. Reads the label's own
  /// id list, not the id space.
  std::vector<IndexNodeId> NodesWithLabel(LabelId label) const;

  /// The split kernel of SPLITNODE*, PROMOTE*, REFINENODE and PROMOTE
  /// (§2, §3.2, §4.2). Partitions `members` (sorted data nodes) by which
  /// of the index nodes `us` (sorted unique ids of this graph) hold a data
  /// parent: members with parents in exactly the same subset of `us` form
  /// one piece. The result equals the paper's loop "for u in us
  /// ascending, split every piece w into w ∩ Succ(u) and w \ Succ(u),
  /// dropping empty halves", pieces in the same order and each piece
  /// ascending, but costs one pass over the members' in-edges instead of
  /// building Succ(u) over every u's extent (docs/PERFORMANCE.md,
  /// "Refinement splits").
  std::vector<std::vector<NodeId>> SplitByParents(
      const std::vector<NodeId>& members, const std::vector<IndexNodeId>& us,
      SplitScratch* scratch) const;

  /// Sorted unique ids of the index nodes holding a data parent of some
  /// node of `members`. SPLITNODE* and REFINENODE qualify the parents they
  /// split by with this test on the relevant members.
  std::vector<IndexNodeId> ParentHolders(
      const std::vector<NodeId>& members) const;

  /// The paper's Pred(s): all data nodes with a child in `s`; sorted.
  std::vector<NodeId> Pred(const std::vector<NodeId>& s) const;
  std::vector<NodeId> Pred(const Extent& s) const;

  /// Structural self-check used by tests and debugging: extents partition
  /// the data nodes, node_of is consistent, labels are uniform within
  /// extents, adjacency is current, matches Property 2 exactly and is
  /// symmetric.
  Status CheckConsistency() const;

  /// Multi-line dump ("id[label,k]{extent} -> children") for debugging.
  std::string DebugString() const;

  /// Cumulative reorganization effort of all ReplaceNode calls.
  const RefinementStats& refinement_stats() const {
    return refinement_stats_;
  }

 private:
  IndexGraph() = default;

  /// The ids of one label's nodes in creation (= ascending) order, dead
  /// ones included until the list is compacted.
  struct LabelNodes {
    std::vector<IndexNodeId> ids;
    /// ids before this position were derived or died; ids past it may
    /// have been derived by a walk.
    uint32_t derived = 0;
    uint32_t dead = 0;  ///< Dead ids in `ids`.
  };

  /// Recomputes children/parents of `v` from the data graph. Does not
  /// touch other nodes' lists.
  void ComputeAdjacency(IndexNodeId v, SplitScratch* scratch);

  /// Ids below horizon(v) that neighbour `v` are in v's lists (its lists
  /// were derived when they were the whole id space); 0 means not derived.
  IndexNodeId horizon(IndexNodeId v) const {
    return v < full_horizon_ ? full_horizon_ : nodes_[v].horizon;
  }

  /// Derives `v`'s lists and appends `v` to each derived neighbour that
  /// does not list it yet (the ones whose horizon `v` is past).
  void Derive(IndexNodeId v, SplitScratch* scratch);

  /// Derives the alive, not yet derived nodes among the parts that
  /// replaced dead node `x`, following parts that were replaced in turn.
  void DerivePartsOf(IndexNodeId x, SplitScratch* scratch);

  /// Appends `v` to `owner`'s `list`, noting the first append since the
  /// list was last exact in `appended_`.
  void AppendNeighbour(IndexNodeId owner, std::vector<IndexNodeId>* list,
                       IndexNodeId v);

  const DataGraph* graph_ = nullptr;
  std::vector<Node> nodes_;
  std::vector<IndexNodeId> node_of_;  // per data node
  size_t num_alive_ = 0;
  /// Per label id.
  std::vector<LabelNodes> by_label_;
  /// Every node below this id had exact lists at the last RebuildAdjacency,
  /// except that they name the nodes replaced since instead of their parts.
  IndexNodeId full_horizon_ = 0;
  /// ReplaceNode ran since the last RebuildAdjacency.
  bool adjacency_stale_ = false;
  /// Nodes whose lists had ids appended since the last RebuildAdjacency
  /// (possibly repeated); only these can hold dead or unordered ids.
  std::vector<IndexNodeId> appended_;
  RefinementStats refinement_stats_;
};

}  // namespace mrx

#endif  // MRX_INDEX_INDEX_GRAPH_H_
