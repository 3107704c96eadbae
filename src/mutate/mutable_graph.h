#ifndef MRX_MUTATE_MUTABLE_GRAPH_H_
#define MRX_MUTATE_MUTABLE_GRAPH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "graph/data_graph.h"
#include "mutate/mutation.h"
#include "util/result.h"
#include "util/status.h"

namespace mrx::mutate {

/// \brief The live, updatable twin of DataGraph.
///
/// DataGraph is frozen CSR — ideal for querying, useless for updates. A
/// MutableDataGraph holds the same graph under *stable* node ids: ids are
/// assigned once and never reused, so deletions leave holes instead of
/// shifting everyone else. Materialize() compacts the alive nodes back into
/// a fresh DataGraph plus the id maps the incremental maintainer needs to
/// carry partitions across versions.
///
/// Seeding copies no adjacency: a row (one node's children, or its
/// parents) is read from the seed DataGraph's CSR until an op first edits
/// it, and that edit copies the row into an overlay. Appended nodes' rows
/// live in the overlay from the start. A write therefore costs the rows it
/// edits, not the graph.
///
/// Invariants mirrored from DataGraphBuilder::Build: at most one edge per
/// (from, to) pair (the builder deduplicates parallel edges), child rows
/// sorted ascending by target, parent rows sorted unique. Because stable
/// ids grow monotonically and compaction preserves ascending order, the
/// materialized CSR is byte-identical to what DataGraphBuilder would
/// produce from the same node/edge set (same symbol interning order).
class MutableDataGraph {
 public:
  /// One node's child row: targets ascending, kinds parallel.
  struct ChildRow {
    std::span<const uint32_t> to;
    std::span<const EdgeKind> kind;
  };

  /// Seeds the live graph from `g`; stable id i is g's node i. Rows are
  /// read from `g` until edited, so `g` must outlive this object: LiveGraph
  /// holds its seed's shared_ptr, and a caller that seeds from a reference
  /// keeps the graph in scope for as long as it applies batches.
  explicit MutableDataGraph(const DataGraph& g);

  size_t num_alive() const { return num_alive_; }
  size_t num_stable_ids() const { return alive_.size(); }
  size_t num_edges() const { return num_edges_; }
  bool alive(uint32_t s) const { return alive_[s] != 0; }
  LabelId label(uint32_t s) const {
    return s < seed_nodes_ ? seed_->label(s) : new_labels_[s - seed_nodes_];
  }
  uint32_t root() const { return root_; }
  const SymbolTable& symbols() const { return symbols_; }
  /// The one accessor for a row, edited or not.
  ChildRow children(uint32_t s) const;
  std::span<const uint32_t> parents(uint32_t s) const;

  /// What one applied batch touched, in stable ids — the seed of the
  /// maintainer's dirty set.
  struct BatchTouch {
    std::vector<uint32_t> new_nodes;  ///< Appended, in op/spec order.
    /// Surviving nodes whose parent *set* changed (ref-edge endpoints and
    /// nodes stranded by a deletion), sorted unique.
    std::vector<uint32_t> parent_set_changed;
    /// Surviving nodes whose *child list* changed (append parents, ref-edge
    /// tails, parents severed from a deleted subtree), sorted unique —
    /// MaterializeAfter() streams every other node's CSR row straight from
    /// the previous version.
    std::vector<uint32_t> children_changed;
    bool any_deletion = false;
    size_t nodes_deleted = 0;
    size_t ref_edges_added = 0;
    size_t ref_edges_removed = 0;
  };

  /// Applies `batch` atomically: ops validate and apply in order; the
  /// first failure rolls back everything already applied and returns the
  /// failing op's error (annotated with its index). `compact_to_stable`
  /// translates the batch's node ids (the id space of the version the
  /// client read — see Mutation) into stable ids; pass the map from the
  /// last Materialize, or the identity for a never-materialized graph.
  Result<BatchTouch> ApplyBatch(const MutationBatch& batch,
                                const std::vector<uint32_t>& compact_to_stable);

  // --- Individual ops (stable ids; each validates, then applies) --------

  /// Returns the stable ids of the appended nodes, in spec order.
  Result<std::vector<uint32_t>> AppendSubtree(uint32_t parent,
                                              const SubtreeSpec& spec);

  struct DeleteReport {
    std::vector<uint32_t> removed;       ///< The doomed set, sorted.
    std::vector<uint32_t> ref_orphaned;  ///< Survivors that lost a ref
                                         ///< parent, sorted unique.
    /// Survivor-side adjacency entries the detach erased, recorded so a
    /// failing batch can roll the delete back exactly: p's child row lost
    /// (s, kind); c's parent row lost s.
    std::vector<std::tuple<uint32_t, uint32_t, EdgeKind>> severed_children;
    std::vector<std::pair<uint32_t, uint32_t>> severed_parents;
    size_t edges_removed = 0;
  };

  /// Removes `victim` and every node regular-reachable from it. Reference
  /// edges crossing into the doomed set are dropped (their sources keep
  /// dangling-free lists; their surviving targets are reported as
  /// stranded). Deleting the root is rejected.
  Result<DeleteReport> DeleteSubtree(uint32_t victim);

  Status AddRefEdge(uint32_t from, uint32_t to);
  Status RemoveRefEdge(uint32_t from, uint32_t to);

  /// The frozen-CSR view of the current version plus both id maps.
  struct Materialized {
    DataGraph graph;
    std::vector<uint32_t> stable_of;  ///< compact NodeId → stable id.
    std::vector<NodeId> compact_of;   ///< stable id → compact (kInvalidNode
                                      ///< for dead ids).
  };

  Result<Materialized> Materialize() const;

  /// Materialize(), but patching from the previous version instead of
  /// walking every adjacency list. When `touch` (the receipt of the one
  /// batch applied since `prev` was materialized) contains no deletion,
  /// every pre-existing node keeps its compact id, so unchanged CSR rows
  /// are streamed straight out of `prev` — turning the dominant cost of a
  /// small batch's materialization from O(V) scattered list walks into a
  /// sequential copy. Falls back to Materialize() whenever the
  /// preconditions do not hold.
  Result<Materialized> MaterializeAfter(const DataGraph& prev,
                                        const std::vector<uint32_t>& prev_stable_of,
                                        const BatchTouch& touch) const;

 private:
  struct UndoRecord;

  /// The overlay copy of a node's rows. A seed node's halves are copied on
  /// their first edit (`own_*` says which are); an appended node owns both.
  struct Row {
    std::vector<uint32_t> child_to;    ///< Ascending.
    std::vector<EdgeKind> child_kind;  ///< Parallel to child_to.
    std::vector<uint32_t> parents;     ///< Ascending.
    bool own_children = false;
    bool own_parents = false;
  };

  Status CheckNode(uint32_t s) const;
  /// `s`'s overlay row, or null if neither half has been edited.
  const Row* OverlayRow(uint32_t s) const;
  /// `s`'s overlay row with the named half copied in from the seed if this
  /// is its first edit. References stay valid across later calls.
  Row& EditChildren(uint32_t s);
  Row& EditParents(uint32_t s);
  /// `s`'s overlay row as is; a seed id's is created empty on first use.
  Row& RowFor(uint32_t s);

  static constexpr uint32_t kNoRow = static_cast<uint32_t>(-1);

  const DataGraph* seed_;
  size_t seed_nodes_;
  SymbolTable symbols_;
  std::vector<LabelId> new_labels_;  ///< Per appended id (seed_nodes_ + i).
  std::vector<uint8_t> alive_;       ///< Per stable id.
  std::vector<uint32_t> seed_row_;   ///< Per seed id: its seed_rows_ slot.
  std::deque<Row> seed_rows_;        ///< Edited seed rows, in edit order.
  std::deque<Row> new_rows_;         ///< Per appended id.
  uint32_t root_ = 0;
  size_t num_alive_ = 0;
  size_t num_edges_ = 0;  ///< Edges between alive nodes.
};

/// \brief A MutableDataGraph and the frozen version it last materialized:
/// the one place a batch becomes the next graph version (apply, patch the
/// CSR forward, carry the id maps, count the version). The serving writer
/// (ConcurrentSession) holds only this; IncrementalMaintainer keeps its
/// partition chains on top of it.
class LiveGraph {
 public:
  /// What one batch changed, in the new version's compact ids.
  struct Step {
    uint64_t version = 0;             ///< Version number after the batch.
    std::vector<NodeId> new_nodes;    ///< Appended nodes, in op order.
    /// Surviving old nodes whose parent set changed, ascending.
    std::vector<NodeId> parent_set_changed;
    /// New compact id → previous version's (kInvalidNode for appended
    /// nodes); filled only when the batch deleted something; otherwise the
    /// old ids are an identity prefix.
    std::vector<NodeId> new_to_old;
    size_t old_num_nodes = 0;
    size_t nodes_deleted = 0;
    bool any_deletion = false;
  };

  /// Version 0 is `g` itself, shared rather than materialized again: a
  /// built DataGraph already is what Materialize() would produce from it.
  /// The LiveGraph keeps `g` alive for its whole life: the live graph reads
  /// every row no batch has edited from it.
  explicit LiveGraph(std::shared_ptr<const DataGraph> g);

  /// Applies `batch` atomically and materializes the next version. On
  /// failure nothing changes. Batch ids refer to version()'s compact id
  /// space. An empty batch makes no new version.
  Result<Step> Apply(const MutationBatch& batch);

  const DataGraph& graph() const { return *graph_; }
  std::shared_ptr<const DataGraph> graph_ptr() const { return graph_; }
  uint64_t version() const { return version_; }

 private:
  std::shared_ptr<const DataGraph> seed_;  ///< Backs live_'s unedited rows.
  MutableDataGraph live_;
  std::shared_ptr<const DataGraph> graph_;
  std::vector<uint32_t> stable_of_;  ///< compact → stable, current version.
  uint64_t version_ = 0;
};

}  // namespace mrx::mutate

#endif  // MRX_MUTATE_MUTABLE_GRAPH_H_
