#ifndef MRX_INDEX_M_STAR_INDEX_H_
#define MRX_INDEX_M_STAR_INDEX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "index/bisimulation.h"
#include "index/evaluator.h"
#include "index/index_graph.h"
#include "query/data_evaluator.h"
#include "query/path_expression.h"
#include "util/status.h"

namespace mrx {

class ThreadPool;

/// \brief The M*(k)-index (paper §4): a *multiresolution* structural index.
///
/// Logically it is a sequence of component indexes I0, I1, ..., organized
/// in a partition hierarchy: each Ii is an M(k)-like index whose local
/// similarity values are capped at i, and Ii+1 refines Ii (every Ii+1 node
/// has exactly one supernode in Ii whose extent contains its own). The
/// hierarchy keeps k-bisimilarity information for *all* k up to the finest
/// resolution required, which:
///   - lets short queries run on coarse (small) components,
///   - gives refinement "perfectly qualified" parents (always exactly the
///     (k-1)-bisimulation), eliminating over-refinement due to
///     overqualified parents (§2's Figure 4 problem).
///
/// Physical size accounting follows §4/§5: a node of Ii+1 that is its
/// supernode's only subnode is a *duplicate* and not counted; neither is an
/// edge between two duplicates, nor the cross link to a duplicate.
class MStarIndex;

/// The M*(k) evaluation strategies of §4.1.
enum class MStarQueryStrategy {
  kNaive,
  kTopDown,
  kBottomUp,
  kHybrid,
};

/// Every strategy, in enum order (EXPLAIN tables and the differential
/// oracle iterate it).
inline constexpr MStarQueryStrategy kMStarQueryStrategies[] = {
    MStarQueryStrategy::kNaive, MStarQueryStrategy::kTopDown,
    MStarQueryStrategy::kBottomUp, MStarQueryStrategy::kHybrid};

/// Stable lowercase name for a strategy ("naive", "topdown", "bottomup",
/// "hybrid") — the spelling used by the CLI, metrics, and explain records.
const char* StrategyName(MStarQueryStrategy strategy);

/// One component's logical content, used by the storage layer to persist
/// and reassemble an M*(k)-index. Nodes are identified by their position
/// ("ordinal") in these parallel vectors.
struct MStarComponentSpec {
  std::vector<Extent> extents;  ///< Sorted data-node sets, per node.
  std::vector<int32_t> ks;      ///< Local similarity, per node.
  /// Ordinal of each node's supernode within the *previous* component's
  /// spec; ignored for component 0.
  std::vector<uint32_t> supernodes;
};

/// One component of a hierarchy with its links to the previous one. The
/// in-memory MStarIndex holds one per resolution; the disk-resident index
/// holds the ones it has loaded.
struct MStarComponent {
  IndexGraph graph;
  /// Per node id (parallel to graph's id space): the node's supernode in
  /// the previous component; kInvalidIndexNode in component 0.
  std::vector<IndexNodeId> supernode;
  /// The inverse of `supernode` in CSR form, indexed by node id of the
  /// previous component: u's subnodes are sub_nodes[sub_begin[u] ..
  /// sub_begin[u + 1]), ascending. Empty in component 0. MStarIndex
  /// rebuilds it wherever the links become final — construction, load,
  /// AppendComponentCopy and the end of every refine call — and
  /// DiskMStarIndex on the first descent into the component, so queries
  /// only read it.
  std::vector<uint32_t> sub_begin = {};
  std::vector<IndexNodeId> sub_nodes = {};

  /// Rebuilds the subnode lists from `supernode`, given the previous
  /// component's capacity: one counting pass over both id spaces.
  void BuildSubnodes(size_t prev_capacity);

  /// The subnodes of node `u` of the previous component, ascending.
  std::span<const IndexNodeId> subnodes(IndexNodeId u) const {
    return {sub_nodes.data() + sub_begin[u],
            sub_nodes.data() + sub_begin[u + 1]};
  }
};

class MStarIndex {
 public:
  /// Starts with the single component I0 = A(0); `g` must outlive the
  /// index.
  explicit MStarIndex(const DataGraph& g);

  /// Copies are explicit (Clone()); moves are cheap.
  MStarIndex(const MStarIndex&) = delete;
  MStarIndex(MStarIndex&&) = default;

  /// Reassembles an index from per-component partitions (the storage
  /// layer's load path). Adjacency is recomputed from the data graph
  /// (Property 2 makes index edges derivable), and the result is checked
  /// against Properties 1-5 before being returned.
  static Result<MStarIndex> FromComponents(
      const DataGraph& g, const std::vector<MStarComponentSpec>& specs);

  /// Builds the *static* multiresolution hierarchy: component Ii is the
  /// full A(i) partition, for i = 0..k_max. No workload awareness — every
  /// node is refined to the cap everywhere. Precise for every simple path
  /// expression of length ≤ k_max, at the size cost the paper's adaptive
  /// refinement exists to avoid (the static-vs-adaptive ablation bench
  /// quantifies the gap). Each level is one refinement round on top of the
  /// previous level's partition (not a from-scratch rebuild), sharded over
  /// `pool` when one is given; component materialization and property
  /// verification then fan out over the levels. Ids are byte-identical for
  /// any thread count (see docs/PERFORMANCE.md). `options` carries the
  /// pool and an optional shared refinement scratch (see RefineOptions).
  static MStarIndex BuildStaticHierarchy(const DataGraph& g, int k_max,
                                         const RefineOptions& options = {});

  /// REFINE* (§4.2): creates components up to I_length(fup) (by copying)
  /// if needed, then refines the hierarchy so `fup` evaluates precisely in
  /// the finest required component, and finally breaks any surviving false
  /// instance with PROMOTE*. Same as RefineBatch({fup}).
  void Refine(const PathExpression& fup);

  /// Refines for a whole batch of FUPs, equivalent to calling Refine on
  /// each in order. The target sets of all eligible expressions are
  /// evaluated up front — they depend only on the immutable data graph,
  /// not on index state — each shared prefix once
  /// (DataEvaluator::EvaluateAll), in one chunk, or in chunks of prefix
  /// order fanned out over the thread pool when one is attached; the
  /// refinement itself stays serial (and deterministic).
  void RefineBatch(const std::vector<PathExpression>& fups);

  /// Attaches a thread pool used to parallelize batch target evaluation.
  /// May be null (serial). The pool must outlive the index; clones do NOT
  /// inherit it (published read-only copies have no refinement to
  /// parallelize).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Evaluates `path` with one of the §4.1 strategies — the one dispatch
  /// every caller (sessions, CLI, oracle, harness) goes through.
  /// Under-refined index nodes are validated through `validator`. Queries
  /// never mutate the index, so any number of threads may call the query
  /// methods on one index concurrently as long as (a) each thread passes
  /// its own evaluator and (b) no thread is inside Refine() at the same
  /// time — the server subsystem enforces both (see docs/SERVER.md).
  QueryResult Query(MStarQueryStrategy strategy, const PathExpression& path,
                    DataEvaluator* validator) const;

  /// §4.1 "Naive evaluation": evaluates in component I_min(length, finest)
  /// with the M(k) query algorithm.
  QueryResult QueryNaive(const PathExpression& path,
                         DataEvaluator* validator) const;

  /// §4.1 QUERYTOPDOWN: evaluates prefixes of increasing length in
  /// successively finer components, descending through the partition
  /// hierarchy by its subnode lists, and validates under-refined answers.
  QueryResult QueryTopDown(const PathExpression& path,
                           DataEvaluator* validator) const;

  /// §4.1 "Other approaches", bottom-up: evaluates progressively longer
  /// *suffixes* of the expression in progressively finer components.
  /// Because k-bisimilarity guarantees nothing about outgoing paths, every
  /// descent re-checks downward that the suffix still exists — the
  /// overhead the paper predicts makes bottom-up lose to top-down (the
  /// strategy ablation bench quantifies it). Anchored paths are rejected
  /// to the top-down algorithm internally.
  QueryResult QueryBottomUp(const PathExpression& path,
                            DataEvaluator* validator) const;

  /// §4.1 "Other approaches", hybrid: top-down for the prefix up to step
  /// `meet` (default: the middle), bottom-up for the suffix, joined at the
  /// meeting step in the finest needed component.
  QueryResult QueryHybrid(const PathExpression& path,
                          DataEvaluator* validator) const;
  QueryResult QueryHybrid(const PathExpression& path, size_t meet,
                          DataEvaluator* validator) const;

  /// §4.1 "Subpath pre-filtering": evaluates the floating subpath
  /// steps[sub_begin..sub_end] in the coarse component of its own length,
  /// maps the survivors down to the finest needed component, and finishes
  /// the full expression there with the frontier at step `sub_end`
  /// restricted to the survivors. `sub_begin <= sub_end < num_steps()`.
  QueryResult QueryWithPrefilter(const PathExpression& path, size_t sub_begin,
                                 size_t sub_end,
                                 DataEvaluator* validator) const;

  /// Deep copy over the same data graph. The server's refinement worker
  /// refines a private master copy off the read path and publishes clones,
  /// so readers never observe a half-refined hierarchy.
  MStarIndex Clone() const;

  size_t num_components() const { return components_.size(); }
  const IndexGraph& component(size_t i) const { return components_[i].graph; }

  /// The supernode in component i-1 of node `v` of component i (i ≥ 1).
  IndexNodeId supernode(size_t i, IndexNodeId v) const {
    return components_[i].supernode[v];
  }

  /// The subnodes in component i (≥ 1) of node `u` of component i-1,
  /// ascending: the nodes whose supernode is u, whose extents partition
  /// u's. Empty for a dead u.
  std::span<const IndexNodeId> subnodes(size_t i, IndexNodeId u) const {
    return components_[i].subnodes(u);
  }

  /// Total reorganization effort across all components (including the
  /// cascade realignments).
  RefinementStats TotalRefinementStats() const;

  /// Physical node count across components (§5 cost metric): nodes of I0
  /// plus non-duplicate nodes of finer components.
  size_t PhysicalNodeCount() const;

  /// Physical edge count: edges of I0, edges of finer components not
  /// connecting two duplicates, plus cross links to non-duplicate nodes.
  size_t PhysicalEdgeCount() const;

  /// Both physical counts from one walk per component, each component's
  /// duplicate mask built once.
  struct PhysicalSize {
    size_t nodes = 0;
    size_t edges = 0;
  };
  PhysicalSize Physical() const;

  /// Verifies Properties 1-5 of §4 that are checkable structurally
  /// (component consistency, caps, hierarchy refinement, Property 4 k
  /// bounds, Property 5 stability), and that every subnode list is exactly
  /// {index_of(o) : o ∈ extent(u)} in the finer component. Bisimilarity
  /// of extents is checked separately in tests against reference
  /// partitions.
  Status CheckProperties() const;

  /// Same checks fanned out per component over `pool` (may be null =
  /// serial). Reports the same error the serial walk would: the failing
  /// component with the lowest index wins.
  Status CheckProperties(ThreadPool* pool) const;

 private:
  /// Tag for the internal constructor that skips building the A(0)
  /// component (BuildStaticHierarchy, FromComponents and Clone fill in
  /// every component themselves).
  struct EmptyInit {};
  MStarIndex(const DataGraph& g, EmptyInit);
  using Component = MStarComponent;

  /// Appends a copy of the finest component; supernode links are identity.
  void AppendComponentCopy();

  /// Tests drive RefineBatch's per-FUP steps one at a time and look at
  /// the hierarchy between them (tests/m_star_refine_walk_test.cc).
  friend class MStarIndexTestPeer;

  /// RefineBatch's per-FUP body, after its target set was evaluated.
  /// `scratch` serves every split of the batch (the private methods below
  /// take it for the same reason).
  void RefineWithTarget(const PathExpression& fup,
                        const std::vector<NodeId>& target,
                        SplitScratch* scratch);

  /// RefineBatch's tail: adjacency and subnode lists become exact again,
  /// before any reader can see the index.
  void FinishRefine(SplitScratch* scratch);

  /// REFINENODE*, reformulated over data-node sets: ensures every index
  /// node of component k containing a node of `relevant` has similarity
  /// ≥ k, recursing on predecessors in component k-1 first and then
  /// splitting ancestor supernodes coarse-to-fine with SPLITNODE*,
  /// propagating each component's changes to finer components immediately.
  void RefineNodeStar(int k, const std::vector<NodeId>& relevant,
                      SplitScratch* scratch);

  /// SPLITNODE* (§4.2) on node `v` of component `ci`: splits by the Succ
  /// sets of the *perfectly qualified* parents of v's supernode in
  /// component ci-1, keeps the pieces holding `relevant_here` (the
  /// relevant members of v's extent, sorted, non-empty) at similarity ci,
  /// merges the rest. Then cascades the refinement into finer components.
  void SplitNodeStar(int ci, IndexNodeId v,
                     const std::vector<NodeId>& relevant_here,
                     SplitScratch* scratch);

  /// Replaces `v` in component `ci` by `parts` (inheriting v's supernode)
  /// and realigns all finer components with the new partition.
  void SplitAndPropagate(int ci, IndexNodeId v,
                         std::vector<IndexGraph::Part> parts,
                         SplitScratch* scratch);

  /// Realigns component `ci` with component ci-1 over the data nodes in
  /// `affected`, in any order (splitting nodes that now span several
  /// supernodes and refreshing supernode links), recursing into finer
  /// components. `covers` are the nodes of ci-1, ascending, whose extents
  /// partition `affected` (the ones that changed there). Linear in the
  /// touched nodes' extents: only a node that really spans several
  /// supernodes has its supernodes sorted, and a node that duplicated
  /// what changed reads no member at all.
  void CascadeInto(int ci, const std::vector<NodeId>& affected,
                   const std::vector<IndexNodeId>& covers,
                   SplitScratch* scratch);

  /// PROMOTE*: like RefineNodeStar but relevance-free, breaking false
  /// instances of `fup`; returns true as soon as none remain.
  bool PromoteStar(int k, const std::vector<NodeId>& extent,
                   const PathExpression& fup, SplitScratch* scratch);

  /// The smallest node of `fup`'s target set in component length(fup)
  /// whose k is below the length (a possible false instance), or
  /// kInvalidIndexNode. Derives only the adjacency the walk reads
  /// (RefinementTargetSet).
  IndexNodeId FirstFalseInstance(const PathExpression& fup,
                                 SplitScratch* scratch);

  /// CheckProperties' subnode-list check for component i ≥ 1.
  Status CheckSubnodes(size_t i) const;

  /// Per node id of component `i` (≥1): whether the node duplicates its
  /// supernode (equal extents; the extent lies inside the supernode's by
  /// Property 3, so equal sizes suffice). Dead ids read false.
  std::vector<char> DuplicateMask(size_t i) const;

  /// Shared tail of the query strategies: sorts the target index nodes of
  /// `path` in component `ci` into `result` and assembles the answer from
  /// them (AssembleAnswer).
  void CollectAnswer(const PathExpression& path, size_t ci,
                     std::vector<IndexNodeId> target, DataEvaluator* validator,
                     QueryResult* result) const;

  /// True iff `v` (in component `ci`) has an outgoing instance of
  /// steps[from..] of `path` within that component; visited index nodes
  /// are charged to `stats`. `v`'s own label is assumed checked.
  bool HasOutgoingSuffix(size_t ci, IndexNodeId v,
                         const PathExpression& path, size_t from,
                         QueryStats* stats) const;

  /// The alive nodes of component `ci` whose label matches step `step` of
  /// `path`. I0 is the label partition, so they are the matching nodes of
  /// I0 carried down the subnode lists: the cost is the nodes found, not
  /// ci's capacity.
  std::vector<IndexNodeId> MatchingNodes(size_t ci, const PathExpression& path,
                                         size_t step) const;

  /// Where a search for `path` starts in component `ci`: the data root's
  /// node if `path` is anchored (and the root's label matches step 0),
  /// else MatchingNodes(ci, path, 0).
  std::vector<IndexNodeId> StartNodes(size_t ci,
                                      const PathExpression& path) const;

  /// Maps index nodes of component `from_ci` to the index nodes of the
  /// finer component `to_ci` covering the same data, by walking subnode
  /// lists one level at a time, and charges the nodes reached in `to_ci` to
  /// `stats`. Each node has one supernode, so distinct nodes have
  /// distinct subnodes and no walk needs a dedupe.
  std::vector<IndexNodeId> DescendNodes(size_t from_ci, size_t to_ci,
                                        std::vector<IndexNodeId> nodes,
                                        QueryStats* stats) const;

  /// The bottom-up half of §4.1 "Other approaches", shared by the
  /// bottom-up and hybrid strategies: grows the suffix of `path` one step
  /// at a time up to `suffix_steps` steps, each in the next finer
  /// component, keeping the nodes at the suffix's start whose outgoing
  /// suffix still exists there. Returns them, with their component in
  /// `*ci`.
  std::vector<IndexNodeId> VerifiedSuffixStarts(const PathExpression& path,
                                                size_t suffix_steps,
                                                size_t* ci,
                                                QueryStats* stats) const;

  const DataGraph& data_;
  std::vector<Component> components_;
  ThreadPool* pool_ = nullptr;  ///< Optional; not owned, not cloned.
};

}  // namespace mrx

#endif  // MRX_INDEX_M_STAR_INDEX_H_
