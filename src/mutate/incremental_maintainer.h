#ifndef MRX_MUTATE_INCREMENTAL_MAINTAINER_H_
#define MRX_MUTATE_INCREMENTAL_MAINTAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/data_graph.h"
#include "index/bisimulation.h"
#include "index/m_star_index.h"
#include "mutate/mutable_graph.h"
#include "mutate/mutation.h"
#include "query/path_expression.h"
#include "util/result.h"

namespace mrx::mutate {

struct MaintainerOptions {
  /// Depth of the maintained A-chain: levels A(0)..A(k_max). Must match the
  /// k_max of any M*(k) hierarchy built from the exported specs.
  int k_max = 3;
  /// A level whose dirty set exceeds this fraction of the node count falls
  /// back to one full refinement round (and cascades full rounds upward —
  /// a full round conservatively marks every node changed). 0 forces full
  /// rounds always (a from-scratch rebuild per batch, the bench baseline);
  /// > 1 never falls back.
  double rebuild_threshold = 0.25;
  /// When true the maintainer also keeps the D(k)-construct partition for
  /// `dk_fups` exact (the A-chain is always maintained). Off by default.
  bool maintain_dk = false;
  std::vector<PathExpression> dk_fups;
  /// Optional pool for the full-round fallback and the from-scratch seed
  /// build (the incremental path itself is serial — its cost is the point).
  ThreadPool* pool = nullptr;
};

/// Renumbers a partition to ascending first occurrence in node order — the
/// canonical form every maintained level uses, so differently-numbered but
/// equal partitions compare byte-identical.
std::vector<uint32_t> CanonicalBlockIds(const std::vector<uint32_t>& block_of,
                                        uint32_t num_blocks);

/// What one applied batch did, in the id space of the *new* version.
struct BatchReceipt {
  uint64_t version = 0;            ///< Version number after this batch.
  std::vector<NodeId> new_nodes;   ///< Appended nodes, compact ids, op order.
  size_t nodes = 0;                ///< Node count of the new version.
  size_t edges = 0;
  size_t nodes_deleted = 0;
  size_t dirty_nodes = 0;          ///< Cascade size: Σ per-level dirty sets.
  size_t incremental_rounds = 0;
  size_t full_rounds = 0;          ///< Levels that hit the rebuild fallback.
  bool dk_rebuilt = false;         ///< D chain rebuilt from scratch (kreq
                                   ///< of an existing label changed).
};

struct MaintainerStats {
  uint64_t batches = 0;
  uint64_t ops = 0;
  uint64_t nodes_added = 0;
  uint64_t nodes_deleted = 0;
  uint64_t incremental_rounds = 0;
  uint64_t full_rounds = 0;
  uint64_t dirty_nodes = 0;  ///< Cumulative cascade size.
  uint64_t dk_rebuilds = 0;
};

/// \brief Keeps the A(k) chain — and optionally the D(k)-construct
/// partition — exact under graph mutations, by local re-refinement with a
/// bounded cascade. The serving writer does not run it: it is the oracle
/// behind `mrx mutate`, `mrx check --mode mutate`, the tests and
/// bench_mutation.
///
/// The algorithm per batch: step the LiveGraph to its next version, then
/// walk the partition chain level by level. Level 0 (the label partition)
/// is recomputed directly in O(V).
/// For level i ≥ 1 the dirty set is
///
///   dirty_i = new nodes ∪ parent-set-changed ∪ changed_{i-1}
///                       ∪ children(changed_{i-1})
///
/// (new nodes and parent-set-changed seed *every* level: two old parents
/// may share their level-0 block but differ at level 1, so a swap first
/// bites at level 2). Everything outside dirty_i keeps its class — a clean
/// class can neither split (all signature inputs unchanged up to a
/// consistent renaming of level-(i−1) ids) nor merge with another clean
/// class (the renaming is injective). Each dirty node re-signs against the
/// current level-(i−1) blocks and joins the clean class with the same
/// signature if one exists — candidates are found by scanning the
/// level-(i−1) extent bucket the node sits in, since a clean class's
/// members all share one such bucket — or founds a fresh class. Classes
/// are then renumbered canonically (ascending first occurrence in node
/// order, the numbering every from-scratch round produces).
///
/// When |dirty_i| exceeds rebuild_threshold · |V| the level falls back to
/// one full RefineBisimulationRound / RefineDkConstructRound instead.
///
/// Exactness is pinned two ways: tests/incremental_maintainer_test.cc
/// compares whole chains against from-scratch rebuilds over random
/// mutation traces, and the src/check mutation-trace harness replays
/// thousands of seeded traces against an independent oracle.
class IncrementalMaintainer {
 public:
  /// Seeds from `g` at version 0 with full from-scratch builds. The seed
  /// graph is only read during construction; the maintainer keeps its own
  /// copy afterwards.
  explicit IncrementalMaintainer(const DataGraph& g,
                                 MaintainerOptions options = {});

  IncrementalMaintainer(const IncrementalMaintainer&) = delete;
  IncrementalMaintainer& operator=(const IncrementalMaintainer&) = delete;

  /// Steps the graph to the next version (LiveGraph::Apply) and brings
  /// every maintained partition to it. On failure (any op invalid) the
  /// graph and partitions are untouched. Batch node ids refer to the
  /// current version()'s compact id space; receipt ids to the new
  /// version's.
  Result<BatchReceipt> Apply(const MutationBatch& batch);

  /// The current materialized version (compact NodeId space).
  const DataGraph& graph() const { return live_.graph(); }
  std::shared_ptr<const DataGraph> graph_ptr() const {
    return live_.graph_ptr();
  }
  uint64_t version() const { return live_.version(); }

  const MaintainerOptions& options() const { return options_; }
  const MaintainerStats& stats() const { return stats_; }

  /// The exact A(k) partition of graph(), canonically numbered, 0 ≤ k ≤
  /// k_max. `rounds`/`reached_fixpoint` are set from the chain's block
  /// counts.
  BisimulationPartition AkPartition(int k) const;

  /// The exact D(k)-construct partition for options().dk_fups (requires
  /// maintain_dk), canonically numbered.
  BisimulationPartition DkPartition() const;

  /// Replaces the maintained FUP set (full D-chain rebuild).
  void SetDkFups(std::vector<PathExpression> fups);

  /// Component specs for MStarIndex::FromComponents, numbered exactly as
  /// BuildStaticHierarchy(graph(), k_max) would number them — so the
  /// resulting hierarchy is byte-identical to a static build on the
  /// current version (level 0 in ascending-label order, later levels in
  /// first-occurrence order, fixpoint levels keeping the previous
  /// numbering).
  std::vector<MStarComponentSpec> ExportStaticSpecs() const;

  /// FromComponents(graph(), ExportStaticSpecs()).
  Result<MStarIndex> BuildMStar() const;

 private:
  /// One maintained partition level, canonically numbered, with extent
  /// buckets (CSR: nodes of block b are extent_nodes[extent_offsets[b] ..
  /// extent_offsets[b+1]], ascending).
  struct Level {
    std::vector<uint32_t> block_of;
    uint32_t num_blocks = 0;
    std::vector<uint32_t> extent_offsets;
    std::vector<NodeId> extent_nodes;
  };

  struct Chain {
    std::vector<Level> levels;
  };

  void RebuildAChain();
  void RebuildDChain();

  /// Recomputes level 0 of `chain` (label partition, first-occurrence
  /// canonical) for graph() in O(V). With `append_only` (the level's first
  /// old_num_nodes entries are known unchanged) it only classifies the
  /// appended tail and patches the extents in place.
  void UpdateLevelZero(Chain* chain, bool append_only = false,
                       size_t old_num_nodes = 0) const;

  /// Advances every level of `chain` past level 0 to the current graph_.
  /// `kreq` selects the D(k) freeze schedule (nullptr = all-active A
  /// rounds); `seed` is the per-level base dirty set (new nodes ∪
  /// parent-set-changed); `new_to_old` maps current compact ids to the
  /// previous version's (nullptr when no deletion made the map an identity
  /// prefix of size `old_num_nodes`).
  void UpdateChain(Chain* chain, const std::vector<int32_t>* kreq,
                   const DataGraph& g, const std::vector<NodeId>& new_nodes,
                   const std::vector<NodeId>& seed,
                   const std::vector<NodeId>* new_to_old,
                   size_t old_num_nodes, bool any_deletion,
                   BatchReceipt* receipt);

  /// Builds extent buckets (and, when `canonicalize`, renumbers blocks to
  /// ascending first occurrence first). `id_bound` bounds the raw ids in
  /// block_of. Reuses the scratch members — one fused renumber+count pass,
  /// no per-call allocation in steady state.
  void FinishLevel(Level* lvl, std::vector<uint32_t>&& block_of,
                   uint32_t id_bound, bool canonicalize) const;

  /// Append-only finish: lvl->block_of already holds the new assignments
  /// (old prefix untouched, appended tail classified with raw ids <
  /// id_bound). Renumbers only the fresh classes (old canonical ids cannot
  /// move — their first occurrences are all below the appended range) and
  /// splices the appended nodes into the extent buckets by one backward
  /// merge instead of a full rebuild.
  void PatchLevelAppendOnly(Level* lvl, size_t old_num_nodes,
                            uint32_t old_blocks, uint32_t id_bound) const;

  LiveGraph live_;

  MaintainerOptions options_;
  MaintainerStats stats_;

  Chain a_chain_;                  ///< Levels 0..k_max.
  Chain d_chain_;                  ///< Levels 0..max kreq (maintain_dk).
  std::vector<int32_t> dk_kreq_;   ///< Per-label requirement, current fups.

  /// Apply-path scratch, reused across batches so the steady state is
  /// allocation-free. The stamp arrays are epoch-versioned in place of
  /// cleared bitmaps (an O(num_blocks) memset per level otherwise).
  mutable std::vector<uint32_t> scratch_renum_;
  mutable std::vector<uint32_t> scratch_cursor_;
  mutable std::vector<uint32_t> scratch_counts_;
  mutable std::vector<uint32_t> scratch_bucket_stamp_;
  mutable std::vector<uint32_t> scratch_class_stamp_;
  mutable uint32_t scratch_epoch_ = 0;
};

}  // namespace mrx::mutate

#endif  // MRX_MUTATE_INCREMENTAL_MAINTAINER_H_
