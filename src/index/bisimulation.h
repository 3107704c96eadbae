#ifndef MRX_INDEX_BISIMULATION_H_
#define MRX_INDEX_BISIMULATION_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "graph/data_graph.h"

namespace mrx {

class ThreadPool;
struct RefineScratchImpl;

/// \brief Reusable working memory for refinement rounds.
///
/// A refinement round needs a signature-interning table, per-shard scratch
/// tables when sharded, and remap buffers. Allocating them fresh every
/// round is measurable at scale (millions of nodes × k levels); callers
/// that run many rounds — the static hierarchy build, the scale benches —
/// pass one RefineScratch through all of them and the arenas/tables are
/// Reset (capacity kept) instead of reallocated. Purely an allocation
/// cache: results are byte-identical with or without it, and a null
/// scratch everywhere keeps the old behavior.
class RefineScratch {
 public:
  RefineScratch();
  ~RefineScratch();
  RefineScratch(const RefineScratch&) = delete;
  RefineScratch& operator=(const RefineScratch&) = delete;

  RefineScratchImpl* impl() { return impl_.get(); }

 private:
  std::unique_ptr<RefineScratchImpl> impl_;
};

/// Local similarity value recorded for blocks of a full (fixpoint)
/// bisimulation: bisimilar nodes are k-bisimilar for every k.
inline constexpr int32_t kInfiniteSimilarity =
    std::numeric_limits<int32_t>::max();

/// \brief A partition of the data nodes produced by iterated refinement.
struct BisimulationPartition {
  std::vector<uint32_t> block_of;  ///< Block of each data node.
  uint32_t num_blocks = 0;
  /// Number of refinement rounds actually applied (< requested k when the
  /// fixpoint — the full bisimulation — was reached early).
  int rounds = 0;
  bool reached_fixpoint = false;
};

/// \brief Execution knobs shared by every refinement entry point.
///
/// Replaces the historical (ThreadPool*, RefineScratch*) trailing
/// parameters, which had grown into four diverging overload sets. Both
/// fields are optional: `{}` is the serial, allocate-fresh path, and any
/// combination is valid — results are byte-identical regardless (the
/// pool's determinism contract and the scratch's allocation-cache contract
/// both guarantee it). Aggregate construction keeps call sites terse:
/// `ComputeKBisimulation(g, k, {.pool = &pool, .scratch = &scratch})`.
struct RefineOptions {
  ThreadPool* pool = nullptr;      ///< Shard rounds over this pool.
  RefineScratch* scratch = nullptr;  ///< Reuse round working memory.
};

/// \brief Computes the k-bisimulation partition of `g` (Definition 2).
///
/// Round 0 is the label partition (A(0)); each subsequent round refines by
/// the parents' blocks of the previous round. Stops early at the fixpoint.
/// Pass k < 0 to refine all the way to the fixpoint — the full bisimulation
/// underlying the 1-index (Definition 1).
///
/// With a non-null `pool`, each round shards its signature grouping over
/// contiguous node ranges and merges the per-shard tables with a
/// deterministic renumbering pass. Block ids are **byte-identical for any
/// thread count** — including the pool-less serial path — because the
/// merge assigns ids in ascending first-occurrence order, exactly the
/// order the serial scan produces (see docs/PERFORMANCE.md for the
/// contract; tests/parallel_build_test.cc pins it).
BisimulationPartition ComputeKBisimulation(const DataGraph& g, int k,
                                           const RefineOptions& options = {});

/// \brief One all-active refinement round applied in place: advances the
/// A(i) partition in `part` to A(i+1). Returns false — leaving `part`
/// untouched except for `reached_fixpoint` — when the partition is already
/// the fixpoint. Callers that need every level A(0..k) (the static M*(k)
/// hierarchy, growth benches) use this to pay one round per level instead
/// of rebuilding each level from scratch.
bool RefineBisimulationRound(const DataGraph& g, BisimulationPartition* part,
                             const RefineOptions& options = {});

/// \brief The D(k)-construct partition (Chen et al., SIGMOD'03), used by
/// DkIndex::Construct.
///
/// `kreq_by_label[l]` is the local similarity required of nodes labeled
/// `l`; the caller must already have propagated the D(k) constraint
/// (parent requirement ≥ child requirement − 1 along every data edge).
/// Nodes freeze once their label's requirement is met, which is exactly
/// what makes D(k)-construct over-refine *irrelevant index nodes* (every
/// same-label node is refined alike) but never violate Property 3.
BisimulationPartition ComputeDkConstructPartition(
    const DataGraph& g, const std::vector<int32_t>& kreq_by_label,
    const RefineOptions& options = {});

/// \brief One D(k)-construct refinement round applied in place: advances
/// the round-(`round`−1) partition in `part` to round `round` under the
/// freeze schedule `kreq_by_label` (nodes whose label requirement is
/// < `round` are frozen). Returns false — setting `reached_fixpoint` —
/// when the round leaves the partition unchanged; because the active set
/// only shrinks with the round number and blocks are label-uniform, no
/// later round can change it either, so callers may stop. The live-update
/// maintainer uses this to rebuild a single D(k) level after a mutation
/// cascade exceeds its incremental threshold.
bool RefineDkConstructRound(const DataGraph& g, BisimulationPartition* part,
                            const std::vector<int32_t>& kreq_by_label,
                            int32_t round, const RefineOptions& options = {});

}  // namespace mrx

#endif  // MRX_INDEX_BISIMULATION_H_
