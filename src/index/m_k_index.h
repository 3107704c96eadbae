#ifndef MRX_INDEX_M_K_INDEX_H_
#define MRX_INDEX_M_K_INDEX_H_

#include <vector>

#include "index/evaluator.h"
#include "index/index_graph.h"
#include "query/data_evaluator.h"
#include "query/path_expression.h"

namespace mrx {

/// \brief The M(k)-index (paper §3): a workload-adaptive structural index
/// that refines itself to support frequently used path expressions (FUPs)
/// *without* over-refining irrelevant index or data nodes.
///
/// It shares the D(k)-index's three properties (extents are v.k-bisimilar;
/// index edges mirror data edges between extents; parent.k ≥ child.k − 1)
/// but its REFINE procedure (§3.2) uses the FUP's *data-graph target set* to
/// restrict refinement to relevant data, merging all irrelevant pieces back
/// into a single remainder node (`vrest`) that keeps its old similarity.
///
/// Lifecycle (§3's Figure 5): initialize as A(0); answer queries with
/// validation; Refine() for each FUP extracted from the workload; repeat.
class MkIndex {
 public:
  /// Starts as the A(0)-index of `g`; `g` must outlive the index.
  explicit MkIndex(const DataGraph& g);

  /// The §3.1 query algorithm: evaluate on the index graph, return
  /// sufficiently-refined extents directly, validate the rest.
  QueryResult Query(const PathExpression& path);

  /// The §3.2 REFINE procedure: refines the index so `fup` is answered
  /// precisely (its data-graph target set is computed internally, as the
  /// query processor would have during validation). After Refine returns,
  /// every index node reachable by `fup` has local similarity ≥
  /// length(fup), so Query(fup) no longer validates.
  ///
  /// Anchored (`/a/b`) FUPs are refined like their floating counterparts;
  /// see AnswerOnIndex for why anchored queries always validate.
  void Refine(const PathExpression& fup);

  const IndexGraph& graph() const { return graph_; }

  /// Test hook: disables the "merge unnecessary splits" step (REFINENODE
  /// lines 19-26). With merging off, refinement over-refines irrelevant
  /// data nodes the way D(k)-promote does — the ablation of DESIGN.md §6.
  void set_merge_unnecessary_splits(bool enabled) {
    merge_unnecessary_splits_ = enabled;
  }

 private:
  /// REFINENODE (§3.2), reformulated over data-node sets: ensures every
  /// index node containing a node of `relevant` has local similarity ≥ k,
  /// first refining (only) the parents that contain predecessors of
  /// `relevant`, then splitting each cover by the Succ sets of qualifying
  /// parents, merging pieces that contain no relevant node back together.
  /// `relevant` must be sorted.
  /// `scratch` (here and below) serves every split of one Refine call.
  void RefineNode(const std::vector<NodeId>& relevant, int32_t k,
                  SplitScratch* scratch);

  /// Splits one cover node (REFINENODE lines 9-26).
  void SplitCover(IndexNodeId v, int32_t k,
                  const std::vector<NodeId>& relevant, SplitScratch* scratch);

  /// PROMOTE' (§3.2): breaks surviving false instances of `fup` by
  /// promoting all data nodes of under-refined target nodes, long-jumping
  /// out (via the return flag) as soon as no false instance of `fup`
  /// remains. Returns true when evaluation of `fup` is precise.
  bool PromotePrime(const std::vector<NodeId>& extent, int32_t kv,
                    const PathExpression& fup, SplitScratch* scratch);

  /// True iff every index node reachable by `fup` has similarity ≥ its
  /// length (no false instances remain).
  bool NoFalseInstances(const PathExpression& fup, SplitScratch* scratch);

  IndexGraph graph_;
  DataEvaluator evaluator_;
  bool merge_unnecessary_splits_ = true;
};

}  // namespace mrx

#endif  // MRX_INDEX_M_K_INDEX_H_
