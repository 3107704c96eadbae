#ifndef MRX_INDEX_D_K_INDEX_H_
#define MRX_INDEX_D_K_INDEX_H_

#include <vector>

#include "index/evaluator.h"
#include "index/index_graph.h"
#include "query/data_evaluator.h"
#include "query/path_expression.h"

namespace mrx {

/// \brief The D(k)-index of Chen, Lim & Ong (SIGMOD 2003), reproduced as
/// the paper's baseline, in both of its flavors (§2, §5):
///
///  - **D(k)-construct**: built from scratch for a FUP set. All index nodes
///    with the same label share a local similarity requirement, which is
///    the source of its *over-refinement of irrelevant index nodes*.
///  - **D(k)-promote**: starts from an A(0)-index and incrementally applies
///    the PROMOTE procedure per FUP. PROMOTE recursively promotes *all*
///    parents and splits by the (possibly overqualified) parents' current
///    extents, which is the source of its *over-refinement for irrelevant
///    data nodes* and *due to overqualified parents*.
///
/// Both flavors keep the D(k) properties: extents are v.k-bisimilar and a
/// parent's local similarity is at least the child's minus one.
class DkIndex {
 public:
  /// D(k)-construct: builds the index supporting every FUP in `fups`.
  /// `g` must outlive the index.
  static DkIndex Construct(const DataGraph& g,
                           const std::vector<PathExpression>& fups);

  /// D(k)-promote starting point: the A(0)-index of `g`.
  explicit DkIndex(const DataGraph& g);

  /// The paper's PROMOTE procedure (§2), applied for one FUP: every index
  /// node reachable by `fup` is promoted to local similarity ≥ length(fup).
  void Promote(const PathExpression& fup);

  /// Evaluates `path` with validation (§3.1's query algorithm applies to
  /// the D(k)-index unchanged).
  QueryResult Query(const PathExpression& path);

  const IndexGraph& graph() const { return graph_; }

 private:
  DkIndex(const DataGraph& g, IndexGraph graph);

  /// Promotes every index node containing a node of `extent` to local
  /// similarity ≥ kv, recursively promoting parents to kv-1 first and then
  /// splitting by Succ of each current parent's extent (PROMOTE lines 3-6).
  /// Extent-based rather than node-id-based so that it stays correct when
  /// recursion through a cyclic region splits the original node.
  /// `scratch` serves every split of one Promote call.
  void PromoteExtent(const std::vector<NodeId>& extent, int32_t kv,
                     SplitScratch* scratch);

  IndexGraph graph_;
  DataEvaluator validator_;
};

/// \brief Per-label local-similarity requirements for D(k)-construct:
/// each FUP's target label requires the FUP's length, propagated backwards
/// through the label adjacency of `g` so that a parent label's requirement
/// is at least the child label's minus one. Exposed for tests.
std::vector<int32_t> ComputeDkLabelRequirements(
    const DataGraph& g, const std::vector<PathExpression>& fups);

}  // namespace mrx

#endif  // MRX_INDEX_D_K_INDEX_H_
