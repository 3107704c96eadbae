#ifndef MRX_QUERY_TWIG_H_
#define MRX_QUERY_TWIG_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/data_graph.h"
#include "query/path_expression.h"
#include "util/result.h"

namespace mrx {

/// \brief One node of a twig (branching path) pattern.
///
/// `children` are AND-predicates: every child pattern must match below a
/// data node for the node to match this pattern node. The child flagged
/// `trunk` (at most one) continues the output path; the last trunk node
/// is the query's output. `descendant` is the axis from the parent
/// pattern node (child vs one-or-more edges).
struct TwigNode {
  LabelId label = kUnknownLabel;  ///< kWildcardLabel allowed.
  bool descendant = false;        ///< Axis from the parent pattern node.
  bool trunk = false;             ///< Continues the output path.
  std::vector<TwigNode> children;
};

/// \brief A branching path query, e.g. `//open_auction[bidder/personref]
/// /seller/person` — the query class the paper's §2 cites covering
/// indexes and the UD(k,l)-index for. Bisimilarity indexes only summarize
/// incoming paths, so twigs are answered by using the index for the
/// *trunk* and validating the branch predicates against the data graph.
class TwigQuery {
 public:
  /// Parses an XPath-like twig: steps separated by `/` or `//`, each step
  /// optionally followed by one or more `[...]` predicates, which are
  /// themselves twigs (relative, child axis by default, `.//` for the
  /// descendant axis is written as a leading `//` inside the brackets).
  /// Examples:
  ///   //a[b]/c             c children of a's that have a b child
  ///   //a[b/c][//d]/e      ... with a nested path and a descendant pred
  ///   /site/people/person[address/city]
  /// Steps and predicates may nest at most 256 pattern nodes deep;
  /// deeper input is InvalidArgument.
  static Result<TwigQuery> Parse(std::string_view text,
                                 const SymbolTable& symbols);

  const TwigNode& root() const { return root_; }
  bool anchored() const { return anchored_; }

  /// The trunk as a plain path expression (labels + axes along the trunk
  /// chain) — what the structural index evaluates.
  PathExpression TrunkExpression() const;

  /// True if any pattern node carries predicates (otherwise the twig is a
  /// plain path).
  bool HasPredicates() const;

  /// Canonical rendering: predicate chains print as nested brackets
  /// (`a[b/c]` prints as `a[b[c]]` — equivalent under existential AND).
  std::string ToString(const SymbolTable& symbols) const;

 private:
  TwigQuery(TwigNode root, bool anchored)
      : root_(std::move(root)), anchored_(anchored) {}

  TwigNode root_;
  bool anchored_;
};

/// \brief Ground-truth twig evaluation on the data graph (bottom-up
/// candidate sets, then a top-down trunk restriction). Returns the sorted
/// output-node set.
std::vector<NodeId> EvaluateTwig(const DataGraph& graph,
                                 const TwigQuery& twig);

}  // namespace mrx

#endif  // MRX_QUERY_TWIG_H_
