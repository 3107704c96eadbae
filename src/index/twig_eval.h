#ifndef MRX_INDEX_TWIG_EVAL_H_
#define MRX_INDEX_TWIG_EVAL_H_

#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "query/twig.h"

namespace mrx {

/// \brief Index-assisted twig evaluation: the structural index answers the
/// *trunk* (the output path), then each trunk candidate is validated
/// against the data graph — the branch predicates are checked at every
/// trunk position along a backward instance walk.
///
/// Bisimilarity summarizes incoming label paths only, so branch predicates
/// can never be certified by the index (the paper's §2 points to covering
/// indexes / UD(k,l) for that); `precise` is therefore false whenever the
/// twig has predicates. Answers are always exact. The trunk validates its
/// under-refined index nodes through `evaluator`; validation work is
/// charged to `stats.data_nodes_validated` as usual.
QueryResult EvaluateTwigWithIndex(const MStarIndex& index,
                                  const TwigQuery& twig,
                                  DataEvaluator& evaluator);

}  // namespace mrx

#endif  // MRX_INDEX_TWIG_EVAL_H_
