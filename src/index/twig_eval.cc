#include "index/twig_eval.h"

#include <algorithm>

namespace mrx {
namespace {

/// The trunk chain as pattern-node pointers, root first.
std::vector<const TwigNode*> TrunkChain(const TwigQuery& twig) {
  std::vector<const TwigNode*> chain;
  const TwigNode* node = &twig.root();
  while (node != nullptr) {
    chain.push_back(node);
    const TwigNode* next = nullptr;
    for (const TwigNode& c : node->children) {
      if (c.trunk) next = &c;
    }
    node = next;
  }
  return chain;
}

/// Existential forward match of predicate `pattern` below `node`
/// (pattern.descendant selects child vs descendant axis). Counts visited
/// data nodes.
bool MatchesPredicate(const DataGraph& g, NodeId node,
                      const TwigNode& pattern, uint64_t* visited);

bool MatchesHere(const DataGraph& g, NodeId node, const TwigNode& pattern,
                 uint64_t* visited) {
  if (pattern.label != kWildcardLabel && pattern.label != g.label(node)) {
    return false;
  }
  for (const TwigNode& c : pattern.children) {
    if (!MatchesPredicate(g, node, c, visited)) return false;
  }
  return true;
}

bool MatchesPredicate(const DataGraph& g, NodeId node,
                      const TwigNode& pattern, uint64_t* visited) {
  if (!pattern.descendant) {
    for (NodeId c : g.children(node)) {
      ++*visited;
      if (MatchesHere(g, c, pattern, visited)) return true;
    }
    return false;
  }
  // Descendant axis: bounded BFS over the closure.
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> work;
  for (NodeId c : g.children(node)) {
    if (!seen[c]) {
      seen[c] = 1;
      work.push_back(c);
    }
  }
  for (size_t i = 0; i < work.size(); ++i) {
    ++*visited;
    if (MatchesHere(g, work[i], pattern, visited)) return true;
    for (NodeId c : g.children(work[i])) {
      if (!seen[c]) {
        seen[c] = 1;
        work.push_back(c);
      }
    }
  }
  return false;
}

/// Backward walk: does some instance of the trunk ending at `node`
/// satisfy every trunk position's predicates (and anchoring)?
bool ValidateTrunkAt(const DataGraph& g, NodeId node,
                     const std::vector<const TwigNode*>& chain, size_t pos,
                     bool anchored, uint64_t* visited) {
  ++*visited;
  if (!MatchesHere(g, node, *chain[pos], visited)) return false;
  if (pos == 0) return !anchored || node == g.root();

  const bool via_descendant = chain[pos]->descendant;
  if (!via_descendant) {
    for (NodeId p : g.parents(node)) {
      if (ValidateTrunkAt(g, p, chain, pos - 1, anchored, visited)) {
        return true;
      }
    }
    return false;
  }
  // Descendant axis: any proper ancestor may carry the previous step.
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> work;
  for (NodeId p : g.parents(node)) {
    if (!seen[p]) {
      seen[p] = 1;
      work.push_back(p);
    }
  }
  for (size_t i = 0; i < work.size(); ++i) {
    if (ValidateTrunkAt(g, work[i], chain, pos - 1, anchored, visited)) {
      return true;
    }
    for (NodeId p : g.parents(work[i])) {
      if (!seen[p]) {
        seen[p] = 1;
        work.push_back(p);
      }
    }
  }
  return false;
}

}  // namespace

QueryResult EvaluateTwigWithIndex(const MStarIndex& index,
                                  const TwigQuery& twig,
                                  DataEvaluator& evaluator) {
  // Phase 1: the index answers the trunk exactly.
  PathExpression trunk = twig.TrunkExpression();
  QueryResult result = index.QueryTopDown(trunk, &evaluator);
  if (!twig.HasPredicates()) return result;

  // Phase 2: validate each trunk candidate's predicates along a backward
  // instance walk.
  const DataGraph& g = index.component(0).data();
  std::vector<const TwigNode*> chain = TrunkChain(twig);
  std::vector<NodeId> answer;
  for (NodeId n : result.answer) {
    if (ValidateTrunkAt(g, n, chain, chain.size() - 1, twig.anchored(),
                        &result.stats.data_nodes_validated)) {
      answer.push_back(n);
    }
  }
  result.answer = std::move(answer);
  result.precise = false;
  std::sort(result.answer.begin(), result.answer.end());
  return result;
}

}  // namespace mrx
