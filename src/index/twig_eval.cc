#include "index/twig_eval.h"

#include <algorithm>
#include <cstdint>
#include <deque>

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

/// \brief The visited sets and queues of the descendant-axis searches of
/// one twig evaluation. Searches nest (a trunk step's search validates the
/// previous trunk position, whose predicates may search again), so each
/// nesting depth keeps its own stamped array, sized to the graph on first
/// use and reused by every later search at that depth.
class SearchScratch {
  struct Level {
    std::vector<uint32_t> stamp;  ///< == epoch: visited by the open search.
    uint32_t epoch = 0;
    std::vector<NodeId> work;
  };

 public:
  explicit SearchScratch(size_t num_nodes) : num_nodes_(num_nodes) {}

  /// RAII: one open search, nested below the ones already open, with an
  /// empty visited set and queue.
  class Search {
   public:
    explicit Search(SearchScratch* scratch)
        : scratch_(scratch), level_(scratch->Enter()) {}
    ~Search() { --scratch_->depth_; }
    Search(const Search&) = delete;
    Search& operator=(const Search&) = delete;

    /// Queues `n` unless this search has visited it already.
    void Visit(NodeId n) {
      if (level_.stamp[n] == level_.epoch) return;
      level_.stamp[n] = level_.epoch;
      level_.work.push_back(n);
    }
    /// The nodes visited so far, in visit order (grows while read).
    const std::vector<NodeId>& queue() const { return level_.work; }

   private:
    SearchScratch* scratch_;
    Level& level_;
  };

 private:
  Level& Enter() {
    if (depth_ == levels_.size()) {
      levels_.emplace_back().stamp.assign(num_nodes_, 0);
    }
    Level& level = levels_[depth_++];
    if (++level.epoch == 0) {  // Wrapped: forget every earlier search.
      std::fill(level.stamp.begin(), level.stamp.end(), 0);
      level.epoch = 1;
    }
    level.work.clear();
    return level;
  }

  const size_t num_nodes_;
  size_t depth_ = 0;
  std::deque<Level> levels_;  // Stable addresses while deeper ones open.
};

/// Existential forward match of predicate `pattern` below `node`
/// (pattern.descendant selects child vs descendant axis). Counts visited
/// data nodes.
bool MatchesPredicate(const DataGraph& g, NodeId node,
                      const TwigNode& pattern, SearchScratch* scratch,
                      uint64_t* visited);

bool MatchesHere(const DataGraph& g, NodeId node, const TwigNode& pattern,
                 SearchScratch* scratch, uint64_t* visited) {
  if (pattern.label != kWildcardLabel && pattern.label != g.label(node)) {
    return false;
  }
  for (const TwigNode& c : pattern.children) {
    if (!MatchesPredicate(g, node, c, scratch, visited)) return false;
  }
  return true;
}

bool MatchesPredicate(const DataGraph& g, NodeId node,
                      const TwigNode& pattern, SearchScratch* scratch,
                      uint64_t* visited) {
  if (!pattern.descendant) {
    for (NodeId c : g.children(node)) {
      ++*visited;
      if (MatchesHere(g, c, pattern, scratch, visited)) return true;
    }
    return false;
  }
  // Descendant axis: bounded BFS over the closure.
  SearchScratch::Search search(scratch);
  for (NodeId c : g.children(node)) search.Visit(c);
  const std::vector<NodeId>& work = search.queue();
  for (size_t i = 0; i < work.size(); ++i) {
    const NodeId at = work[i];
    ++*visited;
    if (MatchesHere(g, at, pattern, scratch, visited)) return true;
    for (NodeId c : g.children(at)) search.Visit(c);
  }
  return false;
}

/// Backward walk: does some instance of the trunk ending at `node`
/// satisfy every trunk position's predicates (and anchoring)?
bool ValidateTrunkAt(const DataGraph& g, NodeId node,
                     const std::vector<const TwigNode*>& chain, size_t pos,
                     bool anchored, SearchScratch* scratch,
                     uint64_t* visited) {
  ++*visited;
  if (!MatchesHere(g, node, *chain[pos], scratch, visited)) return false;
  if (pos == 0) return !anchored || node == g.root();

  const bool via_descendant = chain[pos]->descendant;
  if (!via_descendant) {
    for (NodeId p : g.parents(node)) {
      if (ValidateTrunkAt(g, p, chain, pos - 1, anchored, scratch, visited)) {
        return true;
      }
    }
    return false;
  }
  // Descendant axis: any proper ancestor may carry the previous step.
  SearchScratch::Search search(scratch);
  for (NodeId p : g.parents(node)) search.Visit(p);
  const std::vector<NodeId>& work = search.queue();
  for (size_t i = 0; i < work.size(); ++i) {
    const NodeId at = work[i];
    if (ValidateTrunkAt(g, at, chain, pos - 1, anchored, scratch, visited)) {
      return true;
    }
    for (NodeId p : g.parents(at)) search.Visit(p);
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
  SearchScratch scratch(g.num_nodes());
  std::vector<NodeId> answer;
  for (NodeId n : result.answer) {
    if (ValidateTrunkAt(g, n, chain, chain.size() - 1, twig.anchored(),
                        &scratch, &result.stats.data_nodes_validated)) {
      answer.push_back(n);
    }
  }
  result.answer = std::move(answer);
  result.precise = false;
  std::sort(result.answer.begin(), result.answer.end());
  return result;
}

}  // namespace mrx
