#include "query/twig.h"

#include <algorithm>

#include "index/extent_ops.h"
#include "util/string_util.h"

namespace mrx {
namespace {

/// Character cursor for the twig parser.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  void Advance() { ++pos_; }
  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  std::string_view ReadName() {
    size_t begin = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '.' ||
                        Peek() == ':' || Peek() == '#' || Peek() == '@' ||
                        Peek() == '*')) {
      ++pos_;
    }
    return text_.substr(begin, pos_ - begin);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// Deepest pattern-node nesting a twig may have. The parser recurses once
/// per step and per predicate (and the TwigNode tree is evaluated,
/// rendered and destroyed recursively), so the query text must not choose
/// the depth.
constexpr int kMaxTwigDepth = 256;

/// Parses a chain of steps (with predicates) into a TwigNode, `depth`
/// pattern nodes deep; the chain's continuation becomes a child with
/// `trunk = mark_trunk`.
Result<TwigNode> ParseChain(Cursor* cur, const SymbolTable& symbols,
                            bool first_descendant, bool mark_trunk,
                            int depth);

Result<TwigNode> ParseStep(Cursor* cur, const SymbolTable& symbols,
                           bool descendant, bool mark_trunk, int depth) {
  if (depth > kMaxTwigDepth) {
    return Status::InvalidArgument("twig nests deeper than " +
                                   std::to_string(kMaxTwigDepth) +
                                   " steps and predicates");
  }
  std::string_view name = cur->ReadName();
  if (name.empty()) {
    return Status::InvalidArgument("expected a step name in twig");
  }
  TwigNode node;
  node.descendant = descendant;
  if (name == "*") {
    node.label = kWildcardLabel;
  } else {
    auto id = symbols.Lookup(name);
    node.label = id.has_value() ? *id : kUnknownLabel;
  }

  // Predicates: zero or more [ ... ] groups.
  while (cur->Consume('[')) {
    // Inside a predicate, a leading "//" means descendant axis relative to
    // this node; default is child axis.
    bool pred_descendant = cur->ConsumeLiteral("//");
    if (!pred_descendant) cur->Consume('/');  // Optional "./"-like slash.
    MRX_ASSIGN_OR_RETURN(
        TwigNode pred,
        ParseChain(cur, symbols, pred_descendant, /*mark_trunk=*/false,
                   depth + 1));
    if (!cur->Consume(']')) {
      return Status::InvalidArgument("unterminated '[' in twig");
    }
    node.children.push_back(std::move(pred));
  }

  // Continuation of the chain.
  if (cur->ConsumeLiteral("//")) {
    MRX_ASSIGN_OR_RETURN(
        TwigNode next,
        ParseChain(cur, symbols, /*first_descendant=*/true, mark_trunk,
                   depth + 1));
    next.trunk = mark_trunk;
    node.children.push_back(std::move(next));
  } else if (cur->Consume('/')) {
    MRX_ASSIGN_OR_RETURN(
        TwigNode next,
        ParseChain(cur, symbols, /*first_descendant=*/false, mark_trunk,
                   depth + 1));
    next.trunk = mark_trunk;
    node.children.push_back(std::move(next));
  }
  return node;
}

Result<TwigNode> ParseChain(Cursor* cur, const SymbolTable& symbols,
                            bool first_descendant, bool mark_trunk,
                            int depth) {
  return ParseStep(cur, symbols, first_descendant, mark_trunk, depth);
}

const TwigNode* TrunkChild(const TwigNode& node) {
  for (const TwigNode& c : node.children) {
    if (c.trunk) return &c;
  }
  return nullptr;
}

bool AnyPredicates(const TwigNode& node) {
  for (const TwigNode& c : node.children) {
    if (!c.trunk) return true;
    if (AnyPredicates(c)) return true;
  }
  return false;
}

void RenderNode(const TwigNode& node, const SymbolTable& symbols,
                std::string* out) {
  if (node.label == kWildcardLabel) {
    *out += '*';
  } else if (node.label == kUnknownLabel) {
    *out += '?';
  } else {
    *out += symbols.Name(node.label);
  }
  for (const TwigNode& c : node.children) {
    if (c.trunk) continue;
    *out += '[';
    if (c.descendant) *out += "//";
    RenderNode(c, symbols, out);
    *out += ']';
  }
  if (const TwigNode* trunk = TrunkChild(node)) {
    *out += trunk->descendant ? "//" : "/";
    RenderNode(*trunk, symbols, out);
  }
}

// ---- Data-graph evaluation ------------------------------------------------

std::vector<NodeId> SortedUnique(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<NodeId> ParentsOf(const DataGraph& g,
                              const std::vector<NodeId>& s) {
  std::vector<NodeId> out;
  for (NodeId n : s) {
    auto ps = g.parents(n);
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return SortedUnique(std::move(out));
}

/// All nodes with a descendant (≥1 edge) in `s`: backward closure.
std::vector<NodeId> AncestorsOf(const DataGraph& g,
                                const std::vector<NodeId>& s) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> work;
  for (NodeId n : s) {
    for (NodeId p : g.parents(n)) {
      if (!seen[p]) {
        seen[p] = 1;
        work.push_back(p);
      }
    }
  }
  for (size_t i = 0; i < work.size(); ++i) {
    for (NodeId p : g.parents(work[i])) {
      if (!seen[p]) {
        seen[p] = 1;
        work.push_back(p);
      }
    }
  }
  return SortedUnique(std::move(work));
}

std::vector<NodeId> ChildrenOf(const DataGraph& g,
                               const std::vector<NodeId>& s) {
  std::vector<NodeId> out;
  for (NodeId n : s) {
    auto cs = g.children(n);
    out.insert(out.end(), cs.begin(), cs.end());
  }
  return SortedUnique(std::move(out));
}

std::vector<NodeId> DescendantsOf(const DataGraph& g,
                                  const std::vector<NodeId>& s) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> work;
  for (NodeId n : s) {
    for (NodeId c : g.children(n)) {
      if (!seen[c]) {
        seen[c] = 1;
        work.push_back(c);
      }
    }
  }
  for (size_t i = 0; i < work.size(); ++i) {
    for (NodeId c : g.children(work[i])) {
      if (!seen[c]) {
        seen[c] = 1;
        work.push_back(c);
      }
    }
  }
  return SortedUnique(std::move(work));
}

std::vector<NodeId> LabelRow(const DataGraph& g, LabelId label) {
  if (label == kWildcardLabel) {
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) all[n] = n;
    return all;
  }
  if (label == kUnknownLabel) return {};
  auto row = g.nodes_with_label(label);
  return {row.begin(), row.end()};
}

/// Bottom-up: nodes matching the subtree rooted at `t` (ignoring how the
/// node itself is reached). Gathers one constraint set per child plus the
/// label row, then runs them through the k-way IntersectMany — operands
/// ordered by size, seeded from the smallest — instead of the old
/// left-fold of pairwise intersections in child order.
std::vector<NodeId> MatchSet(const DataGraph& g, const TwigNode& t) {
  std::vector<std::vector<NodeId>> sets;
  sets.push_back(LabelRow(g, t.label));
  for (const TwigNode& c : t.children) {
    if (sets.back().empty()) return {};  // No operand can rescue an empty.
    std::vector<NodeId> child_set = MatchSet(g, c);
    sets.push_back(c.descendant ? AncestorsOf(g, child_set)
                                : ParentsOf(g, child_set));
  }
  std::vector<const std::vector<NodeId>*> operands;
  operands.reserve(sets.size());
  for (const std::vector<NodeId>& s : sets) operands.push_back(&s);
  return IntersectMany(std::move(operands));
}

}  // namespace

Result<TwigQuery> TwigQuery::Parse(std::string_view text,
                                   const SymbolTable& symbols) {
  std::string_view s = StripWhitespace(text);
  if (s.empty()) return Status::InvalidArgument("empty twig query");
  bool anchored = false;
  if (StartsWith(s, "//")) {
    s.remove_prefix(2);
  } else if (StartsWith(s, "/")) {
    anchored = true;
    s.remove_prefix(1);
  }
  Cursor cur(s);
  MRX_ASSIGN_OR_RETURN(TwigNode root,
                       ParseChain(&cur, symbols, /*first_descendant=*/false,
                                  /*mark_trunk=*/true, /*depth=*/1));
  if (!cur.AtEnd()) {
    return Status::InvalidArgument("trailing characters in twig query");
  }
  root.trunk = true;
  return TwigQuery(std::move(root), anchored);
}

PathExpression TwigQuery::TrunkExpression() const {
  std::vector<LabelId> labels;
  std::vector<uint8_t> descendant;
  const TwigNode* node = &root_;
  while (node != nullptr) {
    labels.push_back(node->label);
    descendant.push_back(node == &root_ ? 0 : (node->descendant ? 1 : 0));
    node = TrunkChild(*node);
  }
  return PathExpression(std::move(labels), std::move(descendant),
                        anchored_);
}

bool TwigQuery::HasPredicates() const { return AnyPredicates(root_); }

std::string TwigQuery::ToString(const SymbolTable& symbols) const {
  std::string out = anchored_ ? "/" : "//";
  RenderNode(root_, symbols, &out);
  return out;
}

std::vector<NodeId> EvaluateTwig(const DataGraph& graph,
                                 const TwigQuery& twig) {
  // Bottom-up candidate sets for every pattern node, then a top-down
  // restriction along the trunk.
  std::vector<NodeId> current = MatchSet(graph, twig.root());
  if (twig.anchored()) {
    current = Intersect(current, {graph.root()});
  }
  const TwigNode* node = &twig.root();
  while (const TwigNode* trunk = [&]() -> const TwigNode* {
           for (const TwigNode& c : node->children) {
             if (c.trunk) return &c;
           }
           return nullptr;
         }()) {
    std::vector<NodeId> reach = trunk->descendant
                                    ? DescendantsOf(graph, current)
                                    : ChildrenOf(graph, current);
    current = Intersect(MatchSet(graph, *trunk), reach);
    node = trunk;
    if (current.empty()) break;
  }
  return current;
}

}  // namespace mrx
