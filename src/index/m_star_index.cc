#include "index/m_star_index.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <utility>

#include "index/bisimulation.h"
#include "index/extent_ops.h"
#include "obs/query_cost.h"
#include "util/thread_pool.h"

namespace mrx {

MStarIndex::MStarIndex(const DataGraph& g) : data_(g) {
  IndexGraph g0 = IndexGraph::LabelPartition(g);
  std::vector<IndexNodeId> sup(g0.capacity(), kInvalidIndexNode);
  components_.push_back(Component{std::move(g0), std::move(sup)});
}

MStarIndex::MStarIndex(const DataGraph& g, EmptyInit) : data_(g) {}

void MStarComponent::BuildSubnodes(size_t prev_capacity) {
  // Counting sort of the alive nodes by supernode, in ascending id order:
  // count into sub_begin[u + 1], prefix-sum, place each node at its
  // supernode's cursor sub_begin[u], then shift the cursors back to the
  // list starts.
  sub_begin.assign(prev_capacity + 1, 0);
  size_t total = 0;
  for (IndexNodeId v = 0; v < graph.capacity(); ++v) {
    if (!graph.alive(v)) continue;
    ++sub_begin[supernode[v] + 1];
    ++total;
  }
  for (size_t u = 0; u < prev_capacity; ++u) sub_begin[u + 1] += sub_begin[u];
  sub_nodes.resize(total);
  for (IndexNodeId v = 0; v < graph.capacity(); ++v) {
    if (graph.alive(v)) sub_nodes[sub_begin[supernode[v]]++] = v;
  }
  for (size_t u = prev_capacity; u > 0; --u) sub_begin[u] = sub_begin[u - 1];
  sub_begin[0] = 0;
}

Result<MStarIndex> MStarIndex::FromComponents(
    const DataGraph& g, const std::vector<MStarComponentSpec>& specs) {
  if (specs.empty()) {
    return Status::InvalidArgument("need at least one component spec");
  }
  MStarIndex index(g, EmptyInit{});
  for (size_t i = 0; i < specs.size(); ++i) {
    const MStarComponentSpec& spec = specs[i];
    if (spec.extents.size() != spec.ks.size() ||
        (i > 0 && spec.supernodes.size() != spec.extents.size())) {
      return Status::InvalidArgument("component spec vectors disagree");
    }
    std::vector<uint32_t> block_of(g.num_nodes(), static_cast<uint32_t>(-1));
    for (uint32_t b = 0; b < spec.extents.size(); ++b) {
      for (NodeId o : spec.extents[b]) {
        if (o >= g.num_nodes() || block_of[o] != static_cast<uint32_t>(-1)) {
          return Status::InvalidArgument(
              "component extents do not partition the data nodes");
        }
        block_of[o] = b;
      }
    }
    for (uint32_t b : block_of) {
      if (b == static_cast<uint32_t>(-1)) {
        return Status::InvalidArgument(
            "component extents do not cover the data nodes");
      }
    }
    IndexGraph graph = IndexGraph::FromPartition(
        g, block_of, static_cast<uint32_t>(spec.extents.size()), spec.ks);
    // FromPartition numbers nodes by block ordinal, so the spec's
    // supernode ordinals are node ids in the previous component directly.
    std::vector<IndexNodeId> sup(graph.capacity(), kInvalidIndexNode);
    if (i > 0) {
      const size_t prev_size = specs[i - 1].extents.size();
      for (IndexNodeId v = 0; v < graph.capacity(); ++v) {
        if (spec.supernodes[v] >= prev_size) {
          return Status::InvalidArgument("supernode ordinal out of range");
        }
        sup[v] = spec.supernodes[v];
      }
    }
    index.components_.push_back(Component{std::move(graph), std::move(sup)});
    if (i > 0) {
      index.components_[i].BuildSubnodes(
          index.components_[i - 1].graph.capacity());
    }
  }
  MRX_RETURN_IF_ERROR(index.CheckProperties());
  return index;
}

MStarIndex MStarIndex::BuildStaticHierarchy(const DataGraph& g, int k_max,
                                            const RefineOptions& options) {
  ThreadPool* pool = options.pool;
  // Phase A — refinement. Level i is A(i) = one refinement round on A(i-1):
  // the partition is carried across levels instead of recomputed from
  // scratch (k_max rounds total rather than k_max^2/2), with one scratch
  // arena shared by every round. At the fixpoint, RefineBisimulationRound
  // is a no-op and the remaining levels repeat the fixpoint partition,
  // exactly as per-level ComputeKBisimulation(g, i) would. Each round is
  // itself sharded over `pool`.
  assert(k_max >= 0);
  const size_t levels = static_cast<size_t>(k_max) + 1;
  std::vector<std::vector<uint32_t>> block_of(levels);
  std::vector<uint32_t> num_blocks(levels);
  RefineScratch local_scratch;
  const RefineOptions round_options{
      pool, options.scratch ? options.scratch : &local_scratch};
  BisimulationPartition part = ComputeKBisimulation(g, 0, round_options);
  for (size_t i = 0; i < levels; ++i) {
    if (i > 0) RefineBisimulationRound(g, &part, round_options);
    block_of[i] = part.block_of;
    num_blocks[i] = part.num_blocks;
  }

  // Phase B — materialization, one level per pool task. Levels are
  // independent given the snapshots: FromPartition derives extents and
  // adjacency, and the supernode of block b in level i is simply b's
  // level-(i-1) block (FromPartition numbers index nodes by block id).
  // This is the serial O(n)-per-level tail Amdahl leaves behind when only
  // the rounds are parallel.
  MStarIndex index(g, EmptyInit{});
  std::vector<std::unique_ptr<Component>> built(levels);
  auto build_level = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      std::vector<int32_t> ks(num_blocks[i], static_cast<int32_t>(i));
      IndexGraph graph =
          IndexGraph::FromPartition(g, block_of[i], num_blocks[i], ks);
      std::vector<IndexNodeId> sup(graph.capacity(), kInvalidIndexNode);
      if (i > 0) {
        for (IndexNodeId v = 0; v < graph.capacity(); ++v) {
          sup[v] = block_of[i - 1][graph.node(v).extent.front()];
        }
      }
      built[i] =
          std::make_unique<Component>(Component{std::move(graph), std::move(sup)});
      if (i > 0) built[i]->BuildSubnodes(num_blocks[i - 1]);
    }
  };
  if (pool != nullptr && levels > 1) {
    pool->ParallelFor(0, levels, 1, build_level);
  } else {
    build_level(0, levels);
  }
  index.components_.reserve(levels);
  for (auto& comp : built) index.components_.push_back(std::move(*comp));

  // The A(i) family satisfies Properties 1-5 by construction (each A(i+1)
  // refines A(i)); verify anyway — per component over the pool — exactly
  // as the FromComponents load path does.
  Status properties = index.CheckProperties(pool);
  assert(properties.ok());
  (void)properties;
  return index;
}

void MStarIndex::AppendComponentCopy() {
  // Copies the finest component; supernode links are the identity.
  IndexGraph graph = components_.back().graph;
  const size_t capacity = graph.capacity();
  std::vector<IndexNodeId> sup(capacity, kInvalidIndexNode);
  for (IndexNodeId v = 0; v < capacity; ++v) {
    if (graph.alive(v)) sup[v] = v;
  }
  components_.push_back(Component{std::move(graph), std::move(sup)});
  components_.back().BuildSubnodes(capacity);
}

void MStarIndex::Refine(const PathExpression& fup) { RefineBatch({fup}); }

void MStarIndex::RefineBatch(const std::vector<PathExpression>& fups) {
  // Keep only the expressions that have something to refine toward, in
  // order. Descendant-axis expressions have unbounded instances; no finite
  // k certifies them (queries remain exact through validation).
  std::vector<const PathExpression*> eligible;
  for (const PathExpression& fup : fups) {
    if (fup.length() == 0 || fup.HasDescendantAxis()) continue;
    eligible.push_back(&fup);
  }
  if (eligible.empty()) return;

  // Target sets depend only on the immutable data graph, never on index
  // state, so they can all be evaluated before any refinement — and in
  // parallel. In prefix order, expressions sharing a prefix sit together,
  // so each chunk evaluates a shared prefix once (one evaluator, with its
  // graph-sized scratch, per chunk).
  const std::vector<uint32_t> order = DataEvaluator::PrefixOrder(eligible);
  std::vector<std::vector<NodeId>> targets(eligible.size());
  auto evaluate = [&](size_t lo, size_t hi) {
    std::vector<const PathExpression*> chunk;
    for (size_t j = lo; j < hi; ++j) chunk.push_back(eligible[order[j]]);
    std::vector<std::vector<NodeId>> sets =
        DataEvaluator(data_).EvaluateAll(chunk);
    for (size_t j = lo; j < hi; ++j) {
      targets[order[j]] = std::move(sets[j - lo]);
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(0, eligible.size(), 1, evaluate);
  } else {
    evaluate(0, eligible.size());
  }

  // The refinement itself stays serial: splits mutate the shared
  // hierarchy, and the deterministic result is Refine applied in order.
  SplitScratch scratch;
  for (size_t i = 0; i < eligible.size(); ++i) {
    RefineWithTarget(*eligible[i], targets[i], &scratch);
  }
  FinishRefine(&scratch);
}

void MStarIndex::FinishRefine(SplitScratch* scratch) {
  for (size_t i = 0; i < components_.size(); ++i) {
    components_[i].graph.RebuildAdjacency(scratch);
    if (i > 0) {
      components_[i].BuildSubnodes(components_[i - 1].graph.capacity());
    }
  }
}

void MStarIndex::RefineWithTarget(const PathExpression& fup,
                                  const std::vector<NodeId>& target,
                                  SplitScratch* scratch) {
  const int32_t len = static_cast<int32_t>(fup.length());
  while (components_.size() <= static_cast<size_t>(len)) {
    AppendComponentCopy();
  }

  if (!target.empty()) RefineNodeStar(len, target, scratch);

  // REFINE* lines 7-8: break false instances created by refinement.
  while (true) {
    const IndexNodeId bad = FirstFalseInstance(fup, scratch);
    if (bad == kInvalidIndexNode) return;
    // Hold the extent: PromoteStar splits nodes, which can reallocate the
    // component's node array and invalidate references into it.
    const Extent bad_extent = components_[len].graph.node(bad).extent;
    PromoteStar(len, bad_extent.ids(), fup, scratch);
  }
}

void MStarIndex::RefineNodeStar(int k, const std::vector<NodeId>& relevant,
                                SplitScratch* scratch) {
  if (k <= 0 || relevant.empty()) return;
  const IndexGraph& comp = components_[k].graph;

  // Only relevant data inside under-refined covers drives refinement
  // (REFINENODE* line 2's early return, per node). `relevant` is sorted,
  // so the filtered set is too.
  std::vector<NodeId> active;
  for (NodeId o : relevant) {
    if (comp.node(comp.index_of(o)).k < k) active.push_back(o);
  }
  if (active.empty()) return;

  // Lines 4-7: refine the predecessors in component k-1 first.
  RefineNodeStar(k - 1, comp.Pred(active), scratch);

  // Lines 9-13: split the ancestor supernodes coarse-to-fine; each split
  // cascades into finer components immediately (the propagation of line
  // 13), so by the time component i is processed, component i-1 is final.
  // A split in component i changes only the node it splits there, and
  // leaves every relevant member of that node in a part with k = i, so the
  // under-refined nodes and their members can be grouped once per level;
  // in first-member order, they are split in the order a scan would meet
  // them.
  std::vector<IndexNodeId> nodes;
  std::vector<std::vector<NodeId>> members;
  for (int i = 1; i <= k; ++i) {
    const IndexGraph& ci = components_[i].graph;
    nodes.clear();
    members.clear();
    const uint32_t pass = scratch->NextPass(ci.capacity());
    for (NodeId o : active) {
      const IndexNodeId v = ci.index_of(o);
      if (ci.node(v).k >= i) continue;
      if (scratch->seen[v] != pass) {
        scratch->seen[v] = pass;
        scratch->slot[v] = static_cast<uint32_t>(nodes.size());
        nodes.push_back(v);
        members.emplace_back();
      }
      members[scratch->slot[v]].push_back(o);
    }
    for (size_t g = 0; g < nodes.size(); ++g) {
      SplitNodeStar(i, nodes[g], members[g], scratch);
    }
  }
}

void MStarIndex::SplitNodeStar(int ci, IndexNodeId v,
                               const std::vector<NodeId>& relevant_here,
                               SplitScratch* scratch) {
  assert(ci >= 1);
  assert(!relevant_here.empty());
  IndexGraph& comp = components_[ci].graph;
  const IndexGraph& prev = components_[ci - 1].graph;
  const int32_t kold = comp.node(v).k;

  // The perfectly qualified parents: parents of v's supernode in component
  // ci-1 that hold a data parent of a relevant member (their similarity is
  // exactly ci-1 after the recursion refined them — never overqualified,
  // the whole point of §4). Every holder is a parent of the supernode
  // (Properties 1 and 2: the member lies in the supernode's extent), so
  // the holders are that set and no adjacency is read.
  const std::vector<IndexNodeId> qualifying =
      prev.ParentHolders(relevant_here);

  std::vector<std::vector<NodeId>> pieces =
      prev.SplitByParents(comp.node(v).extent.ids(), qualifying, scratch);

  // Merge pieces with no relevant member into the remainder (SPLITNODE*
  // lines 11-19). As in MkIndex::SplitCover, an irrelevant member of a
  // mixed piece stays at the new similarity only when all its parents lie
  // in the qualifying parents' extents (which makes it provably
  // ci-bisimilar to the relevant members); otherwise it joins the
  // remainder.
  std::vector<IndexGraph::Part> parts;
  std::vector<NodeId> remainder;
  auto provably_bisimilar = [&](NodeId m) {
    for (NodeId p : comp.data().parents(m)) {
      if (!std::binary_search(qualifying.begin(), qualifying.end(),
                              prev.index_of(p))) {
        return false;
      }
    }
    return true;
  };
  for (auto& piece : pieces) {
    if (!Overlaps(piece, relevant_here)) {
      remainder.insert(remainder.end(), piece.begin(), piece.end());
      continue;
    }
    std::vector<NodeId> keep;
    for (NodeId m : piece) {
      if (provably_bisimilar(m)) {
        keep.push_back(m);
      } else {
        remainder.push_back(m);
      }
    }
    if (!keep.empty()) {
      parts.push_back(IndexGraph::Part{std::move(keep), ci});
    }
  }
  if (!remainder.empty()) {
    SortUnique(&remainder);
    parts.push_back(IndexGraph::Part{std::move(remainder), kold});
  }
  SplitAndPropagate(ci, v, std::move(parts), scratch);
}

void MStarIndex::SplitAndPropagate(int ci, IndexNodeId v,
                                   std::vector<IndexGraph::Part> parts,
                                   SplitScratch* scratch) {
  Component& comp = components_[ci];
  const IndexNodeId sup = comp.supernode[v];
  // Held by value: ReplaceNode drops v's node, but the members live on.
  const Extent affected = comp.graph.node(v).extent;
  std::vector<IndexNodeId> ids = comp.graph.ReplaceNode(v, std::move(parts));
  comp.supernode.resize(comp.graph.capacity(), kInvalidIndexNode);
  for (IndexNodeId id : ids) comp.supernode[id] = sup;
  if (static_cast<size_t>(ci) + 1 < components_.size()) {
    CascadeInto(ci + 1, affected.ids(), ids, scratch);
  }
}

void MStarIndex::CascadeInto(int ci, const std::vector<NodeId>& affected,
                             const std::vector<IndexNodeId>& covers,
                             SplitScratch* scratch) {
  Component& comp = components_[ci];
  const IndexGraph& prev = components_[ci - 1].graph;
  const bool finer = static_cast<size_t>(ci) + 1 < components_.size();

  // Every node touched here lies inside what changed one component up
  // (Property 3 held before the change), so a node as large as `affected`
  // is all of it. Such a node duplicated what changed, and its members now
  // sit under exactly `covers`: it is relinked, or split into the covers'
  // extents, shared rather than rebuilt, without reading a member.
  const IndexNodeId whole = comp.graph.index_of(affected.front());
  if (comp.graph.node(whole).extent.size() == affected.size()) {
    const int32_t k = comp.graph.node(whole).k;
    std::vector<IndexNodeId> changed;
    if (covers.size() == 1) {
      comp.supernode[whole] = covers[0];
      if (k >= prev.node(covers[0]).k) return;
      comp.graph.SetK(whole, prev.node(covers[0]).k);
      changed = {whole};
    } else {
      std::vector<IndexGraph::Part> parts(covers.size());
      for (size_t j = 0; j < covers.size(); ++j) {
        parts[j] = IndexGraph::Part{prev.node(covers[j]).extent,
                                    std::max(k, prev.node(covers[j]).k)};
      }
      changed = comp.graph.ReplaceNode(whole, std::move(parts));
      comp.supernode.resize(comp.graph.capacity(), kInvalidIndexNode);
      for (size_t j = 0; j < changed.size(); ++j) {
        comp.supernode[changed[j]] = covers[j];
      }
    }
    if (finer) CascadeInto(ci + 1, affected, changed, scratch);
    return;
  }

  // Every node touched here lies inside the node that split one component
  // up (Property 3 held before the split), so `affected` holds each touched
  // extent whole. One pass over it finds the touched nodes — deduped by
  // stamp, `slot` holding each one's place in `touched` — with the
  // supernode of their first member, and flags the ones whose members now
  // sit under several supernodes. Only those, and the ones whose k rises,
  // are read again.
  struct Touched {
    IndexNodeId node;
    IndexNodeId sup;
    bool single;
  };
  std::vector<Touched> touched;
  const uint32_t touch_pass = scratch->NextPass(comp.graph.capacity());
  for (NodeId o : affected) {
    const IndexNodeId q = comp.graph.index_of(o);
    const IndexNodeId sup = prev.index_of(o);
    if (scratch->seen[q] != touch_pass) {
      scratch->seen[q] = touch_pass;
      scratch->slot[q] = static_cast<uint32_t>(touched.size());
      touched.push_back(Touched{q, sup, true});
    } else if (touched[scratch->slot[q]].sup != sup) {
      touched[scratch->slot[q]].single = false;
    }
  }
#ifndef NDEBUG
  size_t covered = 0;
  for (const Touched& t : touched) {
    covered += comp.graph.node(t.node).extent.size();
  }
  assert(covered == affected.size());
#endif
  // Splits append ids, so the node order fixes the ids of the parts.
  std::sort(touched.begin(), touched.end(),
            [](const Touched& a, const Touched& b) { return a.node < b.node; });

  // Members of changed nodes, any order. They are a subset of `affected`,
  // so appending extents never reallocates. `changed` holds the nodes.
  std::vector<NodeId> deeper;
  deeper.reserve(affected.size());
  std::vector<IndexNodeId> changed;
  std::vector<IndexNodeId> sups;
  for (const Touched& t : touched) {
    const IndexNodeId q = t.node;
    if (t.single) {
      comp.supernode[q] = t.sup;
      // Property 4: a subnode is at least as refined as its supernode. Its
      // extent is a subset of the supernode's, so inheriting the larger k
      // is sound.
      if (comp.graph.node(q).k < prev.node(t.sup).k) {
        // k changed; finer components must re-check.
        comp.graph.SetK(q, prev.node(t.sup).k);
        comp.graph.node(q).extent.AppendTo(&deeper);
        changed.push_back(q);
      }
      continue;
    }
    // q now spans several supernodes: split it along them, one part per
    // supernode in ascending id order, members ascending within a part. A
    // part is both q.k-bisimilar (subset of q) and supernode.k-bisimilar
    // (subset of the supernode), so it soundly records the max of the two.
    const size_t begin = deeper.size();
    comp.graph.node(q).extent.AppendTo(&deeper);
    const std::span<const NodeId> members(deeper.data() + begin,
                                          deeper.size() - begin);
    sups.clear();
    const uint32_t sup_pass = scratch->NextPass(prev.capacity());
    for (NodeId o : members) {
      const IndexNodeId s = prev.index_of(o);
      if (scratch->seen[s] != sup_pass) {
        scratch->seen[s] = sup_pass;
        sups.push_back(s);
      }
    }
    std::sort(sups.begin(), sups.end());
    std::vector<std::vector<NodeId>> pieces(sups.size());
    for (NodeId o : members) {
      const size_t j =
          std::lower_bound(sups.begin(), sups.end(), prev.index_of(o)) -
          sups.begin();
      pieces[j].push_back(o);
    }
    const int32_t qk = comp.graph.node(q).k;
    std::vector<IndexGraph::Part> parts(sups.size());
    for (size_t j = 0; j < sups.size(); ++j) {
      parts[j] = IndexGraph::Part{std::move(pieces[j]),
                                  std::max(qk, prev.node(sups[j]).k)};
    }
    std::vector<IndexNodeId> ids = comp.graph.ReplaceNode(q, std::move(parts));
    comp.supernode.resize(comp.graph.capacity(), kInvalidIndexNode);
    for (size_t j = 0; j < ids.size(); ++j) comp.supernode[ids[j]] = sups[j];
    changed.insert(changed.end(), ids.begin(), ids.end());
  }
  if (!changed.empty() && finer) {
    std::sort(changed.begin(), changed.end());
    CascadeInto(ci + 1, deeper, changed, scratch);
  }
}

IndexNodeId MStarIndex::FirstFalseInstance(const PathExpression& fup,
                                           SplitScratch* scratch) {
  const int32_t len = static_cast<int32_t>(fup.length());
  IndexGraph& comp = components_[len].graph;
  for (IndexNodeId v : RefinementTargetSet(&comp, fup, scratch)) {
    if (comp.node(v).k < len) return v;
  }
  return kInvalidIndexNode;
}

bool MStarIndex::PromoteStar(int k, const std::vector<NodeId>& extent,
                             const PathExpression& fup,
                             SplitScratch* scratch) {
  if (FirstFalseInstance(fup, scratch) == kInvalidIndexNode) return true;
  if (k <= 0 || extent.empty()) return false;
  IndexGraph& comp = components_[k].graph;

  auto under_refined_covers = [&]() {
    std::vector<IndexNodeId> covers;
    for (NodeId o : extent) covers.push_back(comp.index_of(o));
    SortUnique(&covers);
    std::erase_if(covers, [&](IndexNodeId v) {
      return comp.node(v).k >= k;
    });
    return covers;
  };

  std::vector<IndexNodeId> covers = under_refined_covers();
  if (covers.empty()) {
    return FirstFalseInstance(fup, scratch) == kInvalidIndexNode;
  }

  std::vector<NodeId> all;
  for (IndexNodeId v : covers) {
    const auto& e = comp.node(v).extent;
    all.insert(all.end(), e.begin(), e.end());
  }
  SortUnique(&all);

  // Recurse on all predecessors (PROMOTE* promotes all data nodes).
  if (PromoteStar(k - 1, comp.Pred(all), fup, scratch)) return true;

  // Split ancestor supernodes coarse-to-fine by *all* parents of the
  // supernode in the previous component; long-jump out as soon as no
  // false instance of the FUP remains. As in RefineNodeStar, a split in
  // component i leaves the members before `pos` in nodes with k ≥ i, so
  // the scan resumes there.
  for (int i = 1; i <= k; ++i) {
    const IndexGraph& ci_graph = components_[i].graph;
    IndexGraph& prev = components_[i - 1].graph;
    size_t pos = 0;
    while (true) {
      IndexNodeId p = kInvalidIndexNode;
      for (; pos < all.size(); ++pos) {
        IndexNodeId cand = ci_graph.index_of(all[pos]);
        if (ci_graph.node(cand).k < i) {
          p = cand;
          break;
        }
      }
      if (p == kInvalidIndexNode) break;

      prev.RebuildAdjacency(scratch);
      IndexNodeId sup = prev.index_of(ci_graph.node(p).extent.front());
      std::vector<IndexGraph::Part> parts;
      for (auto& piece :
           prev.SplitByParents(ci_graph.node(p).extent.ids(),
                               prev.node(sup).parents, scratch)) {
        parts.push_back(IndexGraph::Part{std::move(piece), i});
      }
      SplitAndPropagate(i, p, std::move(parts), scratch);
      if (FirstFalseInstance(fup, scratch) == kInvalidIndexNode) return true;
    }
  }
  return FirstFalseInstance(fup, scratch) == kInvalidIndexNode;
}

QueryResult MStarIndex::QueryNaive(const PathExpression& path,
                                   DataEvaluator* validator) const {
  const size_t ci = std::min(path.length(), components_.size() - 1);
  obs::CountComponentTouched(ci);
  const IndexGraph& comp = components_[ci].graph;
  QueryResult result;
  result.target =
      IndexTargetSet(comp, path, StartNodes(ci, path), &result.stats);
  AssembleAnswer(comp, path, validator, &result);
  return result;
}

QueryResult MStarIndex::QueryTopDown(const PathExpression& path,
                                     DataEvaluator* validator) const {
  // Descendant axes need closure evaluation; the naive strategy's
  // IndexTargetSet implements it.
  if (path.HasDescendantAxis()) return QueryNaive(path, validator);
  QueryResult result;
  const size_t finest = components_.size() - 1;

  // Level 0 in I0.
  obs::CountComponentTouched(0);
  std::vector<IndexNodeId> q = StartNodes(0, path);
  result.stats.index_nodes_visited += q.size();

  size_t current_component = 0;
  for (size_t step = 1; step < path.num_steps() && !q.empty(); ++step) {
    const size_t ci = std::min(step, finest);
    obs::CountComponentTouched(ci);
    // QUERYTOPDOWN line 3: descend to the subnodes in the next component.
    if (ci != current_component) {
      q = DescendNodes(current_component, ci, std::move(q), &result.stats);
      current_component = ci;
    }
    // QUERYTOPDOWN line 4: one forward step within component ci.
    q = ChildStep(components_[ci].graph, q, path, step);
    result.stats.index_nodes_visited += q.size();
  }

  // Lines 5-12: collect extents, validating under-refined nodes.
  CollectAnswer(path, current_component, std::move(q), validator, &result);
  return result;
}

QueryResult MStarIndex::QueryWithPrefilter(const PathExpression& path,
                                           size_t sub_begin, size_t sub_end,
                                           DataEvaluator* validator) const {
  if (path.HasDescendantAxis()) return QueryNaive(path, validator);
  assert(sub_begin <= sub_end && sub_end < path.num_steps());
  QueryResult result;
  const size_t finest = components_.size() - 1;
  const size_t cq = std::min(path.length(), finest);
  const IndexGraph& fine = components_[cq].graph;
  obs::CountComponentTouched(cq);

  // Phase 1: evaluate the subpath in the coarse component of its length.
  PathExpression sub = path.Subpath(sub_begin, sub_end);
  const size_t cs = std::min(sub.length(), finest);
  obs::CountComponentTouched(cs);
  std::vector<IndexNodeId> coarse_hits =
      IndexTargetSet(components_[cs].graph, sub, &result.stats);

  // Map the survivors down to the fine component through the subnode
  // lists (extent containment makes the route exact).
  const std::vector<IndexNodeId> candidates =
      DescendNodes(cs, cq, std::move(coarse_hits), nullptr);
  result.stats.index_nodes_visited += candidates.size();

  // Phase 2: evaluate the full path in the fine component, restricting the
  // frontier at step `sub_end` to the pre-filtered candidates.
  std::vector<IndexNodeId> frontier = StartNodes(cq, path);
  if (sub_end == 0) KeepCommon(fine, candidates, &frontier);
  result.stats.index_nodes_visited += frontier.size();

  for (size_t step = 1; step < path.num_steps() && !frontier.empty();
       ++step) {
    frontier = ChildStep(fine, frontier, path, step);
    if (step == sub_end) KeepCommon(fine, candidates, &frontier);
    result.stats.index_nodes_visited += frontier.size();
  }

  CollectAnswer(path, cq, std::move(frontier), validator, &result);
  return result;
}

MStarIndex MStarIndex::Clone() const {
  MStarIndex copy(data_, EmptyInit{});
  copy.components_ = components_;
  return copy;
}

std::vector<char> MStarIndex::DuplicateMask(size_t i) const {
  const Component& comp = components_[i];
  const IndexGraph& prev = components_[i - 1].graph;
  std::vector<char> duplicate(comp.graph.capacity(), 0);
  for (IndexNodeId v = 0; v < comp.graph.capacity(); ++v) {
    if (!comp.graph.alive(v)) continue;
    duplicate[v] = prev.node(comp.supernode[v]).extent.size() ==
                   comp.graph.node(v).extent.size();
  }
  return duplicate;
}

RefinementStats MStarIndex::TotalRefinementStats() const {
  RefinementStats total;
  for (const Component& c : components_) {
    total += c.graph.refinement_stats();
  }
  return total;
}

size_t MStarIndex::PhysicalNodeCount() const {
  size_t count = components_[0].graph.num_nodes();
  for (size_t i = 1; i < components_.size(); ++i) {
    const IndexGraph& comp = components_[i].graph;
    const std::vector<char> duplicate = DuplicateMask(i);
    for (IndexNodeId v = 0; v < comp.capacity(); ++v) {
      if (comp.alive(v) && !duplicate[v]) ++count;
    }
  }
  return count;
}

size_t MStarIndex::PhysicalEdgeCount() const { return Physical().edges; }

MStarIndex::PhysicalSize MStarIndex::Physical() const {
  PhysicalSize size{components_[0].graph.num_nodes(),
                    components_[0].graph.num_edges()};
  for (size_t i = 1; i < components_.size(); ++i) {
    const IndexGraph& comp = components_[i].graph;
    const std::vector<char> duplicate = DuplicateMask(i);
    for (IndexNodeId v = 0; v < comp.capacity(); ++v) {
      if (!comp.alive(v)) continue;
      const bool v_dup = duplicate[v];
      // Component edges: skip those whose endpoints are both duplicates
      // (the corresponding edge already exists one component up).
      for (IndexNodeId c : comp.node(v).children) {
        if (!(v_dup && duplicate[c])) ++size.edges;
      }
      // The node and its cross-component link from the supernode, both
      // skipped for duplicates.
      if (!v_dup) {
        ++size.nodes;
        ++size.edges;
      }
    }
  }
  return size;
}

Status MStarIndex::CheckProperties() const { return CheckProperties(nullptr); }

Status MStarIndex::CheckSubnodes(size_t i) const {
  // The lists must be {index_of(o) : o ∈ extent(u)} for every u. Called
  // after CheckProperties has checked that each alive node's extent lies
  // in its supernode's, and extents partition the data, so it suffices
  // that u's list names distinct alive nodes linked to u whose extents add
  // up to u's.
  const Component& comp = components_[i];
  const IndexGraph& prev = components_[i - 1].graph;
  if (comp.sub_begin.size() != prev.capacity() + 1 ||
      comp.sub_begin.front() != 0 ||
      comp.sub_begin.back() != comp.sub_nodes.size()) {
    return Status::Internal("subnode lists out of date");
  }
  for (IndexNodeId u = 0; u < prev.capacity(); ++u) {
    const uint32_t begin = comp.sub_begin[u];
    const uint32_t end = comp.sub_begin[u + 1];
    if (end < begin) return Status::Internal("subnode lists out of date");
    if (!prev.alive(u)) {
      if (end != begin) return Status::Internal("dead node has subnodes");
      continue;
    }
    size_t covered = 0;
    for (uint32_t j = begin; j < end; ++j) {
      const IndexNodeId v = comp.sub_nodes[j];
      if (v >= comp.graph.capacity() || !comp.graph.alive(v) ||
          comp.supernode[v] != u ||
          (j > begin && v <= comp.sub_nodes[j - 1])) {
        return Status::Internal("subnode list names a non-subnode");
      }
      covered += comp.graph.node(v).extent.size();
    }
    if (covered != prev.node(u).extent.size()) {
      return Status::Internal("subnode lists do not cover the supernode");
    }
  }
  return Status::Ok();
}

Status MStarIndex::CheckProperties(ThreadPool* pool) const {
  // Each component's checks read only that component and its predecessor,
  // so components verify independently (and in parallel when a pool is
  // given — verification is an O(total extent) walk that would otherwise
  // dominate a parallel build's serial tail).
  auto check_component = [this](size_t i) -> Status {
    const Component& comp = components_[i];
    MRX_RETURN_IF_ERROR(comp.graph.CheckConsistency());
    for (IndexNodeId v = 0; v < comp.graph.capacity(); ++v) {
      if (!comp.graph.alive(v)) continue;
      const IndexGraph::Node& node = comp.graph.node(v);
      if (node.k > static_cast<int32_t>(i)) {
        return Status::Internal("Property 2 violated: k exceeds component");
      }
      if (i == 0) continue;
      const IndexGraph& prev = components_[i - 1].graph;
      IndexNodeId sup = comp.supernode[v];
      if (sup == kInvalidIndexNode || !prev.alive(sup)) {
        return Status::Internal("missing or dead supernode link");
      }
      for (NodeId o : node.extent) {
        if (prev.index_of(o) != sup) {
          return Status::Internal(
              "Property 3 violated: extent not within supernode");
        }
      }
      const IndexGraph::Node& sup_node = prev.node(sup);
      if (node.k < sup_node.k || node.k > sup_node.k + 1) {
        return Status::Internal("Property 4 violated: k bounds");
      }
      if (sup_node.k < static_cast<int32_t>(i) - 1 &&
          node.k != sup_node.k) {
        return Status::Internal("Property 5 violated: k not stable");
      }
    }
    return i == 0 ? Status::Ok() : CheckSubnodes(i);
  };

  if (pool == nullptr || components_.size() <= 1) {
    for (size_t i = 0; i < components_.size(); ++i) {
      MRX_RETURN_IF_ERROR(check_component(i));
    }
    return Status::Ok();
  }
  std::vector<Status> results(components_.size());
  pool->ParallelFor(0, components_.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) results[i] = check_component(i);
  });
  for (Status& status : results) {
    MRX_RETURN_IF_ERROR(std::move(status));
  }
  return Status::Ok();
}

}  // namespace mrx
