#include "mutate/mutable_graph.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrx::mutate {
namespace {

/// Sorted-insert / erase helpers keeping the adjacency invariants (child
/// rows ascending by target, parent rows ascending unique).

size_t FindChild(std::span<const uint32_t> to, uint32_t t) {
  return static_cast<size_t>(std::lower_bound(to.begin(), to.end(), t) -
                             to.begin());
}

void InsertChild(std::vector<uint32_t>& to, std::vector<EdgeKind>& kind,
                 uint32_t t, EdgeKind k) {
  const size_t at = FindChild(to, t);
  to.insert(to.begin() + at, t);
  kind.insert(kind.begin() + at, k);
}

void EraseChild(std::vector<uint32_t>& to, std::vector<EdgeKind>& kind,
                size_t at) {
  to.erase(to.begin() + at);
  kind.erase(kind.begin() + at);
}

void InsertParent(std::vector<uint32_t>& list, uint32_t from) {
  auto it = std::lower_bound(list.begin(), list.end(), from);
  list.insert(it, from);
}

void EraseParent(std::vector<uint32_t>& list, uint32_t from) {
  auto it = std::lower_bound(list.begin(), list.end(), from);
  if (it != list.end() && *it == from) list.erase(it);
}

void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

/// Inverse of one applied op, replayed in reverse order on batch failure.
struct MutableDataGraph::UndoRecord {
  Mutation::Kind kind = Mutation::Kind::kAppendSubtree;
  uint32_t from = 0, to = 0;  // Ref-edge ops; append: (parent, first new).
  size_t appended = 0;        // Append: node count to pop.
  size_t edges_added = 0;     // Append: attach edge + internal edges.
  std::vector<uint32_t> revived;  // Delete: the doomed set to revive.
  /// Delete: the survivor-side entries the detach erased (DeleteReport's
  /// severed_* lists, moved here).
  std::vector<std::tuple<uint32_t, uint32_t, EdgeKind>> child_entries;
  std::vector<std::pair<uint32_t, uint32_t>> parent_entries;
  size_t edges_removed = 0;  // Delete: num_edges_ delta to restore.
};

MutableDataGraph::MutableDataGraph(const DataGraph& g)
    : seed_(&g),
      seed_nodes_(g.num_nodes()),
      symbols_(g.symbols()),
      alive_(g.num_nodes(), 1),
      seed_row_(g.num_nodes(), kNoRow),
      root_(g.root()),
      num_alive_(g.num_nodes()),
      num_edges_(g.num_edges()) {}

const MutableDataGraph::Row* MutableDataGraph::OverlayRow(uint32_t s) const {
  if (s >= seed_nodes_) return &new_rows_[s - seed_nodes_];
  const uint32_t slot = seed_row_[s];
  return slot == kNoRow ? nullptr : &seed_rows_[slot];
}

MutableDataGraph::ChildRow MutableDataGraph::children(uint32_t s) const {
  const Row* row = OverlayRow(s);
  if (row != nullptr && row->own_children) {
    return {row->child_to, row->child_kind};
  }
  return {seed_->children(s), seed_->child_kinds(s)};
}

std::span<const uint32_t> MutableDataGraph::parents(uint32_t s) const {
  const Row* row = OverlayRow(s);
  if (row != nullptr && row->own_parents) return row->parents;
  return seed_->parents(s);
}

MutableDataGraph::Row& MutableDataGraph::RowFor(uint32_t s) {
  if (s >= seed_nodes_) return new_rows_[s - seed_nodes_];
  uint32_t& slot = seed_row_[s];
  if (slot == kNoRow) {
    slot = static_cast<uint32_t>(seed_rows_.size());
    seed_rows_.emplace_back();
  }
  return seed_rows_[slot];
}

MutableDataGraph::Row& MutableDataGraph::EditChildren(uint32_t s) {
  Row& row = RowFor(s);
  if (!row.own_children) {
    const auto to = seed_->children(s);
    const auto kind = seed_->child_kinds(s);
    row.child_to.assign(to.begin(), to.end());
    row.child_kind.assign(kind.begin(), kind.end());
    row.own_children = true;
  }
  return row;
}

MutableDataGraph::Row& MutableDataGraph::EditParents(uint32_t s) {
  Row& row = RowFor(s);
  if (!row.own_parents) {
    const auto from = seed_->parents(s);
    row.parents.assign(from.begin(), from.end());
    std::sort(row.parents.begin(), row.parents.end());
    row.own_parents = true;
  }
  return row;
}

Status MutableDataGraph::CheckNode(uint32_t s) const {
  if (s >= alive_.size()) {
    return Status::InvalidArgument("node id " + std::to_string(s) +
                                   " out of range");
  }
  if (!alive_[s]) {
    return Status::FailedPrecondition("node " + std::to_string(s) +
                                      " was deleted");
  }
  return Status::Ok();
}

Result<std::vector<uint32_t>> MutableDataGraph::AppendSubtree(
    uint32_t parent, const SubtreeSpec& spec) {
  Status st = CheckNode(parent);
  if (!st.ok()) return st;
  if (spec.labels.empty()) {
    return Status::InvalidArgument("empty subtree spec");
  }
  const size_t m = spec.labels.size();
  std::vector<uint64_t> seen;
  seen.reserve(spec.edges.size());
  for (const SubtreeSpec::Edge& e : spec.edges) {
    if (e.from >= m || e.to >= m) {
      return Status::InvalidArgument("subtree edge endpoint out of range");
    }
    seen.push_back((static_cast<uint64_t>(e.from) << 32) | e.to);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return Status::InvalidArgument("duplicate edge in subtree spec");
  }

  const uint32_t base = static_cast<uint32_t>(alive_.size());
  std::vector<uint32_t> ids(m);
  for (size_t i = 0; i < m; ++i) {
    ids[i] = base + static_cast<uint32_t>(i);
    new_labels_.push_back(symbols_.Intern(spec.labels[i]));
    alive_.push_back(1);
    Row& row = new_rows_.emplace_back();
    row.own_children = true;
    row.own_parents = true;
  }
  Row& attach = EditChildren(parent);
  InsertChild(attach.child_to, attach.child_kind, base, EdgeKind::kRegular);
  RowFor(base).parents.push_back(parent);
  for (const SubtreeSpec::Edge& e : spec.edges) {
    Row& from = RowFor(base + e.from);
    InsertChild(from.child_to, from.child_kind, base + e.to, e.kind);
    InsertParent(RowFor(base + e.to).parents, base + e.from);
  }
  num_alive_ += m;
  num_edges_ += 1 + spec.edges.size();
  return ids;
}

Result<MutableDataGraph::DeleteReport> MutableDataGraph::DeleteSubtree(
    uint32_t victim) {
  Status st = CheckNode(victim);
  if (!st.ok()) return st;

  // The doomed set: everything reachable from the victim along *regular*
  // (containment) edges — the XML subtree, plus anything a local reference
  // cycle ropes in only if containment also reaches it.
  std::vector<uint32_t> doomed;
  std::vector<uint8_t> in_doomed(alive_.size(), 0);
  std::vector<uint32_t> frontier = {victim};
  in_doomed[victim] = 1;
  while (!frontier.empty()) {
    const uint32_t s = frontier.back();
    frontier.pop_back();
    doomed.push_back(s);
    const ChildRow row = children(s);
    for (size_t i = 0; i < row.to.size(); ++i) {
      if (row.kind[i] == EdgeKind::kRegular && !in_doomed[row.to[i]]) {
        in_doomed[row.to[i]] = 1;
        frontier.push_back(row.to[i]);
      }
    }
  }
  if (in_doomed[root_]) {
    return Status::FailedPrecondition(
        "cannot delete the document root (node " + std::to_string(victim) +
        " contains it)");
  }
  std::sort(doomed.begin(), doomed.end());

  // Detach the doomed set from the survivors. Doomed nodes keep their own
  // rows (they are dead, Materialize skips them, and batch rollback
  // revives them wholesale); only survivor rows are edited, and those are
  // never the doomed rows being read.
  DeleteReport report;
  report.removed = doomed;
  for (uint32_t s : doomed) {
    for (uint32_t p : parents(s)) {
      if (in_doomed[p]) continue;
      Row& row = EditChildren(p);
      const size_t at = FindChild(row.child_to, s);
      report.severed_children.emplace_back(p, s, row.child_kind[at]);
      EraseChild(row.child_to, row.child_kind, at);
      ++report.edges_removed;
    }
    for (uint32_t c : children(s).to) {
      if (in_doomed[c]) {
        ++report.edges_removed;  // Internal edge dies with the set.
        continue;
      }
      // A surviving regular child would itself be regular-reachable, so a
      // crossing edge to a survivor is necessarily a reference — the
      // stranded-IDREF case.
      EraseParent(EditParents(c).parents, s);
      report.severed_parents.emplace_back(c, s);
      report.ref_orphaned.push_back(c);
      ++report.edges_removed;
    }
    alive_[s] = 0;
  }
  SortUnique(&report.ref_orphaned);
  num_alive_ -= doomed.size();
  num_edges_ -= report.edges_removed;
  return report;
}

Status MutableDataGraph::AddRefEdge(uint32_t from, uint32_t to) {
  Status st = CheckNode(from);
  if (!st.ok()) return st;
  st = CheckNode(to);
  if (!st.ok()) return st;
  const std::span<const uint32_t> row = children(from).to;
  const size_t at = FindChild(row, to);
  if (at != row.size() && row[at] == to) {
    return Status::FailedPrecondition(
        "edge (" + std::to_string(from) + ", " + std::to_string(to) +
        ") already exists");
  }
  Row& edit = EditChildren(from);
  InsertChild(edit.child_to, edit.child_kind, to, EdgeKind::kReference);
  InsertParent(EditParents(to).parents, from);
  ++num_edges_;
  return Status::Ok();
}

Status MutableDataGraph::RemoveRefEdge(uint32_t from, uint32_t to) {
  Status st = CheckNode(from);
  if (!st.ok()) return st;
  st = CheckNode(to);
  if (!st.ok()) return st;
  const ChildRow row = children(from);
  const size_t at = FindChild(row.to, to);
  if (at == row.to.size() || row.to[at] != to) {
    return Status::NotFound("no edge (" + std::to_string(from) + ", " +
                            std::to_string(to) + ")");
  }
  if (row.kind[at] != EdgeKind::kReference) {
    return Status::FailedPrecondition(
        "edge (" + std::to_string(from) + ", " + std::to_string(to) +
        ") is a containment edge, not a reference");
  }
  Row& edit = EditChildren(from);
  EraseChild(edit.child_to, edit.child_kind, at);
  EraseParent(EditParents(to).parents, from);
  --num_edges_;
  return Status::Ok();
}

Result<MutableDataGraph::BatchTouch> MutableDataGraph::ApplyBatch(
    const MutationBatch& batch,
    const std::vector<uint32_t>& compact_to_stable) {
  BatchTouch touch;
  std::vector<UndoRecord> undo;
  undo.reserve(batch.size());
  const size_t labels_before = symbols_.size();

  auto resolve = [&](NodeId id, uint32_t* stable) -> Status {
    if (id >= compact_to_stable.size()) {
      return Status::InvalidArgument("node id " + std::to_string(id) +
                                     " out of range for this graph version");
    }
    *stable = compact_to_stable[id];
    return Status::Ok();
  };

  Status failure = Status::Ok();
  size_t failed_at = 0;
  for (size_t i = 0; i < batch.size() && failure.ok(); ++i) {
    const Mutation& op = batch[i];
    failed_at = i;
    uint32_t target = 0;
    failure = resolve(op.target, &target);
    if (!failure.ok()) break;
    switch (op.kind) {
      case Mutation::Kind::kAppendSubtree: {
        Result<std::vector<uint32_t>> ids = AppendSubtree(target, op.subtree);
        if (!ids.ok()) {
          failure = ids.status();
          break;
        }
        UndoRecord u;
        u.kind = op.kind;
        u.from = target;
        u.to = ids->front();
        u.appended = ids->size();
        u.edges_added = 1 + op.subtree.edges.size();
        undo.push_back(std::move(u));
        touch.new_nodes.insert(touch.new_nodes.end(), ids->begin(),
                               ids->end());
        touch.children_changed.push_back(target);
        break;
      }
      case Mutation::Kind::kDeleteSubtree: {
        Result<DeleteReport> report = DeleteSubtree(target);
        if (!report.ok()) {
          failure = report.status();
          break;
        }
        UndoRecord u;
        u.kind = op.kind;
        u.revived = std::move(report->removed);
        u.child_entries = std::move(report->severed_children);
        u.parent_entries = std::move(report->severed_parents);
        u.edges_removed = report->edges_removed;
        touch.any_deletion = true;
        touch.nodes_deleted += u.revived.size();
        for (uint32_t c : report->ref_orphaned) {
          touch.parent_set_changed.push_back(c);
        }
        for (const auto& severed : u.child_entries) {
          touch.children_changed.push_back(std::get<0>(severed));
        }
        undo.push_back(std::move(u));
        break;
      }
      case Mutation::Kind::kAddRefEdge: {
        uint32_t head = 0;
        failure = resolve(op.ref_target, &head);
        if (!failure.ok()) break;
        failure = AddRefEdge(target, head);
        if (!failure.ok()) break;
        UndoRecord u;
        u.kind = op.kind;
        u.from = target;
        u.to = head;
        undo.push_back(std::move(u));
        touch.parent_set_changed.push_back(head);
        touch.children_changed.push_back(target);
        ++touch.ref_edges_added;
        break;
      }
      case Mutation::Kind::kRemoveRefEdge: {
        uint32_t head = 0;
        failure = resolve(op.ref_target, &head);
        if (!failure.ok()) break;
        failure = RemoveRefEdge(target, head);
        if (!failure.ok()) break;
        UndoRecord u;
        u.kind = op.kind;
        u.from = target;
        u.to = head;
        undo.push_back(std::move(u));
        touch.parent_set_changed.push_back(head);
        touch.children_changed.push_back(target);
        ++touch.ref_edges_removed;
        break;
      }
    }
  }

  if (!failure.ok()) {
    // Roll back in reverse: the batch is atomic.
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      const UndoRecord& u = *it;
      switch (u.kind) {
        case Mutation::Kind::kAppendSubtree: {
          Row& attach = EditChildren(u.from);
          EraseChild(attach.child_to, attach.child_kind,
                     FindChild(attach.child_to, u.to));
          const size_t appended_before = new_rows_.size() - u.appended;
          new_labels_.resize(appended_before);
          new_rows_.resize(appended_before);
          alive_.resize(seed_nodes_ + appended_before);
          num_alive_ -= u.appended;
          num_edges_ -= u.edges_added;
          break;
        }
        case Mutation::Kind::kDeleteSubtree: {
          for (uint32_t s : u.revived) alive_[s] = 1;
          for (const auto& [p, s, kind] : u.child_entries) {
            Row& row = EditChildren(p);
            InsertChild(row.child_to, row.child_kind, s, kind);
          }
          for (const auto& [c, s] : u.parent_entries) {
            InsertParent(EditParents(c).parents, s);
          }
          num_alive_ += u.revived.size();
          num_edges_ += u.edges_removed;
          break;
        }
        case Mutation::Kind::kAddRefEdge: {
          Row& row = EditChildren(u.from);
          EraseChild(row.child_to, row.child_kind,
                     FindChild(row.child_to, u.to));
          EraseParent(EditParents(u.to).parents, u.from);
          --num_edges_;
          break;
        }
        case Mutation::Kind::kRemoveRefEdge: {
          Row& row = EditChildren(u.from);
          InsertChild(row.child_to, row.child_kind, u.to, EdgeKind::kReference);
          InsertParent(EditParents(u.to).parents, u.from);
          ++num_edges_;
          break;
        }
      }
    }
    // Appends intern their labels before a later op can fail; a rejected
    // batch leaves the table as it found it.
    symbols_.Truncate(labels_before);
    return Status::FailedPrecondition(
        "mutation " + std::to_string(failed_at + 1) + " of " +
        std::to_string(batch.size()) + " failed (batch rolled back): " +
        failure.message());
  }

  SortUnique(&touch.parent_set_changed);
  std::erase_if(touch.children_changed, [&](uint32_t s) { return !alive_[s]; });
  SortUnique(&touch.children_changed);
  // Appended nodes supersede "parent set changed" (they are wholly new).
  if (!touch.new_nodes.empty() && !touch.parent_set_changed.empty()) {
    std::vector<uint8_t> is_new(alive_.size(), 0);
    for (uint32_t s : touch.new_nodes) is_new[s] = 1;
    std::erase_if(touch.parent_set_changed,
                  [&](uint32_t s) { return is_new[s] != 0; });
  }
  // Drop parent-set-changed entries that a later delete in the same batch
  // removed.
  std::erase_if(touch.parent_set_changed,
                [&](uint32_t s) { return !alive_[s]; });
  std::erase_if(touch.new_nodes, [&](uint32_t s) { return !alive_[s]; });
  return touch;
}

Result<MutableDataGraph::Materialized> MutableDataGraph::Materialize() const {
  if (num_alive_ == 0) {
    return Status::FailedPrecondition("graph has no alive nodes");
  }
  Materialized out;
  out.compact_of.assign(alive_.size(), kInvalidNode);
  out.stable_of.reserve(num_alive_);
  for (uint32_t s = 0; s < alive_.size(); ++s) {
    if (!alive_[s]) continue;
    out.compact_of[s] = static_cast<NodeId>(out.stable_of.size());
    out.stable_of.push_back(s);
  }

  DataGraphBuilder builder;
  builder.symbols() = symbols_;
  builder.Reserve(num_alive_, num_edges_);
  // Adjacency lists are sorted by stable target id and duplicate-free, and
  // stable → compact is monotone, so the emission below is already in
  // (from, to) order: let Build() skip its edge sort.
  builder.MarkEdgesSortedUnique();
  for (uint32_t s : out.stable_of) builder.AddNodeWithLabelId(label(s));
  for (uint32_t s : out.stable_of) {
    const NodeId from = out.compact_of[s];
    const ChildRow row = children(s);
    for (size_t i = 0; i < row.to.size(); ++i) {
      builder.AddEdge(from, out.compact_of[row.to[i]], row.kind[i]);
    }
  }
  builder.SetRoot(out.compact_of[root_]);
  Result<DataGraph> graph = std::move(builder).Build();
  if (!graph.ok()) return graph.status();
  out.graph = *std::move(graph);
  return out;
}

Result<MutableDataGraph::Materialized> MutableDataGraph::MaterializeAfter(
    const DataGraph& prev, const std::vector<uint32_t>& prev_stable_of,
    const BatchTouch& touch) const {
  if (prev.num_nodes() == 0 || num_alive_ == 0) return Materialize();
  const size_t old_n = prev.num_nodes();

  // Old compact ids map monotonically onto new ones: survivors keep their
  // relative order and slide down past the deleted (`remap`), appended
  // stable ids all sit above prev's largest alive id and take the tail.
  Materialized out;
  out.compact_of.assign(alive_.size(), kInvalidNode);
  out.stable_of.resize(num_alive_);
  std::vector<NodeId> remap(old_n, kInvalidNode);
  std::vector<NodeId> doomed;  // Old compact ids the batch deleted.
  size_t w = 0;
  for (NodeId c = 0; c < old_n; ++c) {
    const uint32_t s = prev_stable_of[c];
    if (!alive_[s]) {
      doomed.push_back(c);
      continue;
    }
    remap[c] = static_cast<NodeId>(w);
    out.compact_of[s] = remap[c];
    out.stable_of[w++] = s;
  }
  const size_t first_new = w;
  // Ids below prev's ceiling that were dead then are dead still (rollback,
  // which precedes the receipt, is the only revival).
  for (uint32_t s = prev_stable_of.back() + 1; s < alive_.size(); ++s) {
    if (!alive_[s]) continue;
    if (w == num_alive_) {
      ++w;  // Overflow: bookkeeping drift, handled below.
      break;
    }
    out.compact_of[s] = static_cast<NodeId>(w);
    out.stable_of[w++] = s;
  }
  if (w != num_alive_) return Materialize();

  // Rows needing a re-walk of the live adjacency, in old compact ids.
  // children_changed is sorted ascending in stable ids and prev's
  // compaction preserves stable order, so one linear merge marks them.
  std::vector<uint8_t> row_changed(old_n, 0);
  {
    NodeId c = 0;
    for (uint32_t s : touch.children_changed) {
      while (c < old_n && prev_stable_of[c] < s) ++c;
      if (c < old_n && prev_stable_of[c] == s) row_changed[c] = 1;
    }
  }

  // Assemble the children CSR directly — no builder edge vector, no sort.
  // Unchanged rows stream out of prev's CSR through `remap` (their targets
  // are all survivors: an edge into the doomed set would have marked the
  // row changed); touched and new rows re-walk the live adjacency through
  // compact_of. Rows stay sorted: prev rows were sorted and both maps are
  // monotone over the alive ids.
  const bool identity = first_new == old_n;  // Every old node survived.
  const std::span<const uint32_t> prev_off = prev.child_row_offsets();
  const std::span<const NodeId> prev_tgt = prev.child_row_targets();
  const std::span<const EdgeKind> prev_knd = prev.child_row_kinds();
  const std::span<const LabelId> prev_lbl = prev.node_labels();
  std::vector<LabelId> labels(num_alive_);
  if (identity) {
    std::copy(prev_lbl.begin(), prev_lbl.end(), labels.begin());
    for (size_t c = old_n; c < num_alive_; ++c) {
      labels[c] = label(out.stable_of[c]);
    }
  } else {
    for (size_t c = 0; c < num_alive_; ++c) {
      labels[c] = label(out.stable_of[c]);
    }
  }
  std::vector<uint32_t> offsets(num_alive_ + 1);
  std::vector<NodeId> targets(num_edges_);
  std::vector<EdgeKind> kinds(num_edges_);
  offsets[0] = 0;
  size_t at = 0;
  // Reference-edge count, patched forward with the rows: unchanged rows
  // keep their refs, so only rewritten and dropped rows adjust the total.
  size_t refs = prev.num_reference_edges();
  auto drop_prev_row_refs = [&](NodeId c) {
    for (uint32_t i = prev_off[c]; i < prev_off[c + 1]; ++i) {
      if (prev_knd[i] == EdgeKind::kReference) --refs;
    }
  };
  // Rewrites stable id s's live row in compact ids.
  auto emit_live_row = [&](uint32_t s) {
    const ChildRow row = children(s);
    for (size_t i = 0; i < row.to.size(); ++i) {
      targets[at] = out.compact_of[row.to[i]];
      kinds[at] = row.kind[i];
      if (row.kind[i] == EdgeKind::kReference) ++refs;
      ++at;
    }
  };
  // Maximal runs of consecutive unchanged survivors share one edge-shift
  // and one id-shift (no doomed node inside a run), so their offsets and
  // kinds move in bulk; targets move in bulk too when every old node
  // survived, and otherwise pay the per-edge remap (their values slide past
  // the doomed).
  for (NodeId c = 0; c < old_n;) {
    if (remap[c] == kInvalidNode) {
      drop_prev_row_refs(c);
      ++c;
      continue;
    }
    if (row_changed[c]) {
      drop_prev_row_refs(c);
      emit_live_row(prev_stable_of[c]);
      offsets[remap[c] + 1] = static_cast<uint32_t>(at);
      ++c;
      continue;
    }
    NodeId run_end = c + 1;
    while (run_end < old_n && remap[run_end] != kInvalidNode &&
           !row_changed[run_end]) {
      ++run_end;
    }
    const uint32_t base = prev_off[c];
    const uint32_t len = prev_off[run_end] - base;
    const int64_t shift = static_cast<int64_t>(at) - base;
    const NodeId nbase = remap[c];
    for (NodeId r = c; r < run_end; ++r) {
      offsets[nbase + (r - c) + 1] =
          static_cast<uint32_t>(prev_off[r + 1] + shift);
    }
    if (identity) {
      std::copy_n(prev_tgt.data() + base, len, targets.data() + at);
    } else {
      for (uint32_t i = 0; i < len; ++i) {
        targets[at + i] = remap[prev_tgt[base + i]];
      }
    }
    std::copy_n(prev_knd.data() + base, len, kinds.data() + at);
    at += len;
    c = run_end;
  }
  for (size_t c = first_new; c < out.stable_of.size(); ++c) {
    emit_live_row(out.stable_of[c]);
    offsets[c + 1] = static_cast<uint32_t>(at);
  }
  if (at != num_edges_) return Materialize();  // Bookkeeping drift: re-walk.

  // Patch the inverse structures forward too, sparing FromChildCsr its two
  // O(E) from-scratch scatter passes.
  //
  // Parent rows change only for appended nodes and parent_set_changed
  // survivors: a deletion cannot silently edit an unchanged row (a doomed
  // regular parent dooms the node with it; a doomed reference parent lands
  // the node in parent_set_changed as ref-orphaned), and ref-edge edits
  // record their head there. Unchanged rows stream from prev; the entries
  // of an unchanged row are all survivors for the same reason.
  std::vector<uint8_t> prow_changed(old_n, 0);
  {
    NodeId c = 0;
    for (uint32_t s : touch.parent_set_changed) {
      while (c < old_n && prev_stable_of[c] < s) ++c;
      if (c < old_n && prev_stable_of[c] == s) prow_changed[c] = 1;
    }
  }
  const std::span<const uint32_t> prev_poff = prev.parent_row_offsets();
  const std::span<const NodeId> prev_ptgt = prev.parent_row_targets();
  DataGraphBuilder::InverseStructures inv;
  inv.num_reference_edges = refs;
  inv.parent_offsets.resize(num_alive_ + 1);
  inv.parent_targets.resize(num_edges_);
  inv.parent_offsets[0] = 0;
  size_t pat = 0;
  for (NodeId c = 0; c < old_n;) {
    if (remap[c] == kInvalidNode) {
      ++c;
      continue;
    }
    if (prow_changed[c]) {
      for (uint32_t p : parents(prev_stable_of[c])) {
        inv.parent_targets[pat++] = out.compact_of[p];
      }
      inv.parent_offsets[remap[c] + 1] = static_cast<uint32_t>(pat);
      ++c;
      continue;
    }
    NodeId run_end = c + 1;
    while (run_end < old_n && remap[run_end] != kInvalidNode &&
           !prow_changed[run_end]) {
      ++run_end;
    }
    const uint32_t base = prev_poff[c];
    const uint32_t len = prev_poff[run_end] - base;
    const int64_t shift = static_cast<int64_t>(pat) - base;
    const NodeId nbase = remap[c];
    for (NodeId r = c; r < run_end; ++r) {
      inv.parent_offsets[nbase + (r - c) + 1] =
          static_cast<uint32_t>(prev_poff[r + 1] + shift);
    }
    if (identity) {
      std::copy_n(prev_ptgt.data() + base, len,
                  inv.parent_targets.data() + pat);
    } else {
      for (uint32_t i = 0; i < len; ++i) {
        inv.parent_targets[pat + i] = remap[prev_ptgt[base + i]];
      }
    }
    pat += len;
    c = run_end;
  }
  for (size_t c = first_new; c < out.stable_of.size(); ++c) {
    for (uint32_t p : parents(out.stable_of[c])) {
      inv.parent_targets[pat++] = out.compact_of[p];
    }
    inv.parent_offsets[c + 1] = static_cast<uint32_t>(pat);
  }

  // Label buckets: labels of existing nodes never change, so bucket widths
  // move only by appends (tail ids, spliced at bucket ends — ascending is
  // preserved) and deletions (filtered out by remap). Labels the batch
  // interned fresh have no prev bucket.
  const size_t num_labels = symbols_.size();
  const std::span<const uint32_t> prev_loff = prev.label_bucket_offsets();
  const size_t prev_labels = prev_loff.empty() ? 0 : prev_loff.size() - 1;
  const std::span<const NodeId> prev_lnodes = prev.label_bucket_nodes();
  inv.label_offsets.assign(num_labels + 1, 0);
  for (size_t c = first_new; c < out.stable_of.size(); ++c) {
    ++inv.label_offsets[labels[c] + 1];
  }
  for (size_t l = 0; l < prev_labels; ++l) {
    inv.label_offsets[l + 1] += prev_loff[l + 1] - prev_loff[l];
  }
  for (NodeId c : doomed) --inv.label_offsets[prev_lbl[c] + 1];
  for (size_t l = 0; l < num_labels; ++l) {
    inv.label_offsets[l + 1] += inv.label_offsets[l];
  }
  inv.label_nodes.resize(num_alive_);
  {
    std::vector<uint32_t> cursor(num_labels);
    for (size_t l = 0; l < num_labels; ++l) cursor[l] = inv.label_offsets[l];
    if (identity) {
      for (size_t l = 0; l < prev_labels; ++l) {
        const uint32_t len = prev_loff[l + 1] - prev_loff[l];
        std::copy_n(prev_lnodes.data() + prev_loff[l], len,
                    inv.label_nodes.data() + cursor[l]);
        cursor[l] += len;
      }
    } else {
      for (size_t l = 0; l < prev_labels; ++l) {
        for (uint32_t i = prev_loff[l]; i < prev_loff[l + 1]; ++i) {
          const NodeId r = remap[prev_lnodes[i]];
          if (r != kInvalidNode) inv.label_nodes[cursor[l]++] = r;
        }
      }
    }
    for (size_t c = first_new; c < out.stable_of.size(); ++c) {
      inv.label_nodes[cursor[labels[c]]++] = static_cast<NodeId>(c);
    }
  }

  Result<DataGraph> graph = DataGraphBuilder::FromChildCsr(
      symbols_, std::move(labels), out.compact_of[root_], std::move(offsets),
      std::move(targets), std::move(kinds),
      pat == num_edges_ ? std::optional(std::move(inv)) : std::nullopt);
  if (!graph.ok()) return graph.status();
  out.graph = *std::move(graph);
  return out;
}

LiveGraph::LiveGraph(std::shared_ptr<const DataGraph> g)
    : seed_(g), live_(*seed_), graph_(std::move(g)),
      stable_of_(graph_->num_nodes()) {
  for (NodeId n = 0; n < stable_of_.size(); ++n) stable_of_[n] = n;
}

Result<LiveGraph::Step> LiveGraph::Apply(const MutationBatch& batch) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* batches_total =
      registry.GetCounter("mrx_mutation_batches_total");
  static obs::Counter* ops_total = registry.GetCounter("mrx_mutation_ops_total");
  static obs::Counter* added_total =
      registry.GetCounter("mrx_mutation_nodes_added_total");
  static obs::Counter* deleted_total =
      registry.GetCounter("mrx_mutation_nodes_deleted_total");
  static obs::Counter* rejected_total =
      registry.GetCounter("mrx_mutation_rejected_total");
  static obs::Histogram* apply_ns =
      registry.GetHistogram("mrx_mutation_apply_ns");
  static obs::Gauge* graph_nodes = registry.GetGauge("mrx_mutation_graph_nodes");
  static obs::Gauge* graph_edges = registry.GetGauge("mrx_mutation_graph_edges");
  static obs::Gauge* version_gauge = registry.GetGauge("mrx_mutation_version");

  Step step;
  step.version = version_;
  step.old_num_nodes = graph_->num_nodes();
  if (batch.empty()) return step;

  const uint64_t start_ns = obs::MonotonicNowNs();
  Result<MutableDataGraph::BatchTouch> touch_r =
      live_.ApplyBatch(batch, stable_of_);
  if (!touch_r.ok()) {
    rejected_total->Increment();
    return touch_r.status();
  }
  const MutableDataGraph::BatchTouch& touch = *touch_r;
  MRX_ASSIGN_OR_RETURN(MutableDataGraph::Materialized mat,
                       live_.MaterializeAfter(*graph_, stable_of_, touch));

  // Old compact ids map onto new ones as an identity prefix unless
  // something was deleted: compaction preserves ascending stable order, and
  // appends get the largest stable ids.
  if (touch.any_deletion) {
    step.new_to_old.assign(mat.graph.num_nodes(), kInvalidNode);
    for (NodeId o = 0; o < step.old_num_nodes; ++o) {
      const NodeId nc = mat.compact_of[stable_of_[o]];
      if (nc != kInvalidNode) step.new_to_old[nc] = o;
    }
  }
  step.new_nodes.reserve(touch.new_nodes.size());
  for (uint32_t s : touch.new_nodes) step.new_nodes.push_back(mat.compact_of[s]);
  step.parent_set_changed.reserve(touch.parent_set_changed.size());
  for (uint32_t s : touch.parent_set_changed) {
    step.parent_set_changed.push_back(mat.compact_of[s]);
  }
  step.nodes_deleted = touch.nodes_deleted;
  step.any_deletion = touch.any_deletion;

  graph_ = std::make_shared<const DataGraph>(std::move(mat.graph));
  stable_of_ = std::move(mat.stable_of);
  step.version = ++version_;

  batches_total->Increment();
  ops_total->Increment(batch.size());
  added_total->Increment(step.new_nodes.size());
  deleted_total->Increment(step.nodes_deleted);
  apply_ns->Record(obs::MonotonicNowNs() - start_ns);
  graph_nodes->Set(static_cast<int64_t>(graph_->num_nodes()));
  graph_edges->Set(static_cast<int64_t>(graph_->num_edges()));
  version_gauge->Set(static_cast<int64_t>(version_));
  return step;
}

}  // namespace mrx::mutate
