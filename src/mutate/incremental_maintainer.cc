#include "mutate/incremental_maintainer.h"

#include <algorithm>
#include <utility>

#include "index/d_k_index.h"
#include "obs/metrics.h"

namespace mrx::mutate {
namespace {

/// Same tag word src/index/bisimulation.cc prefixes to frozen-node
/// signatures; the incremental signatures must match the full-round ones
/// bit for bit or clean-class joining breaks.
constexpr uint32_t kFrozenTag = static_cast<uint32_t>(-1);

/// Carried-class sentinel for nodes with no previous version (appended).
constexpr uint32_t kNoClass = static_cast<uint32_t>(-2);

uint64_t SigHash(const std::vector<uint32_t>& v) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t w : v) {
    h ^= w;
    h *= 1099511628211ULL;
  }
  // Bit 0 doubles as the occupied marker in SigTable slots.
  return h | 1;
}

/// Flat signature interner for the incremental round: open-addressing table
/// whose keys live in one shared word arena. Replaces a pair of
/// unordered_map<vector<uint32_t>, ...> (clean + fresh) whose per-emplace
/// key copies and node allocations dominated small-cascade rounds. A single
/// table suffices because the old clean-before-fresh lookup order reduces
/// to two rules here: clean inserts shadow an existing fresh entry, and
/// duplicate clean signatures keep the first.
class SigTable {
 public:
  explicit SigTable(size_t expected) {
    size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
  }

  /// Registers a clean class under `sig`. First clean wins; a fresh entry
  /// with the same signature is converted in place.
  void InsertClean(const std::vector<uint32_t>& sig, uint32_t value) {
    const uint64_t h = SigHash(sig);
    Slot* s = Probe(sig, h);
    if (s->hash == 0) {
      Fill(s, sig, h, value, /*clean=*/true);
    } else if (!s->clean) {
      s->value = value;
      s->clean = true;
    }
  }

  /// Finds `sig`, inserting it as a fresh class with `fresh_value` on miss.
  /// Returns {assigned value, whether a fresh entry was created}.
  std::pair<uint32_t, bool> FindOrInsertFresh(const std::vector<uint32_t>& sig,
                                              uint32_t fresh_value) {
    const uint64_t h = SigHash(sig);
    Slot* s = Probe(sig, h);
    if (s->hash != 0) return {s->value, false};
    Fill(s, sig, h, fresh_value, /*clean=*/false);
    return {fresh_value, true};
  }

 private:
  struct Slot {
    uint64_t hash = 0;  // 0 = empty (SigHash never returns 0)
    uint32_t offset = 0;
    uint32_t len = 0;
    uint32_t value = 0;
    bool clean = false;
  };

  Slot* Probe(const std::vector<uint32_t>& sig, uint64_t h) {
    size_t i = static_cast<size_t>(h) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.hash == 0 ||
          (s.hash == h && s.len == sig.size() &&
           std::equal(sig.begin(), sig.end(), arena_.begin() + s.offset))) {
        return &s;
      }
      i = (i + 1) & mask_;
    }
  }

  void Fill(Slot* s, const std::vector<uint32_t>& sig, uint64_t h,
            uint32_t value, bool clean) {
    s->hash = h;
    s->offset = static_cast<uint32_t>(arena_.size());
    s->len = static_cast<uint32_t>(sig.size());
    s->value = value;
    s->clean = clean;
    arena_.insert(arena_.end(), sig.begin(), sig.end());
    if (++size_ * 4 > slots_.size() * 3) Grow();
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.hash == 0) continue;
      size_t i = static_cast<size_t>(s.hash) & mask_;
      while (slots_[i].hash != 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> arena_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Node n's round signature against the previous level, matching
/// bisimulation.cc's BuildSignature exactly:
/// active -> [own block, sorted unique parent blocks],
/// frozen -> [kFrozenTag, own block].
template <typename Active>
void BuildSig(const DataGraph& g, const std::vector<uint32_t>& prev_block_of,
              const Active& active, NodeId n, std::vector<uint32_t>* sig) {
  sig->clear();
  if (active(n)) {
    sig->push_back(prev_block_of[n]);
    for (NodeId p : g.parents(n)) sig->push_back(prev_block_of[p]);
    std::sort(sig->begin() + 1, sig->end());
    sig->erase(std::unique(sig->begin() + 1, sig->end()), sig->end());
  } else {
    sig->push_back(kFrozenTag);
    sig->push_back(prev_block_of[n]);
  }
}

}  // namespace

std::vector<uint32_t> CanonicalBlockIds(const std::vector<uint32_t>& block_of,
                                        uint32_t num_blocks) {
  std::vector<uint32_t> renum(num_blocks, kNoClass);
  std::vector<uint32_t> out(block_of.size());
  uint32_t next = 0;
  for (size_t n = 0; n < block_of.size(); ++n) {
    uint32_t& r = renum[block_of[n]];
    if (r == kNoClass) r = next++;
    out[n] = r;
  }
  return out;
}

void IncrementalMaintainer::FinishLevel(Level* lvl,
                                        std::vector<uint32_t>&& block_of,
                                        uint32_t id_bound,
                                        bool canonicalize) const {
  const size_t num_nodes = block_of.size();
  uint32_t num_blocks = id_bound;
  if (canonicalize) {
    // Renumber and count in one pass: canonical ids are assigned in first-
    // occurrence order, so extent_offsets can accumulate counts as they go.
    if (scratch_renum_.size() < id_bound) scratch_renum_.resize(id_bound);
    std::fill(scratch_renum_.begin(), scratch_renum_.begin() + id_bound,
              kNoClass);
    lvl->extent_offsets.assign(static_cast<size_t>(id_bound) + 1, 0);
    uint32_t next = 0;
    for (size_t n = 0; n < num_nodes; ++n) {
      uint32_t& r = scratch_renum_[block_of[n]];
      if (r == kNoClass) r = next++;
      block_of[n] = r;
      ++lvl->extent_offsets[r + 1];
    }
    num_blocks = next;
    lvl->extent_offsets.resize(static_cast<size_t>(num_blocks) + 1);
  } else {
    lvl->extent_offsets.assign(static_cast<size_t>(num_blocks) + 1, 0);
    for (size_t n = 0; n < num_nodes; ++n) {
      ++lvl->extent_offsets[block_of[n] + 1];
    }
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    lvl->extent_offsets[b + 1] += lvl->extent_offsets[b];
  }
  lvl->block_of = std::move(block_of);
  lvl->num_blocks = num_blocks;
  lvl->extent_nodes.resize(num_nodes);
  if (scratch_cursor_.size() < num_blocks) scratch_cursor_.resize(num_blocks);
  std::copy(lvl->extent_offsets.begin(), lvl->extent_offsets.end() - 1,
            scratch_cursor_.begin());
  for (size_t n = 0; n < num_nodes; ++n) {
    lvl->extent_nodes[scratch_cursor_[lvl->block_of[n]]++] =
        static_cast<NodeId>(n);
  }
}

void IncrementalMaintainer::PatchLevelAppendOnly(Level* lvl,
                                                 size_t old_num_nodes,
                                                 uint32_t old_blocks,
                                                 uint32_t id_bound) const {
  const size_t num_nodes = lvl->block_of.size();
  // Old classes keep their canonical ids (their first occurrences are old
  // nodes, all below every appended id); fresh classes are renumbered by
  // first occurrence in the appended tail.
  if (scratch_renum_.size() < id_bound) scratch_renum_.resize(id_bound);
  std::fill(scratch_renum_.begin() + old_blocks,
            scratch_renum_.begin() + id_bound, kNoClass);
  uint32_t next = old_blocks;
  for (size_t n = old_num_nodes; n < num_nodes; ++n) {
    uint32_t& b = lvl->block_of[n];
    if (b >= old_blocks) {
      uint32_t& r = scratch_renum_[b];
      if (r == kNoClass) r = next++;
      b = r;
    }
  }
  const uint32_t num_blocks = next;

  // Per-block appended-member counts, then new offsets = old width + count.
  if (scratch_counts_.size() < num_blocks) scratch_counts_.resize(num_blocks);
  std::fill(scratch_counts_.begin(), scratch_counts_.begin() + num_blocks, 0);
  for (size_t n = old_num_nodes; n < num_nodes; ++n) {
    ++scratch_counts_[lvl->block_of[n]];
  }
  if (scratch_cursor_.size() < static_cast<size_t>(old_blocks) + 1) {
    scratch_cursor_.resize(static_cast<size_t>(old_blocks) + 1);
  }
  std::copy(lvl->extent_offsets.begin(), lvl->extent_offsets.end(),
            scratch_cursor_.begin());  // Old offsets survive the rewrite.
  lvl->extent_offsets.resize(static_cast<size_t>(num_blocks) + 1);
  lvl->extent_offsets[0] = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    const uint32_t old_len =
        b < old_blocks ? scratch_cursor_[b + 1] - scratch_cursor_[b] : 0;
    lvl->extent_offsets[b + 1] =
        lvl->extent_offsets[b] + old_len + scratch_counts_[b];
  }

  // Backward merge: shift the old buckets right (highest first — every
  // destination sits at or right of its source, and right of any lower
  // bucket's source), then drop the appended ids into each bucket's tail
  // slots back-to-front so they land ascending. Appended compact ids all
  // exceed the old ones, so buckets stay ascending.
  lvl->extent_nodes.resize(num_nodes);
  for (uint32_t b = old_blocks; b-- > 0;) {
    const uint32_t src_begin = scratch_cursor_[b];
    const uint32_t src_end = scratch_cursor_[b + 1];
    const uint32_t dst_begin = lvl->extent_offsets[b];
    if (dst_begin != src_begin) {
      std::copy_backward(
          lvl->extent_nodes.begin() + src_begin,
          lvl->extent_nodes.begin() + src_end,
          lvl->extent_nodes.begin() + dst_begin + (src_end - src_begin));
    }
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    scratch_counts_[b] = lvl->extent_offsets[b + 1];
  }
  for (size_t n = num_nodes; n-- > old_num_nodes;) {
    lvl->extent_nodes[--scratch_counts_[lvl->block_of[n]]] =
        static_cast<NodeId>(n);
  }
  lvl->num_blocks = num_blocks;
}

namespace {

/// Borrowed view of a maintained level (the Level struct itself is private
/// to IncrementalMaintainer).
struct LevelView {
  const std::vector<uint32_t>& block_of;
  uint32_t num_blocks;
  const std::vector<uint32_t>& extent_offsets;
  const std::vector<NodeId>& extent_nodes;
};

/// One incremental refinement round: re-signs the dirty nodes of level i
/// against the (already updated) level i-1 in `prev` and assigns each to
/// the clean class with an equal signature, or to a fresh class (ids from
/// old_num_blocks up). `cur` carries the old level-i class per node
/// (kNoClass for new nodes) and receives the assignments; nodes whose
/// assignment differs from the carried class land in `changed`. Returns the
/// id bound (old_num_blocks + fresh classes) for the canonical renumber.
///
/// Clean-class candidates are found by scanning the level-(i-1) extent
/// bucket each dirty node occupies: every class that could absorb the node
/// has all its clean members in exactly that bucket (equal signatures imply
/// an equal own-block word). Per-bucket and per-class memoization keeps the
/// scan linear in the touched buckets.
template <typename Active>
uint32_t IncrementalRound(const DataGraph& g, const LevelView& prev,
                          const Active& active,
                          const std::vector<NodeId>& dirty,
                          const std::vector<uint8_t>& dirty_mask,
                          uint32_t old_num_blocks, std::vector<uint32_t>* cur,
                          std::vector<NodeId>* changed,
                          std::vector<uint8_t>* changed_mask,
                          std::vector<uint32_t>* bucket_stamp,
                          std::vector<uint32_t>* class_stamp, uint32_t epoch) {
  SigTable sigs(dirty.size() + 16);
  // The probe memos are epoch-stamped scratch: clearing bitmaps here would
  // cost O(num_blocks) per level, dwarfing small cascades.
  if (bucket_stamp->size() < prev.num_blocks) {
    bucket_stamp->resize(prev.num_blocks, 0);
  }
  if (class_stamp->size() < old_num_blocks) {
    class_stamp->resize(old_num_blocks, 0);
  }
  std::vector<uint32_t> sig;
  uint32_t fresh = 0;
  for (NodeId v : dirty) {
    const uint32_t bucket = prev.block_of[v];
    if ((*bucket_stamp)[bucket] != epoch) {
      (*bucket_stamp)[bucket] = epoch;
      for (uint32_t idx = prev.extent_offsets[bucket];
           idx < prev.extent_offsets[bucket + 1]; ++idx) {
        const NodeId u = prev.extent_nodes[idx];
        if (dirty_mask[u]) continue;
        const uint32_t c = (*cur)[u];
        if ((*class_stamp)[c] == epoch) continue;
        (*class_stamp)[c] = epoch;
        BuildSig(g, prev.block_of, active, u, &sig);
        sigs.InsertClean(sig, c);
      }
    }
    BuildSig(g, prev.block_of, active, v, &sig);
    auto [assign, inserted] = sigs.FindOrInsertFresh(sig, old_num_blocks + fresh);
    if (inserted) ++fresh;
    if (assign != (*cur)[v]) {
      (*cur)[v] = assign;
      if (!(*changed_mask)[v]) {
        (*changed_mask)[v] = 1;
        changed->push_back(v);
      }
    }
  }
  return old_num_blocks + fresh;
}

}  // namespace

IncrementalMaintainer::IncrementalMaintainer(const DataGraph& g,
                                             MaintainerOptions options)
    : live_(std::make_shared<const DataGraph>(g)),
      options_(std::move(options)) {
  if (options_.k_max < 0) options_.k_max = 0;
  RebuildAChain();
  if (options_.maintain_dk) RebuildDChain();
}

void IncrementalMaintainer::RebuildAChain() {
  const DataGraph& g = graph();
  a_chain_.levels.assign(static_cast<size_t>(options_.k_max) + 1, Level{});
  UpdateLevelZero(&a_chain_);
  BisimulationPartition part;
  part.block_of = a_chain_.levels[0].block_of;
  part.num_blocks = a_chain_.levels[0].num_blocks;
  for (int i = 1; i <= options_.k_max; ++i) {
    RefineBisimulationRound(g, &part, RefineOptions{options_.pool});
    FinishLevel(&a_chain_.levels[i], std::vector<uint32_t>(part.block_of),
                part.num_blocks, /*canonicalize=*/true);
  }
}

void IncrementalMaintainer::RebuildDChain() {
  const DataGraph& g = graph();
  dk_kreq_ = ComputeDkLabelRequirements(g, options_.dk_fups);
  int32_t max_k = 0;
  for (int32_t k : dk_kreq_) max_k = std::max(max_k, k);
  d_chain_.levels.assign(static_cast<size_t>(max_k) + 1, Level{});
  UpdateLevelZero(&d_chain_);
  BisimulationPartition part;
  part.block_of = d_chain_.levels[0].block_of;
  part.num_blocks = d_chain_.levels[0].num_blocks;
  for (int32_t i = 1; i <= max_k; ++i) {
    RefineDkConstructRound(g, &part, dk_kreq_, i,
                           RefineOptions{options_.pool});
    FinishLevel(&d_chain_.levels[i], std::vector<uint32_t>(part.block_of),
                part.num_blocks, /*canonicalize=*/true);
  }
}

void IncrementalMaintainer::UpdateLevelZero(Chain* chain, bool append_only,
                                            size_t old_num_nodes) const {
  const DataGraph& g = graph();
  const size_t num_nodes = g.num_nodes();
  Level& lvl = chain->levels[0];
  if (append_only && lvl.block_of.size() == old_num_nodes &&
      old_num_nodes > 0) {
    // Labels of existing nodes never change: classify just the appended
    // tail against the level's label → block map and patch the extents.
    const size_t num_labels = g.symbols().size();
    if (scratch_renum_.size() < num_labels) scratch_renum_.resize(num_labels);
    std::fill(scratch_renum_.begin(), scratch_renum_.begin() + num_labels,
              kNoClass);
    const uint32_t old_blocks = lvl.num_blocks;
    for (uint32_t b = 0; b < old_blocks; ++b) {
      scratch_renum_[g.label(lvl.extent_nodes[lvl.extent_offsets[b]])] = b;
    }
    lvl.block_of.resize(num_nodes);
    uint32_t next = old_blocks;
    for (size_t n = old_num_nodes; n < num_nodes; ++n) {
      uint32_t& b = scratch_renum_[g.label(static_cast<NodeId>(n))];
      if (b == kNoClass) b = next++;
      lvl.block_of[n] = b;
    }
    // Fresh label blocks were assigned in ascending node order, so the
    // patch's fresh-class renumber is the identity.
    PatchLevelAppendOnly(&lvl, old_num_nodes, old_blocks, next);
    return;
  }
  // Level-0 blocks are the graph's label buckets, numbered by first
  // occurrence in node order; each block's extent is exactly
  // nodes_with_label(its label), already ascending — so the extents are
  // sequential bucket copies, not a scatter.
  const size_t num_labels = g.symbols().size();
  if (scratch_renum_.size() < num_labels) scratch_renum_.resize(num_labels);
  std::fill(scratch_renum_.begin(), scratch_renum_.begin() + num_labels,
            kNoClass);
  std::vector<LabelId> label_of_block;
  label_of_block.reserve(num_labels);
  lvl.block_of.resize(num_nodes);
  uint32_t num = 0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    uint32_t& b = scratch_renum_[g.label(n)];
    if (b == kNoClass) {
      b = num++;
      label_of_block.push_back(g.label(n));
    }
    lvl.block_of[n] = b;
  }
  lvl.num_blocks = num;
  lvl.extent_offsets.resize(static_cast<size_t>(num) + 1);
  lvl.extent_offsets[0] = 0;
  lvl.extent_nodes.resize(num_nodes);
  size_t at = 0;
  for (uint32_t b = 0; b < num; ++b) {
    const auto bucket = g.nodes_with_label(label_of_block[b]);
    std::copy(bucket.begin(), bucket.end(), lvl.extent_nodes.begin() + at);
    at += bucket.size();
    lvl.extent_offsets[b + 1] = static_cast<uint32_t>(at);
  }
}

void IncrementalMaintainer::UpdateChain(
    Chain* chain, const std::vector<int32_t>* kreq, const DataGraph& g,
    const std::vector<NodeId>& new_nodes, const std::vector<NodeId>& seed,
    const std::vector<NodeId>* new_to_old, size_t old_num_nodes,
    bool any_deletion, BatchReceipt* receipt) {
  const size_t num_nodes = g.num_nodes();
  // Append-only batches (no deletion, no old node's parent set touched) add
  // no edges into old nodes, and bisimilarity is incoming-path defined: no
  // old node's signature — hence no old class — can move at any level. The
  // whole update is classifying the appended tail, so every level is
  // extended and patched in place instead of carried and rebuilt.
  const bool append_only = !any_deletion && seed.size() == new_nodes.size() &&
                           !new_nodes.empty();
  UpdateLevelZero(chain, append_only, old_num_nodes);
  // Level 0 is the label partition: an existing node's class is its label,
  // so only the appended nodes count as changed.
  std::vector<NodeId> changed(new_nodes);
  bool all_changed = false;

  // Survivor runs of a deletion batch: maximal id ranges the compaction
  // left contiguous. The per-level class carry is then a few bulk copies
  // instead of an O(V) per-node map lookup.
  struct Run {
    NodeId new_start;
    NodeId old_start;
    uint32_t len;
  };
  std::vector<Run> runs;
  size_t first_new = num_nodes - new_nodes.size();
  if (any_deletion) {
    for (NodeId n = 0; n < first_new;) {
      const NodeId old_start = (*new_to_old)[n];
      NodeId end = n + 1;
      while (end < first_new &&
             (*new_to_old)[end] == old_start + (end - n)) {
        ++end;
      }
      runs.push_back({n, old_start, end - n});
      n = end;
    }
  }

  std::vector<uint8_t> dirty_mask;
  std::vector<NodeId> dirty;
  std::vector<uint8_t> changed_mask;
  std::vector<uint32_t> cur_storage;
  for (size_t i = 1; i < chain->levels.size(); ++i) {
    Level& lvl = chain->levels[i];
    const Level& prev = chain->levels[i - 1];

    size_t dirty_count = num_nodes;
    if (!all_changed) {
      dirty_mask.assign(num_nodes, 0);
      dirty.clear();
      auto add = [&](NodeId n) {
        if (!dirty_mask[n]) {
          dirty_mask[n] = 1;
          dirty.push_back(n);
        }
      };
      // New nodes and parent-set changes seed every level (a parent swap
      // whose old and new parents agree up to level i-1 first bites here);
      // a node whose own level-(i-1) class moved re-signs, and so do its
      // children (its class id is one of their signature words).
      for (NodeId n : seed) add(n);
      for (NodeId c : changed) {
        add(c);
        for (NodeId child : g.children(c)) add(child);
      }
      dirty_count = dirty.size();
    }
    receipt->dirty_nodes += dirty_count;

    if (all_changed ||
        static_cast<double>(dirty_count) >
            options_.rebuild_threshold * static_cast<double>(num_nodes)) {
      // Fallback: one full refinement round seeded from the maintained
      // level i-1. Its output numbering is first-occurrence (canonical)
      // both when it refines and when it is a fixpoint no-op over the
      // already-canonical previous level.
      BisimulationPartition part;
      part.block_of = prev.block_of;
      part.num_blocks = prev.num_blocks;
      if (kreq != nullptr) {
        RefineDkConstructRound(g, &part, *kreq, static_cast<int32_t>(i),
                               RefineOptions{options_.pool});
      } else {
        RefineBisimulationRound(g, &part, RefineOptions{options_.pool});
      }
      FinishLevel(&lvl, std::move(part.block_of), part.num_blocks,
                  /*canonicalize=*/false);
      all_changed = true;
      ++receipt->full_rounds;
      continue;
    }

    // Carry the old level-i classes into the new id space.
    const uint32_t old_blocks = lvl.num_blocks;
    std::vector<uint32_t>* cur;
    if (append_only) {
      // In place: the old prefix already is the carried classes.
      lvl.block_of.resize(num_nodes);
      std::fill(lvl.block_of.begin() + old_num_nodes, lvl.block_of.end(),
                kNoClass);
      cur = &lvl.block_of;
    } else {
      cur_storage.resize(num_nodes);
      if (!any_deletion) {
        // Appends never shift compact ids: the old nodes are the prefix.
        std::copy(lvl.block_of.begin(), lvl.block_of.end(),
                  cur_storage.begin());
      } else {
        for (const Run& r : runs) {
          std::copy_n(lvl.block_of.data() + r.old_start, r.len,
                      cur_storage.data() + r.new_start);
        }
      }
      std::fill(cur_storage.begin() + first_new, cur_storage.end(), kNoClass);
      cur = &cur_storage;
    }

    std::vector<NodeId> changed_out;
    changed_mask.assign(num_nodes, 0);
    LevelView prev_view{prev.block_of, prev.num_blocks, prev.extent_offsets,
                        prev.extent_nodes};
    uint32_t bound;
    if (kreq != nullptr) {
      const int32_t round = static_cast<int32_t>(i);
      bound = IncrementalRound(
          g, prev_view,
          [&](NodeId n) { return (*kreq)[g.label(n)] >= round; }, dirty,
          dirty_mask, old_blocks, cur, &changed_out, &changed_mask,
          &scratch_bucket_stamp_, &scratch_class_stamp_, ++scratch_epoch_);
    } else {
      bound = IncrementalRound(
          g, prev_view, [](NodeId) { return true; }, dirty, dirty_mask,
          old_blocks, cur, &changed_out, &changed_mask,
          &scratch_bucket_stamp_, &scratch_class_stamp_, ++scratch_epoch_);
    }
    ++receipt->incremental_rounds;
    if (changed_out.empty() && !any_deletion && new_nodes.empty()) {
      // Nothing moved and the node set is unchanged: the level (ids,
      // extents and all) is exactly what it was.
      changed.clear();
      continue;
    }
    if (append_only) {
      PatchLevelAppendOnly(&lvl, old_num_nodes, old_blocks, bound);
    } else {
      FinishLevel(&lvl, std::move(cur_storage), bound, /*canonicalize=*/true);
    }
    changed = std::move(changed_out);
  }
}

Result<BatchReceipt> IncrementalMaintainer::Apply(const MutationBatch& batch) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* full_rounds_total =
      registry.GetCounter("mrx_mutation_full_rounds_total");
  static obs::Counter* dk_rebuilds_total =
      registry.GetCounter("mrx_mutation_dk_rebuilds_total");
  static obs::Histogram* cascade_size =
      registry.GetHistogram("mrx_mutation_cascade_size");

  BatchReceipt receipt;
  if (batch.empty()) {
    receipt.version = version();
    receipt.nodes = graph().num_nodes();
    receipt.edges = graph().num_edges();
    return receipt;
  }

  // The graph steps to the new version first; the chains then read their
  // stored previous levels and the new graph (nothing past this can fail).
  MRX_ASSIGN_OR_RETURN(LiveGraph::Step step, live_.Apply(batch));
  const DataGraph& g = graph();
  std::vector<NodeId> seed = step.new_nodes;
  seed.insert(seed.end(), step.parent_set_changed.begin(),
              step.parent_set_changed.end());
  const std::vector<NodeId>* new_to_old =
      step.any_deletion ? &step.new_to_old : nullptr;

  UpdateChain(&a_chain_, nullptr, g, step.new_nodes, seed, new_to_old,
              step.old_num_nodes, step.any_deletion, &receipt);

  if (options_.maintain_dk) {
    std::vector<int32_t> new_kreq =
        ComputeDkLabelRequirements(g, options_.dk_fups);
    bool old_label_changed = false;
    for (size_t l = 0; l < dk_kreq_.size(); ++l) {
      if (new_kreq[l] != dk_kreq_[l]) {
        old_label_changed = true;
        break;
      }
    }
    if (old_label_changed) {
      // An edit changed what an existing label must guarantee (the D(k)
      // constraint propagates requirements along data edges); the freeze
      // schedule itself moved, so incremental rounds don't apply.
      RebuildDChain();
      receipt.dk_rebuilt = true;
      ++stats_.dk_rebuilds;
      dk_rebuilds_total->Increment();
    } else {
      // New labels can only extend the schedule with requirements below
      // the current maximum (they have no base requirement of their own),
      // and their nodes are new — already dirty at every level.
      dk_kreq_ = std::move(new_kreq);
      UpdateChain(&d_chain_, &dk_kreq_, g, step.new_nodes, seed, new_to_old,
                  step.old_num_nodes, step.any_deletion, &receipt);
    }
  }

  receipt.version = step.version;
  receipt.new_nodes = std::move(step.new_nodes);
  receipt.nodes = g.num_nodes();
  receipt.edges = g.num_edges();
  receipt.nodes_deleted = step.nodes_deleted;

  stats_.batches += 1;
  stats_.ops += batch.size();
  stats_.nodes_added += receipt.new_nodes.size();
  stats_.nodes_deleted += step.nodes_deleted;
  stats_.incremental_rounds += receipt.incremental_rounds;
  stats_.full_rounds += receipt.full_rounds;
  stats_.dirty_nodes += receipt.dirty_nodes;

  full_rounds_total->Increment(receipt.full_rounds);
  cascade_size->Record(receipt.dirty_nodes);
  return receipt;
}

BisimulationPartition IncrementalMaintainer::AkPartition(int k) const {
  const Chain& chain = a_chain_;
  BisimulationPartition p;
  const Level& lvl = chain.levels.at(static_cast<size_t>(k));
  p.block_of = lvl.block_of;
  p.num_blocks = lvl.num_blocks;
  for (int j = 1; j <= k; ++j) {
    if (chain.levels[j].num_blocks == chain.levels[j - 1].num_blocks) {
      p.reached_fixpoint = true;
      break;
    }
    ++p.rounds;
  }
  return p;
}

BisimulationPartition IncrementalMaintainer::DkPartition() const {
  const Chain& chain = d_chain_;
  BisimulationPartition p;
  const Level& lvl = chain.levels.back();
  p.block_of = lvl.block_of;
  p.num_blocks = lvl.num_blocks;
  for (size_t j = 1; j < chain.levels.size(); ++j) {
    if (chain.levels[j].num_blocks == chain.levels[j - 1].num_blocks) {
      p.reached_fixpoint = true;
      break;
    }
    ++p.rounds;
  }
  return p;
}

void IncrementalMaintainer::SetDkFups(std::vector<PathExpression> fups) {
  options_.dk_fups = std::move(fups);
  options_.maintain_dk = true;
  RebuildDChain();
}

std::vector<MStarComponentSpec> IncrementalMaintainer::ExportStaticSpecs()
    const {
  const DataGraph& g = graph();
  const std::vector<Level>& levels = a_chain_.levels;
  std::vector<MStarComponentSpec> specs(levels.size());

  // perm[i]: canonical block id of level i → the ordinal BuildStaticHierarchy
  // would give it. Level 0 is numbered by ascending LabelId (LabelBlocks);
  // a level that refined is numbered by first occurrence — our canonical
  // form, so the identity; a fixpoint level keeps the previous numbering.
  std::vector<uint32_t> perm;
  std::vector<uint32_t> prev_perm;
  {
    const Level& l0 = levels[0];
    std::vector<std::pair<LabelId, uint32_t>> order(l0.num_blocks);
    for (uint32_t b = 0; b < l0.num_blocks; ++b) {
      order[b] = {g.label(l0.extent_nodes[l0.extent_offsets[b]]), b};
    }
    std::sort(order.begin(), order.end());
    perm.resize(l0.num_blocks);
    for (uint32_t rank = 0; rank < l0.num_blocks; ++rank) {
      perm[order[rank].second] = rank;
    }
    MStarComponentSpec& spec = specs[0];
    spec.extents.resize(l0.num_blocks);
    for (uint32_t b = 0; b < l0.num_blocks; ++b) {
      // Seal the CSR slice into an extent.
      spec.extents[perm[b]] = Extent::FromSorted(std::vector<NodeId>(
          l0.extent_nodes.begin() + l0.extent_offsets[b],
          l0.extent_nodes.begin() + l0.extent_offsets[b + 1]));
    }
    spec.ks.assign(l0.num_blocks, 0);
    spec.supernodes.assign(l0.num_blocks, 0);
  }
  prev_perm = perm;

  for (size_t i = 1; i < levels.size(); ++i) {
    const Level& li = levels[i];
    const Level& lp = levels[i - 1];
    if (li.num_blocks == lp.num_blocks) {
      // Fixpoint repeat: identical partition, identical canonical vector,
      // and BuildStaticHierarchy carries the previous numbering forward.
      perm = prev_perm;
    } else {
      perm.resize(li.num_blocks);
      for (uint32_t b = 0; b < li.num_blocks; ++b) perm[b] = b;
    }
    MStarComponentSpec& spec = specs[i];
    spec.extents.resize(li.num_blocks);
    spec.ks.assign(li.num_blocks, static_cast<int32_t>(i));
    spec.supernodes.assign(li.num_blocks, 0);
    for (uint32_t b = 0; b < li.num_blocks; ++b) {
      spec.extents[perm[b]] = Extent::FromSorted(std::vector<NodeId>(
          li.extent_nodes.begin() + li.extent_offsets[b],
          li.extent_nodes.begin() + li.extent_offsets[b + 1]));
      spec.supernodes[perm[b]] =
          prev_perm[lp.block_of[li.extent_nodes[li.extent_offsets[b]]]];
    }
    prev_perm = perm;
  }
  return specs;
}

Result<MStarIndex> IncrementalMaintainer::BuildMStar() const {
  return MStarIndex::FromComponents(graph(), ExportStaticSpecs());
}

}  // namespace mrx::mutate
