#include "index/bisimulation.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace mrx {
namespace {

/// Tag word prefixing the signature of a frozen node. Distinct from every
/// block id (block ids are < num_nodes < 2^32 - 1), so frozen blocks can
/// never merge with active ones.
constexpr uint32_t kFrozenTag = static_cast<uint32_t>(-1);

/// Sharded refinement thresholds (see docs/PERFORMANCE.md, "Scale tier").
/// Below kParallelRefineMinNodes a round is too small to amortize the
/// fork/merge overhead; shards are kept to >= kMinNodesPerShard each so
/// per-shard tables stay dense, and threads get kShardsPerThread shards of
/// work each so uneven shards (hubs, label clusters) still balance. None
/// of these affect results — only where the work runs.
constexpr size_t kParallelRefineMinNodes = 2048;
constexpr size_t kMinNodesPerShard = 1024;
constexpr size_t kShardsPerThread = 4;

/// FNV-1a over the signature words.
uint64_t HashWords(const uint32_t* data, uint32_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

size_t NextPow2(size_t v) {
  size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

/// Interning store for refinement signatures. The unique signatures live
/// flattened in one arena (no per-signature vector, no hash-map key
/// copies); an open-addressing table over (hash, id) indexes them. Ids are
/// assigned in insertion order, which is what the deterministic shard
/// merge below relies on. (mrx scope, not anonymous, so RefineScratchImpl
/// can hold instances across rounds.)
class SignatureTable {
 public:
  explicit SignatureTable(size_t expected_sigs = 0) {
    slots_.assign(NextPow2(expected_sigs * 2 + 16), Slot{});
    mask_ = slots_.size() - 1;
  }

  /// Empties the table for a new round, keeping every allocation whose
  /// capacity already suffices. Equivalent to assigning a fresh
  /// SignatureTable(expected_sigs) — minus the reallocation.
  void Reset(size_t expected_sigs) {
    const size_t want = NextPow2(expected_sigs * 2 + 16);
    slots_.assign(std::max(want, slots_.size()), Slot{});
    mask_ = slots_.size() - 1;
    arena_.clear();
    offsets_.clear();
    lens_.clear();
    hashes_.clear();
  }

  /// Interns the signature, returning its id (existing or freshly
  /// assigned as the next integer).
  uint32_t Intern(const uint32_t* sig, uint32_t len, uint64_t hash) {
    if ((size() + 1) * 10 >= slots_.size() * 7) Grow();
    size_t i = static_cast<size_t>(hash) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.id == kEmptySlot) {
        const uint32_t id = static_cast<uint32_t>(offsets_.size());
        s.hash = hash;
        s.id = id;
        offsets_.push_back(static_cast<uint32_t>(arena_.size()));
        lens_.push_back(len);
        hashes_.push_back(hash);
        arena_.insert(arena_.end(), sig, sig + len);
        return id;
      }
      if (s.hash == hash && lens_[s.id] == len &&
          std::memcmp(arena_.data() + offsets_[s.id], sig,
                      len * sizeof(uint32_t)) == 0) {
        return s.id;
      }
      i = (i + 1) & mask_;
    }
  }

  uint32_t size() const { return static_cast<uint32_t>(offsets_.size()); }
  const uint32_t* data(uint32_t id) const {
    return arena_.data() + offsets_[id];
  }
  uint32_t len(uint32_t id) const { return lens_[id]; }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

 private:
  static constexpr uint32_t kEmptySlot = static_cast<uint32_t>(-1);
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kEmptySlot;
  };

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kEmptySlot) continue;
      size_t i = static_cast<size_t>(s.hash) & mask_;
      while (slots_[i].id != kEmptySlot) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::vector<uint32_t> arena_;    ///< All unique signatures, flattened.
  std::vector<uint32_t> offsets_;  ///< Arena offset per id.
  std::vector<uint32_t> lens_;     ///< Word count per id.
  std::vector<uint64_t> hashes_;   ///< Cached hash per id (for Grow/merge).
};

/// The allocations RefineRound would otherwise make fresh every round.
/// Everything is Reset at the top of each round; capacities persist.
struct RefineScratchImpl {
  struct Shard {
    SignatureTable table;
    std::vector<uint32_t> local_of;  ///< Local signature id per node.
    std::vector<uint32_t> remap;     ///< Local -> global id.
    size_t begin = 0, end = 0;
  };
  std::vector<Shard> shards;
  SignatureTable global;
  /// Unique-signature count of the previous round; seeds table sizing so a
  /// steady-state round never grows its table.
  uint32_t last_uniques = 0;
};

RefineScratch::RefineScratch() : impl_(std::make_unique<RefineScratchImpl>()) {}
RefineScratch::~RefineScratch() = default;

namespace {

/// Appends node n's signature words to `sig` (cleared first):
/// active  -> [own block, sorted unique parent blocks],
/// frozen  -> [kFrozenTag, own block].
template <typename ActivePredicate>
void BuildSignature(const DataGraph& g, const std::vector<uint32_t>& block_of,
                    const ActivePredicate& active, NodeId n,
                    std::vector<uint32_t>* sig) {
  sig->clear();
  if (active(n)) {
    sig->push_back(block_of[n]);
    for (NodeId p : g.parents(n)) sig->push_back(block_of[p]);
    std::sort(sig->begin() + 1, sig->end());
    sig->erase(std::unique(sig->begin() + 1, sig->end()), sig->end());
  } else {
    // Frozen nodes keep their identity; the tag separates their signature
    // space from the active one (frozen blocks must not merge with active).
    sig->push_back(kFrozenTag);
    sig->push_back(block_of[n]);
  }
}

/// One refinement round. `active(n)` says whether node n still refines.
/// Returns the new block count; fills `next_block_of`. `scratch` is never
/// null (callers without one borrow a function-local RefineScratch).
///
/// Parallel structure (determinism contract, docs/PERFORMANCE.md): nodes
/// are cut into contiguous ascending shards. Each shard interns its
/// signatures into a private table (ids in ascending first-occurrence
/// order within the shard). The serial merge then walks shards in order,
/// re-interning each shard's unique signatures into the global table — so
/// a global id is assigned exactly when its signature is first seen in
/// ascending node order, which is precisely the numbering the serial scan
/// produces. The result is byte-identical for every shard/thread count —
/// including the single-shard path, which interns straight into the global
/// table (same insertion order, no merge).
template <typename ActivePredicate>
uint32_t RefineRound(const DataGraph& g, const std::vector<uint32_t>& block_of,
                     const ActivePredicate& active,
                     std::vector<uint32_t>* next_block_of, ThreadPool* pool,
                     RefineScratchImpl* scratch) {
  const size_t n = g.num_nodes();
  next_block_of->resize(n);

  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 1 &&
      n >= kParallelRefineMinNodes) {
    num_shards =
        std::min(pool->num_threads() * kShardsPerThread, n / kMinNodesPerShard);
  }

  SignatureTable& global = scratch->global;

  if (num_shards == 1) {
    // Serial fast path: intern directly into the global table — one intern
    // per node instead of the shard-then-merge double intern.
    global.Reset(scratch->last_uniques > 0 ? scratch->last_uniques
                                           : n / 4 + 16);
    std::vector<uint32_t> sig;
    for (size_t i = 0; i < n; ++i) {
      BuildSignature(g, block_of, active, static_cast<NodeId>(i), &sig);
      const uint64_t h =
          HashWords(sig.data(), static_cast<uint32_t>(sig.size()));
      (*next_block_of)[i] =
          global.Intern(sig.data(), static_cast<uint32_t>(sig.size()), h);
    }
    scratch->last_uniques = global.size();
    return global.size();
  }

  const size_t shard_size = (n + num_shards - 1) / num_shards;
  auto& shards = scratch->shards;
  shards.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards[s].begin = s * shard_size;
    shards[s].end = std::min(n, (s + 1) * shard_size);
  }

  // Phase 1 (parallel): per-shard signature interning.
  auto intern_shards = [&](size_t lo, size_t hi) {
    std::vector<uint32_t> sig;
    for (size_t s = lo; s < hi; ++s) {
      auto& shard = shards[s];
      const size_t count = shard.end - shard.begin;
      shard.table.Reset(count / 4 + 16);
      shard.local_of.resize(count);
      for (size_t i = shard.begin; i < shard.end; ++i) {
        BuildSignature(g, block_of, active, static_cast<NodeId>(i), &sig);
        const uint64_t h =
            HashWords(sig.data(), static_cast<uint32_t>(sig.size()));
        shard.local_of[i - shard.begin] = shard.table.Intern(
            sig.data(), static_cast<uint32_t>(sig.size()), h);
      }
    }
  };
  pool->ParallelFor(0, num_shards, 1, intern_shards);

  // Phase 2 (serial): merge shard tables in shard order. Each shard's
  // uniques are re-interned ascending, establishing the canonical global
  // numbering; `remap` translates local ids.
  size_t total_uniques = 0;
  for (const auto& shard : shards) total_uniques += shard.table.size();
  global.Reset(total_uniques);
  for (size_t s = 0; s < num_shards; ++s) {
    auto& shard = shards[s];
    shard.remap.resize(shard.table.size());
    for (uint32_t u = 0; u < shard.table.size(); ++u) {
      shard.remap[u] =
          global.Intern(shard.table.data(u), shard.table.len(u),
                        shard.table.hash(u));
    }
  }

  // Phase 3 (parallel): write the renumbered blocks back.
  auto write_shards = [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      const auto& shard = shards[s];
      for (size_t i = shard.begin; i < shard.end; ++i) {
        (*next_block_of)[i] = shard.remap[shard.local_of[i - shard.begin]];
      }
    }
  };
  pool->ParallelFor(0, num_shards, 1, write_shards);
  scratch->last_uniques = global.size();
  return global.size();
}

/// Initial (round-0) partition: one block per label in use.
uint32_t LabelBlocks(const DataGraph& g, std::vector<uint32_t>* block_of) {
  const size_t num_labels = g.symbols().size();
  std::vector<uint32_t> block_of_label(num_labels, static_cast<uint32_t>(-1));
  uint32_t num_blocks = 0;
  for (LabelId l = 0; l < num_labels; ++l) {
    if (!g.nodes_with_label(l).empty()) block_of_label[l] = num_blocks++;
  }
  block_of->resize(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    (*block_of)[n] = block_of_label[g.label(n)];
  }
  return num_blocks;
}

/// Build-phase observability: every refinement round records its wall
/// time, wherever it runs (static build, M*(k) growth, D(k) construct).
void RecordRound(uint64_t start_ns) {
  static obs::Counter* rounds = obs::MetricsRegistry::Global().GetCounter(
      "mrx_build_refine_rounds_total");
  static obs::Histogram* round_ns = obs::MetricsRegistry::Global().GetHistogram(
      "mrx_build_refine_round_ns");
  rounds->Increment();
  round_ns->Record(
      static_cast<double>(obs::MonotonicNowNs() - start_ns));
}

}  // namespace

BisimulationPartition ComputeKBisimulation(const DataGraph& g, int k,
                                           const RefineOptions& options) {
  ThreadPool* pool = options.pool;
  RefineScratch local;
  RefineScratchImpl* impl = (options.scratch ? options.scratch : &local)->impl();

  BisimulationPartition part;
  part.num_blocks = LabelBlocks(g, &part.block_of);

  std::vector<uint32_t> next;
  int round = 0;
  while (k < 0 || round < k) {
    const uint64_t start_ns = obs::MonotonicNowNs();
    uint32_t new_blocks = RefineRound(
        g, part.block_of, [](NodeId) { return true; }, &next, pool, impl);
    RecordRound(start_ns);
    ++round;
    if (new_blocks == part.num_blocks) {
      // Refinement is monotone and the new partition refines the old one,
      // so an unchanged block count means an unchanged partition.
      part.reached_fixpoint = true;
      --round;  // The no-op round did not change anything.
      break;
    }
    part.block_of.swap(next);
    part.num_blocks = new_blocks;
  }
  part.rounds = round;
  return part;
}

bool RefineBisimulationRound(const DataGraph& g, BisimulationPartition* part,
                             const RefineOptions& options) {
  ThreadPool* pool = options.pool;
  if (part->reached_fixpoint) return false;
  RefineScratch local;
  RefineScratchImpl* impl = (options.scratch ? options.scratch : &local)->impl();
  const uint64_t start_ns = obs::MonotonicNowNs();
  std::vector<uint32_t> next;
  uint32_t new_blocks = RefineRound(
      g, part->block_of, [](NodeId) { return true; }, &next, pool, impl);
  RecordRound(start_ns);
  if (new_blocks == part->num_blocks) {
    part->reached_fixpoint = true;
    return false;
  }
  part->block_of.swap(next);
  part->num_blocks = new_blocks;
  ++part->rounds;
  return true;
}

BisimulationPartition ComputeDkConstructPartition(
    const DataGraph& g, const std::vector<int32_t>& kreq_by_label,
    const RefineOptions& options) {
  RefineScratch local;
  RefineScratch* use = options.scratch ? options.scratch : &local;

  BisimulationPartition part;
  part.num_blocks = LabelBlocks(g, &part.block_of);

  int32_t max_k = 0;
  for (int32_t k : kreq_by_label) max_k = std::max(max_k, k);

  for (int32_t i = 1; i <= max_k; ++i) {
    if (!RefineDkConstructRound(g, &part, kreq_by_label, i,
                                RefineOptions{options.pool, use})) {
      break;
    }
  }
  return part;
}

bool RefineDkConstructRound(const DataGraph& g, BisimulationPartition* part,
                            const std::vector<int32_t>& kreq_by_label,
                            int32_t round, const RefineOptions& options) {
  ThreadPool* pool = options.pool;
  if (part->reached_fixpoint) return false;
  RefineScratch local;
  RefineScratchImpl* impl = (options.scratch ? options.scratch : &local)->impl();
  const uint64_t start_ns = obs::MonotonicNowNs();
  std::vector<uint32_t> next;
  uint32_t new_blocks = RefineRound(
      g, part->block_of,
      [&](NodeId n) { return kreq_by_label[g.label(n)] >= round; }, &next,
      pool, impl);
  RecordRound(start_ns);
  if (new_blocks == part->num_blocks) {
    // Unchanged partition: the active set only shrinks as the round number
    // grows and blocks are label-uniform (every block freezes as a whole),
    // so no later round can change it either.
    part->reached_fixpoint = true;
    return false;
  }
  part->block_of.swap(next);
  part->num_blocks = new_blocks;
  ++part->rounds;
  return true;
}

}  // namespace mrx
