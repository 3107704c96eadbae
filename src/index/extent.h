#ifndef MRX_INDEX_EXTENT_H_
#define MRX_INDEX_EXTENT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/data_graph.h"

namespace mrx {

/// \file
/// The pluggable compressed extent representation (ISSUE 9 tentpole).
///
/// Every structural index in the reproduction stands on *extents* — sorted,
/// duplicate-free sets of data-node ids. At the 2M-node scale tier they
/// dominate both index physical size and the §5 intersection cost, so the
/// raw `std::vector<uint32_t>` of the early PRs is now one of three
/// representations behind an immutable value type:
///
///  - kSortedVector — the original format and the equivalence oracle;
///  - kDeltaPacked  — fixed-width bit-packed (delta − 1) runs, the densest
///    encoding for clustered id ranges;
///  - kHybridBitmap — roaring-style containers per 64k id chunk (sorted
///    u16 array / 1024-word bitmap / run list), the set-algebra workhorse
///    with word-parallel intersection.
///
/// The representation is chosen per extent by a size heuristic when the
/// extent is *normalized on construction*; `SetExtentRepMode` forces one
/// globally (differential runs force each in turn — `mrx check
/// --extent-rep`). Payloads are immutable and shared, so copying an Extent
/// (index clones, cache handles) is one refcount. Ground truth stays on
/// plain vectors: DataGraph adjacency, DataEvaluator and the differential
/// oracle never see a compressed set.

/// Physical representation of one extent.
enum class ExtentRep : uint8_t {
  kSortedVector = 0,
  kDeltaPacked = 1,
  kHybridBitmap = 2,
};

/// Process-wide construction policy. kAuto picks per extent by the size
/// heuristic; the force modes pin every new extent to one representation
/// (the differential harness runs each against the vector oracle).
enum class ExtentRepMode : uint8_t {
  kAuto = 0,
  kForceSortedVector,
  kForceDeltaPacked,
  kForceHybridBitmap,
};

void SetExtentRepMode(ExtentRepMode mode);
ExtentRepMode GetExtentRepMode();

/// "auto" | "vector" | "delta" | "hybrid" (the `--extent-rep` spellings).
std::optional<ExtentRepMode> ParseExtentRepMode(std::string_view name);
const char* ExtentRepName(ExtentRep rep);

namespace extent_internal {

/// One 64k id chunk of a kHybridBitmap extent. `kind` follows the classic
/// hybrid rule: whichever of array (2 B/element), bitmap (8 KiB flat) or
/// runs (4 B/run) is smallest for the chunk's contents.
struct BitmapChunk {
  enum class Kind : uint8_t { kArray = 0, kBitmap = 1, kRuns = 2 };
  uint16_t high = 0;    ///< Chunk id: value >> 16.
  Kind kind = Kind::kArray;
  uint32_t count = 0;   ///< Number of values in the chunk.
  /// kArray: sorted low 16 bits. kRuns: (start, length-1) pairs, sorted,
  /// non-adjacent. kBitmap: unused.
  std::vector<uint16_t> lows;
  /// kBitmap: exactly 1024 words. Others: unused.
  std::vector<uint64_t> words;

  size_t physical_bytes() const {
    return sizeof(BitmapChunk) + lows.size() * sizeof(uint16_t) +
           words.size() * sizeof(uint64_t);
  }
  bool Contains(uint16_t low) const;
};

/// Values per delta block: the granularity of the kDeltaPacked skip index
/// and of the native delta-stream kernels' decode window. 128 values keep
/// the decode buffer stack-resident (512 B) while the per-block maximum
/// costs 4 B per 128 members (~3% of the vector encoding).
inline constexpr size_t kDeltaBlock = 128;

/// Immutable storage behind an Extent; shared between copies.
struct ExtentPayload {
  ExtentRep rep = ExtentRep::kSortedVector;
  uint32_t size = 0;

  // kSortedVector.
  std::vector<NodeId> sorted;

  // kDeltaPacked: values are base, base + d0, base + d0 + d1, ... with
  // each field storing (delta - 1) in `delta_bits` bits (extents are
  // duplicate-free, so every delta is >= 1). delta_bits == 0 encodes a
  // contiguous run [base, base + size).
  NodeId base = 0;
  uint8_t delta_bits = 0;
  std::vector<uint64_t> packed;

  // kDeltaPacked skip index, *derived* from `packed` (never serialized;
  // storage decode recomputes it via FinalizeDeltaPayload): entry b is the
  // last member of block b, i.e. the value at logical index
  // min(size, (b+1)*kDeltaBlock) - 1. Empty when delta_bits == 0 — a
  // contiguous run answers every question with arithmetic. The native
  // kernels binary-search it to skip blocks that cannot overlap the other
  // operand, and Contains uses it for O(log + kDeltaBlock) membership.
  std::vector<NodeId> block_last;

  // kHybridBitmap, ascending by `high`.
  std::vector<BitmapChunk> chunks;

  size_t physical_bytes() const;
};

uint64_t UnpackDelta(const std::vector<uint64_t>& packed, uint8_t bits,
                     size_t index);

/// Builds the block_last skip index of a kDeltaPacked payload from its
/// packed stream (one sequential decode). Must be called on every payload
/// whose `packed`/`base`/`delta_bits`/`size` were filled in by hand — the
/// storage decode path and tests; Extent::FromSortedAs does it itself.
void FinalizeDeltaPayload(ExtentPayload* p);

/// Decodes one delta block: writes the members at logical indices
/// [block * kDeltaBlock, min(size, (block+1) * kDeltaBlock)) into `out`
/// (capacity >= kDeltaBlock) and returns how many were written. Requires
/// delta_bits > 0 and a finalized block_last.
uint32_t DecodeDeltaBlock(const ExtentPayload& p, size_t block, NodeId* out);

/// Builds a chunk for `count` sorted low halfwords, choosing the cheapest
/// kind. Shared by extent normalization and the native hybrid kernels in
/// extent_ops.cc (which produce result chunks directly).
BitmapChunk MakeChunk(uint16_t high, const uint16_t* lows, uint32_t count);

/// Wraps chunks (ascending by high, all non-empty) into a hybrid payload.
std::shared_ptr<const ExtentPayload> MakeHybridPayload(
    std::vector<BitmapChunk> chunks);

}  // namespace extent_internal

/// \brief An immutable, normalized extent: a sorted duplicate-free set of
/// data-node ids that owns its physical representation.
class Extent {
 public:
  /// Empty set.
  Extent() = default;

  /// Normalizes a sorted duplicate-free vector into the representation the
  /// heuristic (or the forced mode) selects. Implicit on purpose: every
  /// boundary that used to traffic in raw vectors normalizes on the way
  /// in, which is the API contract of the redesign.
  Extent(std::vector<NodeId> sorted) : Extent(FromSorted(std::move(sorted))) {}

  static Extent FromSorted(std::vector<NodeId> sorted);
  /// Forces a specific representation (benchmarks, tests, storage reload).
  static Extent FromSortedAs(std::vector<NodeId> sorted, ExtentRep rep);
  /// Adopts an already-built payload (storage decode path). The payload
  /// must be well-formed; only debug builds re-verify.
  static Extent FromPayload(std::shared_ptr<const extent_internal::ExtentPayload> payload);

  size_t size() const { return payload_ == nullptr ? 0 : payload_->size; }
  bool empty() const { return size() == 0; }
  NodeId front() const;
  NodeId back() const;

  ExtentRep rep() const {
    return payload_ == nullptr ? ExtentRep::kSortedVector : payload_->rep;
  }

  /// Heap bytes of the physical encoding (the §5 index-size accounting the
  /// extent bench reports). An empty extent is 0.
  size_t physical_bytes() const {
    return payload_ == nullptr ? 0 : payload_->physical_bytes();
  }

  bool Contains(NodeId id) const;

  /// Decodes to the oracle representation.
  std::vector<NodeId> Materialize() const;

  /// Appends all members to `out` in ascending order (bulk decode; the
  /// answer-collection hot path). Reserves nothing itself: a caller that
  /// appends several extents reserves their total once.
  void AppendTo(std::vector<NodeId>* out) const;

  /// Non-null iff the physical representation is kSortedVector — the
  /// kernels' zero-copy fast path.
  const std::vector<NodeId>* AsSortedVector() const {
    if (payload_ == nullptr || payload_->rep != ExtentRep::kSortedVector) {
      return nullptr;
    }
    return &payload_->sorted;
  }

  const extent_internal::ExtentPayload* payload() const {
    return payload_.get();
  }

  /// Forward iterator decoding on the fly; keeps range-for call sites from
  /// the vector era source-compatible.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = ptrdiff_t;
    using pointer = const NodeId*;
    using reference = const NodeId&;

    const_iterator() = default;

    reference operator*() const { return value_; }
    pointer operator->() const { return &value_; }
    const_iterator& operator++() {
      Advance();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      Advance();
      return copy;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    friend class Extent;
    const_iterator(const extent_internal::ExtentPayload* p, size_t pos);
    void Advance();
    void LoadChunkCursor();

    const extent_internal::ExtentPayload* p_ = nullptr;
    size_t pos_ = 0;       ///< Logical index; == size() at end.
    NodeId value_ = 0;
    // kDeltaPacked cursor.
    size_t delta_index_ = 0;
    // kHybridBitmap cursor.
    size_t chunk_ = 0;     ///< Current chunk index.
    size_t in_chunk_ = 0;  ///< Values consumed from the current chunk.
    size_t word_ = 0;      ///< Bitmap kind: current word index.
    uint64_t word_bits_ = 0;  ///< Bitmap kind: unconsumed bits of word_.
    size_t run_ = 0;       ///< Runs kind: current run pair index.
    uint32_t run_off_ = 0; ///< Runs kind: offset within the current run.
  };

  const_iterator begin() const { return const_iterator(payload_.get(), 0); }
  const_iterator end() const { return const_iterator(payload_.get(), size()); }

  /// Logical set equality (representation-independent).
  bool operator==(const Extent& o) const;
  bool operator!=(const Extent& o) const { return !(*this == o); }
  bool operator==(const std::vector<NodeId>& v) const;
  bool operator!=(const std::vector<NodeId>& v) const { return !(*this == v); }

 private:
  explicit Extent(std::shared_ptr<const extent_internal::ExtentPayload> p)
      : payload_(std::move(p)) {}

  std::shared_ptr<const extent_internal::ExtentPayload> payload_;
};

/// Debug/printing support (gtest failure messages); prints up to 16
/// members then an ellipsis with the size.
std::ostream& operator<<(std::ostream& os, const Extent& extent);

}  // namespace mrx

#endif  // MRX_INDEX_EXTENT_H_
