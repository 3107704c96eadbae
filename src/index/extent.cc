#include "index/extent.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <ostream>

#include "index/extent_kernels.h"

namespace mrx {
namespace {

std::atomic<ExtentRepMode> g_rep_mode{ExtentRepMode::kAuto};

/// Below this many elements the plain vector always wins: compressed
/// headers cost more than they save and the kernels' small-case merges are
/// fastest on contiguous u32. Refinement churns out huge numbers of tiny
/// extents, so this threshold is load-bearing for build speed too.
constexpr size_t kSmallExtent = 32;

/// kAuto only compresses when the encoding actually pays: best compressed
/// size must be under this fraction of the vector's 4 B/element.
constexpr double kCompressGain = 0.9;

/// Within this factor of kDeltaPacked's size, kHybridBitmap is preferred:
/// near-equal bytes, but word-parallel set algebra.
constexpr double kHybridSlack = 1.1;

/// Above this many elements an extent is intersect-hot: the §5 cost model
/// is dominated by set algebra over exactly these big extents, so kAuto
/// prefers kHybridBitmap (native chunk kernels, SIMD word dispatch)
/// whenever it compresses at all, and reserves kDeltaPacked — denser, and
/// since the blocked-stream kernels no longer decode-everything, no longer
/// catastrophic to intersect — for the small/mid population. Retuned from
/// 16k to 2k for ISSUE 10: BENCH_extent showed the 500k tier's hot extents
/// landing below the old threshold on delta, costing 2x intersect
/// throughput (auto 0.98x vector vs hybrid 2.01x) for a byte win the 0.60x
/// size gate does not need.
constexpr size_t kHotExtent = 2048;

/// Chunk encoding cost by kind, in payload bytes (headers excluded — all
/// kinds pay the same BitmapChunk struct).
size_t ChunkBytes(uint32_t count, uint32_t runs) {
  const size_t array_bytes = count * sizeof(uint16_t);
  const size_t run_bytes = runs * 2 * sizeof(uint16_t);
  const size_t bitmap_bytes = 1024 * sizeof(uint64_t);
  return std::min({array_bytes, run_bytes, bitmap_bytes});
}

/// Everything the representation decision needs, from ONE pass over the
/// sorted members — no per-representation estimation passes and no trial
/// encodes of rejected representations (the encode-cost fix of ISSUE 10:
/// auto used to pay a delta pass, a hybrid pass, and then the chosen
/// encoder's own re-scan).
struct RepStats {
  uint32_t max_delta = 1;     ///< Largest gap between consecutive members.
  size_t hybrid_bytes = 0;    ///< Exact kHybridBitmap physical estimate.
};

RepStats ComputeRepStats(const std::vector<NodeId>& sorted) {
  RepStats stats;
  size_t i = 0;
  NodeId prev = 0;
  while (i < sorted.size()) {
    const uint32_t high = sorted[i] >> 16;
    uint32_t count = 0;
    uint32_t runs = 0;
    for (; i < sorted.size() && (sorted[i] >> 16) == high; ++i) {
      if (i > 0) stats.max_delta = std::max(stats.max_delta, sorted[i] - prev);
      if (count == 0 || sorted[i] != prev + 1) ++runs;
      ++count;
      prev = sorted[i];
    }
    stats.hybrid_bytes +=
        sizeof(extent_internal::BitmapChunk) + ChunkBytes(count, runs);
  }
  return stats;
}

uint8_t DeltaBitsFromMax(uint32_t max_delta) {
  // Fields store (delta - 1); a contiguous run needs 0 bits.
  return max_delta == 1 ? 0
                        : static_cast<uint8_t>(std::bit_width(max_delta - 1));
}

size_t DeltaPackedBytes(size_t n, uint8_t bits) {
  if (n <= 1) return sizeof(extent_internal::ExtentPayload);
  const size_t words = (((n - 1) * bits) + 63) / 64;
  // A non-run encoding also carries the per-block skip index.
  const size_t blocks =
      bits == 0 ? 0
                : (n + extent_internal::kDeltaBlock - 1) /
                      extent_internal::kDeltaBlock;
  return sizeof(extent_internal::ExtentPayload) + words * sizeof(uint64_t) +
         blocks * sizeof(NodeId);
}

std::shared_ptr<const extent_internal::ExtentPayload> BuildSortedVector(
    std::vector<NodeId> sorted) {
  auto p = std::make_shared<extent_internal::ExtentPayload>();
  p->rep = ExtentRep::kSortedVector;
  p->size = static_cast<uint32_t>(sorted.size());
  p->sorted = std::move(sorted);
  return p;
}

std::shared_ptr<const extent_internal::ExtentPayload> BuildDeltaPacked(
    const std::vector<NodeId>& sorted, uint8_t delta_bits) {
  auto p = std::make_shared<extent_internal::ExtentPayload>();
  p->rep = ExtentRep::kDeltaPacked;
  p->size = static_cast<uint32_t>(sorted.size());
  if (sorted.empty()) return p;
  p->base = sorted.front();
  p->delta_bits = delta_bits;
  if (p->delta_bits > 0) {
    const size_t fields = sorted.size() - 1;
    p->packed.assign(((fields * p->delta_bits) + 63) / 64, 0);
    size_t bit = 0;
    for (size_t i = 1; i < sorted.size(); ++i) {
      const uint64_t field = sorted[i] - sorted[i - 1] - 1;
      const size_t word = bit >> 6;
      const size_t off = bit & 63;
      p->packed[word] |= field << off;
      if (off + p->delta_bits > 64) {
        p->packed[word + 1] |= field >> (64 - off);
      }
      bit += p->delta_bits;
    }
    // The block skip index is derived from the packed stream (the same
    // routine the storage decode path uses), so there is exactly one
    // definition of the block boundaries.
    extent_internal::FinalizeDeltaPayload(p.get());
  }
  return p;
}

}  // namespace

namespace extent_internal {

BitmapChunk MakeChunk(uint16_t high, const uint16_t* lows, uint32_t count) {
  BitmapChunk chunk;
  chunk.high = high;
  chunk.count = count;
  uint32_t runs = 0;
  for (uint32_t j = 0; j < count; ++j) {
    if (j == 0 || lows[j] != lows[j - 1] + 1) ++runs;
  }
  const size_t array_bytes = count * sizeof(uint16_t);
  const size_t run_bytes = runs * 2 * sizeof(uint16_t);
  const size_t bitmap_bytes = 1024 * sizeof(uint64_t);
  if (run_bytes <= array_bytes && run_bytes <= bitmap_bytes) {
    chunk.kind = BitmapChunk::Kind::kRuns;
    chunk.lows.reserve(runs * 2);
    for (uint32_t j = 0; j < count;) {
      const uint16_t start = lows[j];
      uint32_t len = 1;
      while (j + len < count && lows[j + len] == start + len) ++len;
      chunk.lows.push_back(start);
      chunk.lows.push_back(static_cast<uint16_t>(len - 1));
      j += len;
    }
  } else if (array_bytes <= bitmap_bytes) {
    chunk.kind = BitmapChunk::Kind::kArray;
    chunk.lows.assign(lows, lows + count);
  } else {
    chunk.kind = BitmapChunk::Kind::kBitmap;
    chunk.words.assign(1024, 0);
    for (uint32_t j = 0; j < count; ++j) {
      chunk.words[lows[j] >> 6] |= uint64_t{1} << (lows[j] & 63);
    }
  }
  return chunk;
}

std::shared_ptr<const ExtentPayload> MakeHybridPayload(
    std::vector<BitmapChunk> chunks) {
  auto p = std::make_shared<ExtentPayload>();
  p->rep = ExtentRep::kHybridBitmap;
  uint32_t size = 0;
  for (const BitmapChunk& chunk : chunks) size += chunk.count;
  p->size = size;
  p->chunks = std::move(chunks);
  return p;
}

}  // namespace extent_internal

namespace {

std::shared_ptr<const extent_internal::ExtentPayload> BuildHybridBitmap(
    const std::vector<NodeId>& sorted) {
  std::vector<extent_internal::BitmapChunk> chunks;
  std::vector<uint16_t> lows;
  size_t i = 0;
  while (i < sorted.size()) {
    const uint32_t high = sorted[i] >> 16;
    lows.clear();
    for (; i < sorted.size() && (sorted[i] >> 16) == high; ++i) {
      lows.push_back(static_cast<uint16_t>(sorted[i] & 0xffff));
    }
    chunks.push_back(extent_internal::MakeChunk(static_cast<uint16_t>(high),
                                                lows.data(),
                                                static_cast<uint32_t>(lows.size())));
  }
  return extent_internal::MakeHybridPayload(std::move(chunks));
}

}  // namespace

void SetExtentRepMode(ExtentRepMode mode) {
  g_rep_mode.store(mode, std::memory_order_relaxed);
}

ExtentRepMode GetExtentRepMode() {
  return g_rep_mode.load(std::memory_order_relaxed);
}

std::optional<ExtentRepMode> ParseExtentRepMode(std::string_view name) {
  if (name == "auto") return ExtentRepMode::kAuto;
  if (name == "vector") return ExtentRepMode::kForceSortedVector;
  if (name == "delta") return ExtentRepMode::kForceDeltaPacked;
  if (name == "hybrid") return ExtentRepMode::kForceHybridBitmap;
  return std::nullopt;
}

const char* ExtentRepName(ExtentRep rep) {
  switch (rep) {
    case ExtentRep::kSortedVector: return "vector";
    case ExtentRep::kDeltaPacked: return "delta";
    case ExtentRep::kHybridBitmap: return "hybrid";
  }
  return "?";
}

namespace extent_internal {

size_t ExtentPayload::physical_bytes() const {
  size_t bytes = sizeof(ExtentPayload);
  bytes += sorted.capacity() * sizeof(NodeId);
  bytes += packed.capacity() * sizeof(uint64_t);
  bytes += block_last.capacity() * sizeof(NodeId);
  for (const BitmapChunk& chunk : chunks) {
    bytes += chunk.physical_bytes();
  }
  return bytes;
}

uint32_t DecodeDeltaBlock(const ExtentPayload& p, size_t block, NodeId* out) {
  assert(p.delta_bits > 0);
  const size_t begin = block * kDeltaBlock;
  assert(begin < p.size);
  const uint32_t count =
      static_cast<uint32_t>(std::min<size_t>(kDeltaBlock, p.size - begin));
  // First member: the base, or the previous block's last member plus the
  // bridging delta field (field i produces the member at index i + 1).
  if (block == 0) {
    out[0] = p.base;
  } else {
    uint32_t bridge;
    UnpackFieldsU32(p.packed.data(), p.delta_bits, begin - 1, 1, 1, &bridge);
    out[0] = p.block_last[block - 1] + bridge;
  }
  if (count > 1) {
    UnpackFieldsU32(p.packed.data(), p.delta_bits, begin, count - 1, 1,
                    out + 1);
    PrefixSumU32(out, count, 0);
  }
  return count;
}

void FinalizeDeltaPayload(ExtentPayload* p) {
  p->block_last.clear();
  if (p->rep != ExtentRep::kDeltaPacked || p->delta_bits == 0 ||
      p->size == 0) {
    return;
  }
  const size_t blocks = (p->size + kDeltaBlock - 1) / kDeltaBlock;
  p->block_last.reserve(blocks);
  // DecodeDeltaBlock(b) only reads block_last[b - 1], which the previous
  // iteration just appended, so the index can bootstrap itself.
  NodeId buf[kDeltaBlock];
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t count = DecodeDeltaBlock(*p, b, buf);
    p->block_last.push_back(buf[count - 1]);
  }
}

bool BitmapChunk::Contains(uint16_t low) const {
  switch (kind) {
    case Kind::kArray:
      return std::binary_search(lows.begin(), lows.end(), low);
    case Kind::kBitmap:
      return (words[low >> 6] >> (low & 63)) & 1;
    case Kind::kRuns: {
      // Find the last run with start <= low. Pairs are (start, len-1).
      size_t lo = 0, hi = lows.size() / 2;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (lows[2 * mid] <= low) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) return false;
      const uint16_t start = lows[2 * (lo - 1)];
      const uint16_t len1 = lows[2 * (lo - 1) + 1];
      return low >= start && static_cast<uint32_t>(low) <= start + len1;
    }
  }
  return false;
}

uint64_t UnpackDelta(const std::vector<uint64_t>& packed, uint8_t bits,
                     size_t index) {
  const size_t bit = index * bits;
  const size_t word = bit >> 6;
  const size_t off = bit & 63;
  uint64_t field = packed[word] >> off;
  if (off + bits > 64) {
    field |= packed[word + 1] << (64 - off);
  }
  return field & ((uint64_t{1} << bits) - 1);
}

}  // namespace extent_internal

Extent Extent::FromSorted(std::vector<NodeId> sorted) {
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  assert(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  switch (GetExtentRepMode()) {
    case ExtentRepMode::kForceSortedVector:
      return FromSortedAs(std::move(sorted), ExtentRep::kSortedVector);
    case ExtentRepMode::kForceDeltaPacked:
      return FromSortedAs(std::move(sorted), ExtentRep::kDeltaPacked);
    case ExtentRepMode::kForceHybridBitmap:
      return FromSortedAs(std::move(sorted), ExtentRep::kHybridBitmap);
    case ExtentRepMode::kAuto:
      break;
  }
  if (sorted.size() <= kSmallExtent) {
    return FromSortedAs(std::move(sorted), ExtentRep::kSortedVector);
  }
  // One statistics pass decides; only the winning representation is ever
  // encoded (the rejected ones are costed from the stats alone).
  const RepStats stats = ComputeRepStats(sorted);
  const uint8_t delta_bits = DeltaBitsFromMax(stats.max_delta);
  const size_t vector_bytes = sorted.size() * sizeof(NodeId);
  const size_t delta_bytes = DeltaPackedBytes(sorted.size(), delta_bits);
  const size_t hybrid_bytes = stats.hybrid_bytes;
  const size_t best = std::min(delta_bytes, hybrid_bytes);
  if (static_cast<double>(best) >= kCompressGain * static_cast<double>(vector_bytes)) {
    return FromSortedAs(std::move(sorted), ExtentRep::kSortedVector);
  }
  if (sorted.size() >= kHotExtent &&
      static_cast<double>(hybrid_bytes) <
          kCompressGain * static_cast<double>(vector_bytes)) {
    return FromSortedAs(std::move(sorted), ExtentRep::kHybridBitmap);
  }
  if (static_cast<double>(hybrid_bytes) <=
      kHybridSlack * static_cast<double>(delta_bytes)) {
    return FromSortedAs(std::move(sorted), ExtentRep::kHybridBitmap);
  }
  return Extent(BuildDeltaPacked(sorted, delta_bits));
}

Extent Extent::FromSortedAs(std::vector<NodeId> sorted, ExtentRep rep) {
  if (sorted.empty()) return Extent();
  switch (rep) {
    case ExtentRep::kSortedVector:
      sorted.shrink_to_fit();
      return Extent(BuildSortedVector(std::move(sorted)));
    case ExtentRep::kDeltaPacked:
      return Extent(BuildDeltaPacked(
          sorted, DeltaBitsFromMax(ComputeRepStats(sorted).max_delta)));
    case ExtentRep::kHybridBitmap:
      return Extent(BuildHybridBitmap(sorted));
  }
  return Extent();
}

Extent Extent::FromPayload(
    std::shared_ptr<const extent_internal::ExtentPayload> payload) {
  if (payload == nullptr || payload->size == 0) return Extent();
  return Extent(std::move(payload));
}

NodeId Extent::front() const {
  assert(!empty());
  switch (payload_->rep) {
    case ExtentRep::kSortedVector:
      return payload_->sorted.front();
    case ExtentRep::kDeltaPacked:
      return payload_->base;
    case ExtentRep::kHybridBitmap: {
      const extent_internal::BitmapChunk& c = payload_->chunks.front();
      const uint32_t high = static_cast<uint32_t>(c.high) << 16;
      switch (c.kind) {
        case extent_internal::BitmapChunk::Kind::kArray:
        case extent_internal::BitmapChunk::Kind::kRuns:
          return high | c.lows.front();
        case extent_internal::BitmapChunk::Kind::kBitmap:
          for (size_t w = 0; w < c.words.size(); ++w) {
            if (c.words[w] != 0) {
              return high |
                     static_cast<uint32_t>(w * 64 + std::countr_zero(c.words[w]));
            }
          }
      }
      break;
    }
  }
  return 0;
}

NodeId Extent::back() const {
  assert(!empty());
  switch (payload_->rep) {
    case ExtentRep::kSortedVector:
      return payload_->sorted.back();
    case ExtentRep::kDeltaPacked:
      if (payload_->delta_bits == 0) return payload_->base + payload_->size - 1;
      return payload_->block_last.back();
    case ExtentRep::kHybridBitmap: {
      const extent_internal::BitmapChunk& c = payload_->chunks.back();
      const uint32_t high = static_cast<uint32_t>(c.high) << 16;
      switch (c.kind) {
        case extent_internal::BitmapChunk::Kind::kArray:
          return high | c.lows.back();
        case extent_internal::BitmapChunk::Kind::kRuns:
          return high | static_cast<uint32_t>(c.lows[c.lows.size() - 2] +
                                              c.lows[c.lows.size() - 1]);
        case extent_internal::BitmapChunk::Kind::kBitmap:
          for (size_t w = c.words.size(); w-- > 0;) {
            if (c.words[w] != 0) {
              return high | static_cast<uint32_t>(
                                w * 64 + 63 - std::countl_zero(c.words[w]));
            }
          }
      }
      break;
    }
  }
  return 0;
}

bool Extent::Contains(NodeId id) const {
  if (payload_ == nullptr) return false;
  switch (payload_->rep) {
    case ExtentRep::kSortedVector:
      return std::binary_search(payload_->sorted.begin(),
                                payload_->sorted.end(), id);
    case ExtentRep::kDeltaPacked: {
      if (id < payload_->base) return false;
      if (payload_->delta_bits == 0) {
        return id < payload_->base + payload_->size;
      }
      // block_last is sorted, so the first block whose last member is >= id
      // is the only block that can contain it.
      const auto& bl = payload_->block_last;
      const size_t block = static_cast<size_t>(
          std::lower_bound(bl.begin(), bl.end(), id) - bl.begin());
      if (block == bl.size()) return false;
      NodeId buf[extent_internal::kDeltaBlock];
      const uint32_t count =
          extent_internal::DecodeDeltaBlock(*payload_, block, buf);
      return std::binary_search(buf, buf + count, id);
    }
    case ExtentRep::kHybridBitmap: {
      const uint16_t high = static_cast<uint16_t>(id >> 16);
      const auto it = std::lower_bound(
          payload_->chunks.begin(), payload_->chunks.end(), high,
          [](const extent_internal::BitmapChunk& c, uint16_t h) {
            return c.high < h;
          });
      if (it == payload_->chunks.end() || it->high != high) return false;
      return it->Contains(static_cast<uint16_t>(id & 0xffff));
    }
  }
  return false;
}

std::vector<NodeId> Extent::Materialize() const {
  std::vector<NodeId> out;
  out.reserve(size());
  AppendTo(&out);
  return out;
}

void Extent::AppendTo(std::vector<NodeId>* out) const {
  if (payload_ == nullptr) return;
  switch (payload_->rep) {
    case ExtentRep::kSortedVector:
      out->insert(out->end(), payload_->sorted.begin(), payload_->sorted.end());
      return;
    case ExtentRep::kDeltaPacked: {
      if (payload_->delta_bits == 0) {
        for (uint32_t i = 0; i < payload_->size; ++i) {
          out->push_back(payload_->base + i);
        }
        return;
      }
      // Blockwise decode straight into the output tail: UnpackFieldsU32 +
      // vectorized prefix sum per block instead of a per-element unpack.
      const size_t tail = out->size();
      out->resize(tail + payload_->size);
      NodeId* dst = out->data() + tail;
      const size_t blocks =
          (payload_->size + extent_internal::kDeltaBlock - 1) /
          extent_internal::kDeltaBlock;
      for (size_t b = 0; b < blocks; ++b) {
        dst += extent_internal::DecodeDeltaBlock(*payload_, b, dst);
      }
      return;
    }
    case ExtentRep::kHybridBitmap:
      for (const extent_internal::BitmapChunk& c : payload_->chunks) {
        const uint32_t high = static_cast<uint32_t>(c.high) << 16;
        switch (c.kind) {
          case extent_internal::BitmapChunk::Kind::kArray:
            for (uint16_t low : c.lows) out->push_back(high | low);
            break;
          case extent_internal::BitmapChunk::Kind::kRuns:
            for (size_t r = 0; r < c.lows.size(); r += 2) {
              const uint32_t start = c.lows[r];
              const uint32_t len = static_cast<uint32_t>(c.lows[r + 1]) + 1;
              for (uint32_t j = 0; j < len; ++j) {
                out->push_back(high | (start + j));
              }
            }
            break;
          case extent_internal::BitmapChunk::Kind::kBitmap:
            for (size_t w = 0; w < c.words.size(); ++w) {
              uint64_t bits = c.words[w];
              while (bits != 0) {
                const int b = std::countr_zero(bits);
                out->push_back(high | static_cast<uint32_t>(w * 64 + b));
                bits &= bits - 1;
              }
            }
            break;
        }
      }
      return;
  }
}

Extent::const_iterator::const_iterator(const extent_internal::ExtentPayload* p,
                                       size_t pos)
    : p_(p), pos_(pos) {
  if (p_ == nullptr || pos_ >= p_->size) {
    pos_ = p_ == nullptr ? 0 : p_->size;
    return;
  }
  // Only begin() constructs a mid-sequence iterator (pos == 0); end() takes
  // the branch above.
  assert(pos_ == 0);
  switch (p_->rep) {
    case ExtentRep::kSortedVector:
      value_ = p_->sorted[0];
      break;
    case ExtentRep::kDeltaPacked:
      value_ = p_->base;
      break;
    case ExtentRep::kHybridBitmap:
      chunk_ = 0;
      LoadChunkCursor();
      break;
  }
}

void Extent::const_iterator::LoadChunkCursor() {
  // Positions the cursor at the first value of chunk_ and loads value_.
  const extent_internal::BitmapChunk& c = p_->chunks[chunk_];
  const uint32_t high = static_cast<uint32_t>(c.high) << 16;
  in_chunk_ = 0;
  switch (c.kind) {
    case extent_internal::BitmapChunk::Kind::kArray:
      value_ = high | c.lows[0];
      break;
    case extent_internal::BitmapChunk::Kind::kRuns:
      run_ = 0;
      run_off_ = 0;
      value_ = high | c.lows[0];
      break;
    case extent_internal::BitmapChunk::Kind::kBitmap:
      word_ = 0;
      while (c.words[word_] == 0) ++word_;
      word_bits_ = c.words[word_];
      value_ = high |
               static_cast<uint32_t>(word_ * 64 + std::countr_zero(word_bits_));
      word_bits_ &= word_bits_ - 1;
      break;
  }
}

void Extent::const_iterator::Advance() {
  ++pos_;
  if (pos_ >= p_->size) {
    pos_ = p_->size;
    return;
  }
  switch (p_->rep) {
    case ExtentRep::kSortedVector:
      value_ = p_->sorted[pos_];
      return;
    case ExtentRep::kDeltaPacked:
      if (p_->delta_bits == 0) {
        ++value_;
      } else {
        value_ += static_cast<NodeId>(extent_internal::UnpackDelta(
                      p_->packed, p_->delta_bits, delta_index_)) +
                  1;
        ++delta_index_;
      }
      return;
    case ExtentRep::kHybridBitmap: {
      const extent_internal::BitmapChunk& c = p_->chunks[chunk_];
      ++in_chunk_;
      if (in_chunk_ >= c.count) {
        ++chunk_;
        LoadChunkCursor();
        return;
      }
      const uint32_t high = static_cast<uint32_t>(c.high) << 16;
      switch (c.kind) {
        case extent_internal::BitmapChunk::Kind::kArray:
          value_ = high | c.lows[in_chunk_];
          return;
        case extent_internal::BitmapChunk::Kind::kRuns:
          if (run_off_ < c.lows[2 * run_ + 1]) {
            ++run_off_;
            ++value_;
          } else {
            ++run_;
            run_off_ = 0;
            value_ = high | c.lows[2 * run_];
          }
          return;
        case extent_internal::BitmapChunk::Kind::kBitmap:
          while (word_bits_ == 0) {
            ++word_;
            word_bits_ = c.words[word_];
          }
          value_ = high |
                   static_cast<uint32_t>(word_ * 64 +
                                         std::countr_zero(word_bits_));
          word_bits_ &= word_bits_ - 1;
          return;
      }
      return;
    }
  }
}

bool Extent::operator==(const Extent& o) const {
  if (payload_ == o.payload_) return true;
  if (size() != o.size()) return false;
  const_iterator a = begin(), b = o.begin();
  for (const const_iterator a_end = end(); a != a_end; ++a, ++b) {
    if (*a != *b) return false;
  }
  return true;
}

bool Extent::operator==(const std::vector<NodeId>& v) const {
  if (size() != v.size()) return false;
  if (const std::vector<NodeId>* mine = AsSortedVector()) return *mine == v;
  size_t i = 0;
  for (NodeId id : *this) {
    if (id != v[i++]) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Extent& extent) {
  os << "Extent<" << ExtentRepName(extent.rep()) << ">{";
  size_t shown = 0;
  for (NodeId id : extent) {
    if (shown == 16) {
      os << ", ...";
      break;
    }
    if (shown > 0) os << ", ";
    os << id;
    ++shown;
  }
  os << "} (" << extent.size() << " elems)";
  return os;
}

}  // namespace mrx
