#include "storage/index_io.h"

#include <bit>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "storage/binary_io.h"

namespace mrx::storage {
namespace {

constexpr std::string_view kMagic = "MRX*";

/// Node id → ordinal (position among alive nodes) for one component.
std::unordered_map<IndexNodeId, uint32_t> OrdinalMap(const IndexGraph& g) {
  std::unordered_map<IndexNodeId, uint32_t> out;
  uint32_t ordinal = 0;
  for (IndexNodeId v : g.AliveNodes()) out.emplace(v, ordinal++);
  return out;
}

/// Body of a kSortedVector extent record: member count then ascending
/// varint deltas.
void EncodeSortedDeltas(const Extent& extent, BinaryWriter* blob) {
  blob->PutVarint(extent.size());
  NodeId prev = 0;
  for (NodeId o : extent) {
    blob->PutVarint(o - prev);
    prev = o;
  }
}

/// Version-2 extent record: one representation tag byte, then the payload
/// of that representation verbatim — a compressed index round-trips to
/// disk without decompressing.
void EncodeExtentV2(const Extent& extent, BinaryWriter* blob) {
  using extent_internal::BitmapChunk;
  blob->PutVarint(static_cast<uint64_t>(extent.rep()));
  switch (extent.rep()) {
    case ExtentRep::kSortedVector:
      EncodeSortedDeltas(extent, blob);
      return;
    case ExtentRep::kDeltaPacked: {
      const auto* p = extent.payload();
      blob->PutVarint(extent.size());
      blob->PutVarint(p->base);
      blob->PutVarint(p->delta_bits);
      blob->PutVarint(p->packed.size());
      for (uint64_t word : p->packed) blob->PutFixed64(word);
      return;
    }
    case ExtentRep::kHybridBitmap: {
      const auto* p = extent.payload();
      blob->PutVarint(extent.size());
      blob->PutVarint(p->chunks.size());
      for (const BitmapChunk& chunk : p->chunks) {
        blob->PutVarint(chunk.high);
        blob->PutVarint(static_cast<uint64_t>(chunk.kind));
        blob->PutVarint(chunk.count);
        if (chunk.kind == BitmapChunk::Kind::kBitmap) {
          for (uint64_t word : chunk.words) blob->PutFixed64(word);
        } else {
          blob->PutVarint(chunk.lows.size());
          for (uint16_t low : chunk.lows) blob->PutFixed16(low);
        }
      }
      return;
    }
  }
}

Result<Extent> DecodeSortedDeltas(BinaryReader* reader) {
  MRX_ASSIGN_OR_RETURN(uint64_t extent_size, reader->GetVarint());
  std::vector<NodeId> extent;
  extent.reserve(extent_size);
  NodeId prev = 0;
  for (uint64_t i = 0; i < extent_size; ++i) {
    MRX_ASSIGN_OR_RETURN(uint64_t delta, reader->GetVarint());
    prev += static_cast<NodeId>(delta);
    extent.push_back(prev);
  }
  // Normalized under the current representation mode — loading a
  // vector-rep extent upgrades it like a fresh build would.
  return Extent::FromSorted(std::move(extent));
}

Result<Extent> DecodeExtentV2(BinaryReader* reader) {
  using extent_internal::BitmapChunk;
  using extent_internal::ExtentPayload;
  MRX_ASSIGN_OR_RETURN(uint64_t rep_tag, reader->GetVarint());
  switch (static_cast<ExtentRep>(rep_tag)) {
    case ExtentRep::kSortedVector:
      return DecodeSortedDeltas(reader);
    case ExtentRep::kDeltaPacked: {
      auto p = std::make_shared<ExtentPayload>();
      p->rep = ExtentRep::kDeltaPacked;
      MRX_ASSIGN_OR_RETURN(uint64_t size, reader->GetVarint());
      p->size = static_cast<uint32_t>(size);
      MRX_ASSIGN_OR_RETURN(uint64_t base, reader->GetVarint());
      p->base = static_cast<NodeId>(base);
      MRX_ASSIGN_OR_RETURN(uint64_t bits, reader->GetVarint());
      if (bits > 32) return Status::ParseError("extent delta width > 32");
      p->delta_bits = static_cast<uint8_t>(bits);
      MRX_ASSIGN_OR_RETURN(uint64_t words, reader->GetVarint());
      const uint64_t needed =
          p->size <= 1 ? 0 : ((p->size - 1) * bits + 63) / 64;
      if (words != needed) {
        return Status::ParseError("extent packed-word count mismatch");
      }
      p->packed.reserve(words);
      for (uint64_t w = 0; w < words; ++w) {
        MRX_ASSIGN_OR_RETURN(uint64_t word, reader->GetFixed64());
        p->packed.push_back(word);
      }
      // The block skip index is derived, not serialized.
      extent_internal::FinalizeDeltaPayload(p.get());
      return Extent::FromPayload(std::move(p));
    }
    case ExtentRep::kHybridBitmap: {
      auto p = std::make_shared<ExtentPayload>();
      p->rep = ExtentRep::kHybridBitmap;
      MRX_ASSIGN_OR_RETURN(uint64_t size, reader->GetVarint());
      p->size = static_cast<uint32_t>(size);
      MRX_ASSIGN_OR_RETURN(uint64_t num_chunks, reader->GetVarint());
      uint64_t total = 0;
      for (uint64_t c = 0; c < num_chunks; ++c) {
        BitmapChunk chunk;
        MRX_ASSIGN_OR_RETURN(uint64_t high, reader->GetVarint());
        chunk.high = static_cast<uint16_t>(high);
        MRX_ASSIGN_OR_RETURN(uint64_t kind, reader->GetVarint());
        if (kind > 2) return Status::ParseError("bad extent chunk kind");
        chunk.kind = static_cast<BitmapChunk::Kind>(kind);
        MRX_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
        chunk.count = static_cast<uint32_t>(count);
        if (chunk.kind == BitmapChunk::Kind::kBitmap) {
          chunk.words.reserve(1024);
          uint64_t popcount = 0;
          for (size_t w = 0; w < 1024; ++w) {
            MRX_ASSIGN_OR_RETURN(uint64_t word, reader->GetFixed64());
            popcount += static_cast<uint64_t>(std::popcount(word));
            chunk.words.push_back(word);
          }
          if (popcount != chunk.count) {
            return Status::ParseError("extent bitmap popcount mismatch");
          }
        } else {
          MRX_ASSIGN_OR_RETURN(uint64_t lows, reader->GetVarint());
          chunk.lows.reserve(lows);
          for (uint64_t l = 0; l < lows; ++l) {
            MRX_ASSIGN_OR_RETURN(uint16_t low, reader->GetFixed16());
            chunk.lows.push_back(low);
          }
          if (chunk.kind == BitmapChunk::Kind::kArray) {
            if (chunk.lows.size() != chunk.count) {
              return Status::ParseError("extent array length mismatch");
            }
          } else {
            if (chunk.lows.size() % 2 != 0) {
              return Status::ParseError("extent run list has odd length");
            }
            uint64_t run_total = 0;
            for (size_t r = 1; r < chunk.lows.size(); r += 2) {
              run_total += static_cast<uint64_t>(chunk.lows[r]) + 1;
            }
            if (run_total != chunk.count) {
              return Status::ParseError("extent run lengths mismatch");
            }
          }
        }
        total += chunk.count;
        p->chunks.push_back(std::move(chunk));
      }
      if (total != p->size) {
        return Status::ParseError("extent chunk counts mismatch");
      }
      return Extent::FromPayload(std::move(p));
    }
    default:
      return Status::ParseError("unknown extent representation tag " +
                                std::to_string(rep_tag));
  }
}

}  // namespace

std::string EncodeComponentBlob(const MStarIndex& index, size_t component) {
  const IndexGraph& graph = index.component(component);
  std::unordered_map<IndexNodeId, uint32_t> prev_ordinals;
  if (component > 0) {
    prev_ordinals = OrdinalMap(index.component(component - 1));
  }

  BinaryWriter blob;
  blob.PutVarint(component);
  blob.PutVarint(graph.num_nodes());
  for (IndexNodeId v : graph.AliveNodes()) {
    const IndexGraph::Node& node = graph.node(v);
    blob.PutSignedVarint(node.k);
    if (component > 0) {
      blob.PutVarint(prev_ordinals.at(index.supernode(component, v)));
    }
    EncodeExtentV2(node.extent, &blob);
  }
  return blob.TakeBuffer();
}

Result<MStarComponentSpec> DecodeComponentBlob(std::string_view blob,
                                               uint64_t version) {
  if (version < kMStarOldestSupportedVersion ||
      version > kMStarFormatVersion) {
    return Status::ParseError("unsupported index container version " +
                              std::to_string(version));
  }
  BinaryReader reader(blob);
  MRX_ASSIGN_OR_RETURN(uint64_t component, reader.GetVarint());
  MRX_ASSIGN_OR_RETURN(uint64_t num_nodes, reader.GetVarint());
  MStarComponentSpec spec;
  spec.extents.reserve(num_nodes);
  spec.ks.reserve(num_nodes);
  for (uint64_t n = 0; n < num_nodes; ++n) {
    MRX_ASSIGN_OR_RETURN(int64_t k, reader.GetSignedVarint());
    spec.ks.push_back(static_cast<int32_t>(k));
    if (component > 0) {
      MRX_ASSIGN_OR_RETURN(uint64_t sup, reader.GetVarint());
      spec.supernodes.push_back(static_cast<uint32_t>(sup));
    }
    MRX_ASSIGN_OR_RETURN(Extent extent, DecodeExtentV2(&reader));
    spec.extents.push_back(std::move(extent));
  }
  if (component == 0) {
    spec.supernodes.assign(spec.extents.size(), 0);
  }
  return spec;
}

std::string SerializeMStarIndex(const MStarIndex& index) {
  std::vector<std::string> blobs;
  blobs.reserve(index.num_components());
  for (size_t i = 0; i < index.num_components(); ++i) {
    blobs.push_back(EncodeComponentBlob(index, i));
  }

  // Header: magic, version, component count, then the TOC with fixed-size
  // entries so offsets are computable before writing.
  BinaryWriter header;
  header.PutRaw(kMagic);
  header.PutFixed64(kMStarFormatVersion);
  header.PutFixed64(blobs.size());
  uint64_t offset = header.size() + blobs.size() * 24;  // 3 fixed64 each
  BinaryWriter toc;
  for (const std::string& blob : blobs) {
    toc.PutFixed64(offset);
    toc.PutFixed64(blob.size());
    toc.PutFixed64(Checksum(blob));
    offset += blob.size();
  }

  std::string out = header.TakeBuffer();
  out += toc.buffer();
  for (const std::string& blob : blobs) out += blob;
  return out;
}

Result<MStarFileToc> ReadMStarToc(std::string_view bytes,
                                  uint64_t total_size) {
  if (bytes.substr(0, kMagic.size()) != kMagic) {
    return Status::ParseError("not an MRX* index container");
  }
  BinaryReader reader(bytes.substr(kMagic.size()));
  MRX_ASSIGN_OR_RETURN(uint64_t version, reader.GetFixed64());
  if (version < kMStarOldestSupportedVersion ||
      version > kMStarFormatVersion) {
    return Status::ParseError("unsupported index container version " +
                              std::to_string(version));
  }
  MRX_ASSIGN_OR_RETURN(uint64_t count, reader.GetFixed64());
  MStarFileToc toc;
  toc.version = version;
  toc.components.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MStarFileToc::Entry entry;
    MRX_ASSIGN_OR_RETURN(entry.offset, reader.GetFixed64());
    MRX_ASSIGN_OR_RETURN(entry.length, reader.GetFixed64());
    MRX_ASSIGN_OR_RETURN(entry.checksum, reader.GetFixed64());
    if (entry.offset + entry.length > total_size) {
      return Status::ParseError("index container TOC out of bounds");
    }
    toc.components.push_back(entry);
  }
  return toc;
}

Result<MStarIndex> DeserializeMStarIndex(const DataGraph& graph,
                                         std::string_view bytes) {
  MRX_ASSIGN_OR_RETURN(MStarFileToc toc, ReadMStarToc(bytes));
  std::vector<MStarComponentSpec> specs;
  specs.reserve(toc.components.size());
  for (const auto& entry : toc.components) {
    std::string_view blob = bytes.substr(entry.offset, entry.length);
    if (Checksum(blob) != entry.checksum) {
      return Status::ParseError("index component checksum mismatch");
    }
    MRX_ASSIGN_OR_RETURN(MStarComponentSpec spec,
                         DecodeComponentBlob(blob, toc.version));
    specs.push_back(std::move(spec));
  }
  return MStarIndex::FromComponents(graph, specs);
}

Status SaveMStarIndexToFile(const MStarIndex& index,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  std::string bytes = SerializeMStarIndex(index);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<MStarIndex> LoadMStarIndexFromFile(const DataGraph& graph,
                                          const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  return DeserializeMStarIndex(graph, bytes);
}

}  // namespace mrx::storage
