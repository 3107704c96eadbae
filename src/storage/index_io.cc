#include "storage/index_io.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "storage/binary_io.h"

namespace mrx::storage {
namespace {

constexpr std::string_view kMagic = "MRX*";

/// A TOC entry is three fixed64 fields: offset, length, checksum.
constexpr uint64_t kTocEntryBytes = 24;

/// Node id → ordinal (position among alive nodes) for one component.
std::unordered_map<IndexNodeId, uint32_t> OrdinalMap(const IndexGraph& g) {
  std::unordered_map<IndexNodeId, uint32_t> out;
  uint32_t ordinal = 0;
  for (IndexNodeId v : g.AliveNodes()) out.emplace(v, ordinal++);
  return out;
}

/// Extent record: member count, then the members as ascending varint
/// deltas (the first one from 0).
void EncodeExtent(const Extent& extent, BinaryWriter* blob) {
  blob->PutVarint(extent.size());
  NodeId prev = 0;
  for (NodeId o : extent) {
    blob->PutVarint(o - prev);
    prev = o;
  }
}

/// Decodes an extent record. The blob checksum is FNV and a forger can
/// recompute it, so every field is checked: the count against the bytes
/// left (each delta takes at least one), strictly ascending members, and
/// ids inside the 32-bit NodeId range.
Result<Extent> DecodeExtent(BinaryReader* reader) {
  MRX_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
  if (count > reader->Remaining()) {
    return Status::ParseError("extent member count " + std::to_string(count) +
                              " exceeds the blob");
  }
  std::vector<NodeId> ids;
  ids.reserve(count);
  uint64_t id = 0;
  for (uint64_t i = 0; i < count; ++i) {
    MRX_ASSIGN_OR_RETURN(uint64_t delta, reader->GetVarint());
    if (i > 0 && delta == 0) {
      return Status::ParseError("extent members are not strictly ascending");
    }
    if (delta > std::numeric_limits<NodeId>::max() - id) {
      return Status::ParseError("extent member id out of range");
    }
    id += delta;
    ids.push_back(static_cast<NodeId>(id));
  }
  return Extent::FromSorted(std::move(ids));
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
    EncodeExtent(node.extent, &blob);
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
  // Each node record takes at least two bytes (k and a member count).
  if (num_nodes > reader.Remaining() / 2) {
    return Status::ParseError("component node count " +
                              std::to_string(num_nodes) + " exceeds the blob");
  }
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
    MRX_ASSIGN_OR_RETURN(Extent extent, DecodeExtent(&reader));
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
  uint64_t offset = header.size() + blobs.size() * kTocEntryBytes;
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
  if (count > reader.Remaining() / kTocEntryBytes) {
    return Status::ParseError("index container TOC count " +
                              std::to_string(count) + " exceeds the header");
  }
  MStarFileToc toc;
  toc.version = version;
  toc.components.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MStarFileToc::Entry entry;
    MRX_ASSIGN_OR_RETURN(entry.offset, reader.GetFixed64());
    MRX_ASSIGN_OR_RETURN(entry.length, reader.GetFixed64());
    MRX_ASSIGN_OR_RETURN(entry.checksum, reader.GetFixed64());
    if (entry.offset > total_size ||
        entry.length > total_size - entry.offset) {
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
