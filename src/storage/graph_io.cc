#include "storage/graph_io.h"

#include <fstream>
#include <sstream>

#include "storage/binary_io.h"

namespace mrx::storage {
namespace {

constexpr std::string_view kMagic = "MRXG";
/// Version 2 checksums with the standard FNV-1a offset basis; version 1
/// used a basis one digit short and is no longer read.
constexpr uint64_t kVersion = 2;

}  // namespace

std::string SerializeDataGraph(const DataGraph& graph) {
  BinaryWriter body;
  body.PutVarint(kVersion);

  // Label table, in id order.
  body.PutVarint(graph.symbols().size());
  for (LabelId l = 0; l < graph.symbols().size(); ++l) {
    body.PutString(graph.symbols().Name(l));
  }

  // Nodes.
  body.PutVarint(graph.num_nodes());
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    body.PutVarint(graph.label(n));
  }
  body.PutVarint(graph.root());

  // Adjacency: per node, delta-encoded sorted child list with kinds.
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    auto kids = graph.children(n);
    auto kinds = graph.child_kinds(n);
    body.PutVarint(kids.size());
    NodeId prev = 0;
    for (size_t i = 0; i < kids.size(); ++i) {
      body.PutVarint(kids[i] - prev);
      prev = kids[i];
      body.PutVarint(static_cast<uint64_t>(kinds[i]));
    }
  }

  BinaryWriter out;
  out.PutRaw(kMagic);
  out.PutVarint(body.size());
  out.PutFixed64(Checksum(body.buffer()));
  out.PutRaw(body.buffer());
  return out.TakeBuffer();
}

Result<DataGraph> DeserializeDataGraph(std::string_view bytes) {
  if (bytes.substr(0, kMagic.size()) != kMagic) {
    return Status::ParseError("not an MRXG data-graph blob");
  }
  BinaryReader header(bytes.substr(kMagic.size()));
  MRX_ASSIGN_OR_RETURN(uint64_t body_size, header.GetVarint());
  MRX_ASSIGN_OR_RETURN(uint64_t checksum, header.GetFixed64());
  std::string_view body_bytes =
      bytes.substr(kMagic.size() + header.pos());
  if (body_bytes.size() != body_size) {
    return Status::ParseError("data-graph blob truncated");
  }
  // The version is read before the checksum is checked: an older version
  // checksums differently, and is reported as what it is.
  BinaryReader body(body_bytes);
  MRX_ASSIGN_OR_RETURN(uint64_t version, body.GetVarint());
  if (version != kVersion) {
    return Status::ParseError("unsupported data-graph version " +
                              std::to_string(version));
  }
  if (Checksum(body_bytes) != checksum) {
    return Status::ParseError("data-graph blob checksum mismatch");
  }

  DataGraphBuilder builder;
  MRX_ASSIGN_OR_RETURN(uint64_t num_labels, body.GetVarint());
  for (uint64_t l = 0; l < num_labels; ++l) {
    MRX_ASSIGN_OR_RETURN(std::string name, body.GetString());
    builder.symbols().Intern(name);
  }

  MRX_ASSIGN_OR_RETURN(uint64_t num_nodes, body.GetVarint());
  for (uint64_t n = 0; n < num_nodes; ++n) {
    MRX_ASSIGN_OR_RETURN(uint64_t label, body.GetVarint());
    if (label >= num_labels) {
      return Status::ParseError("node label out of range");
    }
    builder.AddNodeWithLabelId(static_cast<LabelId>(label));
  }
  MRX_ASSIGN_OR_RETURN(uint64_t root, body.GetVarint());
  builder.SetRoot(static_cast<NodeId>(root));

  for (uint64_t n = 0; n < num_nodes; ++n) {
    MRX_ASSIGN_OR_RETURN(uint64_t degree, body.GetVarint());
    NodeId prev = 0;
    for (uint64_t i = 0; i < degree; ++i) {
      MRX_ASSIGN_OR_RETURN(uint64_t delta, body.GetVarint());
      MRX_ASSIGN_OR_RETURN(uint64_t kind, body.GetVarint());
      if (kind > 1) return Status::ParseError("bad edge kind");
      NodeId target = prev + static_cast<NodeId>(delta);
      prev = target;
      builder.AddEdge(static_cast<NodeId>(n), target,
                      static_cast<EdgeKind>(kind));
    }
  }
  return std::move(builder).Build();
}

Status SaveDataGraphToFile(const DataGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  std::string blob = SerializeDataGraph(graph);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<DataGraph> LoadDataGraphFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  return DeserializeDataGraph(bytes);
}

}  // namespace mrx::storage
