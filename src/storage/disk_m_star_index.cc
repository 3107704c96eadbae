#include "storage/disk_m_star_index.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "storage/binary_io.h"

namespace mrx::storage {

Result<DiskMStarIndex> DiskMStarIndex::Open(const DataGraph& graph,
                                            const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  // The TOC lives at the front; read a bounded prefix.
  std::string head(4 + 16, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  if (!in) return Status::ParseError("index container too small");
  if (std::string_view(head).substr(0, 4) != "MRX*") {
    return Status::ParseError("not an MRX* index container");
  }
  // Re-read with the full TOC once the component count is known: simplest
  // is to read the fixed-size region (magic + 2 fixed64 + count * 24).
  BinaryReader counter(std::string_view(head).substr(4));
  MRX_ASSIGN_OR_RETURN(uint64_t version, counter.GetFixed64());
  (void)version;  // Validated by ReadMStarToc below.
  MRX_ASSIGN_OR_RETURN(uint64_t count, counter.GetFixed64());
  if (count == 0 || count > 4096) {
    return Status::ParseError("implausible component count " +
                              std::to_string(count));
  }
  const size_t header_size = 4 + 16 + count * 24;
  std::string header_bytes(header_size, '\0');
  in.seekg(0);
  in.read(header_bytes.data(), static_cast<std::streamsize>(header_size));
  if (!in) return Status::ParseError("index container truncated (TOC)");
  // ReadMStarToc bounds-checks offsets against the view we hand it, so
  // extend the view to the real file size.
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  MRX_ASSIGN_OR_RETURN(MStarFileToc toc,
                       ReadMStarToc(header_bytes, file_size));
  if (toc.components.empty()) {
    return Status::ParseError("index container has no components");
  }
  return DiskMStarIndex(graph, path, std::move(toc));
}

Status DiskMStarIndex::EnsureLoaded(size_t i) {
  if (cache_[i].has_value()) return Status::Ok();
  const MStarFileToc::Entry& entry = toc_.components[i];
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path_);
  std::string blob(entry.length, '\0');
  in.seekg(static_cast<std::streamoff>(entry.offset));
  in.read(blob.data(), static_cast<std::streamsize>(entry.length));
  if (!in) return Status::ParseError("component blob truncated");
  if (Checksum(blob) != entry.checksum) {
    return Status::ParseError("component blob checksum mismatch");
  }
  MRX_ASSIGN_OR_RETURN(MStarComponentSpec spec,
                       DecodeComponentBlob(blob, toc_.version));

  std::vector<uint32_t> block_of(graph_.num_nodes(),
                                 static_cast<uint32_t>(-1));
  for (uint32_t b = 0; b < spec.extents.size(); ++b) {
    for (NodeId o : spec.extents[b]) {
      if (o >= graph_.num_nodes() ||
          block_of[o] != static_cast<uint32_t>(-1)) {
        return Status::ParseError("component extents are not a partition");
      }
      block_of[o] = b;
    }
  }
  for (uint32_t b : block_of) {
    if (b == static_cast<uint32_t>(-1)) {
      return Status::ParseError("component extents do not cover the graph");
    }
  }
  // FromPartition numbers nodes by block ordinal, so the blob's supernode
  // ordinals are node ids in the previous component directly.
  cache_[i] = MStarComponent{
      IndexGraph::FromPartition(graph_, block_of,
                                static_cast<uint32_t>(spec.extents.size()),
                                spec.ks),
      std::move(spec.supernodes)};
  ++loaded_count_;
  bytes_read_ += entry.length;
  return Status::Ok();
}

Status DiskMStarIndex::LinkSubnodes(size_t i) {
  MStarComponent& comp = *cache_[i];
  if (!comp.sub_begin.empty()) return Status::Ok();
  const size_t prev_capacity = component(i - 1).capacity();
  for (IndexNodeId u : comp.supernode) {
    if (u >= prev_capacity) {
      return Status::ParseError("supernode ordinal out of range");
    }
  }
  comp.BuildSubnodes(prev_capacity);
  return Status::Ok();
}

Result<QueryResult> DiskMStarIndex::QueryNaive(const PathExpression& path) {
  const size_t ci = std::min(path.length(), num_components() - 1);
  MRX_RETURN_IF_ERROR(EnsureLoaded(ci));
  return AnswerOnIndex(component(ci), path, &evaluator_);
}

Result<QueryResult> DiskMStarIndex::QueryTopDown(
    const PathExpression& path) {
  if (path.HasDescendantAxis()) return QueryNaive(path);
  QueryResult result;
  const size_t finest = num_components() - 1;

  MRX_RETURN_IF_ERROR(EnsureLoaded(0));
  std::vector<IndexNodeId> q;
  {
    const IndexGraph& c0 = component(0);
    if (path.anchored()) {
      IndexNodeId root_node = c0.index_of(graph_.root());
      if (path.StepMatches(0, c0.node(root_node).label)) {
        q.push_back(root_node);
      }
    } else {
      for (IndexNodeId v = 0; v < c0.capacity(); ++v) {
        if (c0.alive(v) && path.StepMatches(0, c0.node(v).label)) {
          q.push_back(v);
        }
      }
    }
    result.stats.index_nodes_visited += q.size();
  }

  size_t current = 0;
  for (size_t step = 1; step < path.num_steps() && !q.empty(); ++step) {
    const size_t ci = std::min(step, finest);
    MRX_RETURN_IF_ERROR(EnsureLoaded(ci));
    const IndexGraph& comp = component(ci);

    std::vector<IndexNodeId> s;
    if (ci != current) {
      // QUERYTOPDOWN line 3: descend to the subnodes in the next component.
      // Each node has one supernode, so the lists are disjoint.
      MRX_RETURN_IF_ERROR(LinkSubnodes(ci));
      for (IndexNodeId u : q) {
        const std::span<const IndexNodeId> subs = cache_[ci]->subnodes(u);
        s.insert(s.end(), subs.begin(), subs.end());
      }
      result.stats.index_nodes_visited += s.size();
      current = ci;
    } else {
      s = std::move(q);
    }

    q = ChildStep(comp, s, path, step);
    result.stats.index_nodes_visited += q.size();
  }

  std::sort(q.begin(), q.end());
  result.target = std::move(q);
  AssembleAnswer(component(current), path, &evaluator_, &result);
  return result;
}

}  // namespace mrx::storage
