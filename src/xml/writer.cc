#include "xml/writer.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace mrx::xml {

Result<std::string> WriteGraphAsXml(const DataGraph& graph,
                                    const XmlWriteOptions& options) {
  const size_t n = graph.num_nodes();

  // Verify the containment (regular-edge) structure is a tree rooted at
  // graph.root(), and collect per-node reference targets.
  std::vector<uint32_t> regular_in_degree(n, 0);
  std::vector<std::vector<NodeId>> ref_targets(n);
  std::vector<char> referenced(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    auto kids = graph.children(u);
    auto kinds = graph.child_kinds(u);
    for (size_t i = 0; i < kids.size(); ++i) {
      if (kinds[i] == EdgeKind::kRegular) {
        ++regular_in_degree[kids[i]];
      } else {
        ref_targets[u].push_back(kids[i]);
        referenced[kids[i]] = 1;
      }
    }
  }
  if (regular_in_degree[graph.root()] != 0) {
    return Status::FailedPrecondition(
        "root has an incoming containment edge");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v == graph.root()) continue;
    if (regular_in_degree[v] != 1) {
      return Status::FailedPrecondition(
          "containment edges do not form a tree (node " +
          std::to_string(v) + " has " +
          std::to_string(regular_in_degree[v]) + " parents)");
    }
  }

  std::string out = "<?xml version=\"1.0\"?>\n";

  // Iterative DFS: entries are (node, depth, closing?) — a closing entry
  // emits the end tag.
  struct Frame {
    NodeId node;
    uint32_t depth;
    bool closing;
  };
  std::vector<Frame> stack = {{graph.root(), 0, false}};
  std::vector<char> visited(n, 0);

  auto emit_indent = [&](uint32_t depth) {
    if (options.indent) {
      out.append(2 * static_cast<size_t>(std::min(depth, kMaxIndentDepth)),
                 ' ');
    }
  };

  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.closing) {
      emit_indent(frame.depth);
      out += "</";
      out += graph.label_name(frame.node);
      out += ">";
      if (options.indent) out += "\n";
      continue;
    }
    if (visited[frame.node]) {
      return Status::FailedPrecondition(
          "containment edges contain a cycle");
    }
    visited[frame.node] = 1;

    emit_indent(frame.depth);
    out += "<";
    out += graph.label_name(frame.node);
    if (referenced[frame.node]) {
      out += " " + options.id_attribute + "=\"n" +
             std::to_string(frame.node) + "\"";
    }
    for (size_t i = 0; i < ref_targets[frame.node].size(); ++i) {
      out += " " + options.ref_attribute;
      if (i > 0) out += std::to_string(i + 1);
      out += "=\"n" + std::to_string(ref_targets[frame.node][i]) + "\"";
    }

    // Regular children, in ascending id order (= document order for
    // graphs that came from XML).
    std::vector<NodeId> kids;
    {
      auto children = graph.children(frame.node);
      auto kinds = graph.child_kinds(frame.node);
      for (size_t i = 0; i < children.size(); ++i) {
        if (kinds[i] == EdgeKind::kRegular) kids.push_back(children[i]);
      }
    }
    if (kids.empty()) {
      out += "/>";
      if (options.indent) out += "\n";
      continue;
    }
    out += ">";
    if (options.indent) out += "\n";
    stack.push_back({frame.node, frame.depth, true});
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, frame.depth + 1, false});
    }
  }
  return out;
}

}  // namespace mrx::xml
