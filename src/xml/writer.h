#ifndef MRX_XML_WRITER_H_
#define MRX_XML_WRITER_H_

#include <cstdint>
#include <string>

#include "graph/data_graph.h"
#include "util/result.h"

namespace mrx::xml {

/// Nesting depth past which WriteGraphAsXml indents no further.
inline constexpr uint32_t kMaxIndentDepth = 32;

/// Options for WriteGraphAsXml.
struct XmlWriteOptions {
  /// Attribute name used for generated element IDs.
  std::string id_attribute = "id";

  /// Attribute name used for reference edges.
  std::string ref_attribute = "ref";

  /// Pretty-print with two-space indentation. Indentation stops growing
  /// at kMaxIndentDepth levels, so the output stays linear in the number
  /// of nodes however deep the document nests.
  bool indent = true;
};

/// \brief Serializes a data graph back into an XML document.
///
/// The regular (containment) edges must form a tree over the nodes rooted
/// at graph.root() — which holds for every graph produced by
/// BuildGraphFromXml — otherwise the call fails with FailedPrecondition.
/// Reference edges become `ref` attributes pointing at generated `id`
/// attributes (nodes with several outgoing references get ref, ref2, ...).
/// Feeding the output back through BuildGraphFromXml (with the matching
/// id attribute) reproduces the graph exactly: same node ids (document
/// order), labels, and edge set.
Result<std::string> WriteGraphAsXml(const DataGraph& graph,
                                    const XmlWriteOptions& options = {});

}  // namespace mrx::xml

#endif  // MRX_XML_WRITER_H_
