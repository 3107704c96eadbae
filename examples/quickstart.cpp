// Quickstart: parse an XML document into the data-graph model, build the
// adaptive M*(k)-index, answer a few path expression queries, and refine
// the index for a frequently used path expression (FUP).
//
// Build & run:   ./build/examples/quickstart

#include <iostream>

#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "query/path_expression.h"
#include "xml/graph_builder.h"

int main() {
  using namespace mrx;

  // A small auction document in the spirit of the paper's Figure 1. The
  // `person` attributes are ID references: the graph loader turns them
  // into reference edges (dashed edges of the figure).
  const char* document = R"xml(
    <site>
      <people>
        <person id="p0"><name>Ada</name></person>
        <person id="p1"><name>Grace</name></person>
      </people>
      <open_auctions>
        <open_auction id="a0">
          <seller person="p0"/>
          <bidder><personref person="p1"/></bidder>
        </open_auction>
        <open_auction id="a1">
          <seller person="p1"/>
        </open_auction>
      </open_auctions>
    </site>
  )xml";

  Result<DataGraph> graph = xml::BuildGraphFromXml(document);
  if (!graph.ok()) {
    std::cerr << "parse failed: " << graph.status() << "\n";
    return 1;
  }
  std::cout << "loaded " << graph->num_nodes() << " element nodes, "
            << graph->num_edges() << " edges ("
            << graph->num_reference_edges() << " references)\n";

  // Build the index: starts as a single coarse component (A(0)). Answers
  // the index cannot certify are validated through a caller-owned
  // evaluator.
  MStarIndex index(*graph);
  DataEvaluator eval(*graph);

  auto run = [&](const char* text) {
    auto query = PathExpression::Parse(text, graph->symbols());
    if (!query.ok()) {
      std::cerr << "bad query: " << query.status() << "\n";
      return;
    }
    QueryResult result = index.QueryTopDown(*query, &eval);
    std::cout << text << " -> {";
    for (size_t i = 0; i < result.answer.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << result.answer[i] << ":"
                << graph->label_name(result.answer[i]);
    }
    std::cout << "}  cost=" << result.stats.total()
              << (result.precise ? " (precise)" : " (validated)") << "\n";
  };

  const char* fup = "//open_auction/seller/person";
  std::cout << "\nbefore refinement:\n";
  run(fup);
  run("//bidder/personref/person");

  // The workload says seller lookups are frequent: refine for them. The
  // index gains components I1, I2 and becomes precise for the FUP.
  index.Refine(*PathExpression::Parse(fup, graph->symbols()));
  std::cout << "\nafter Refine(" << fup << "):  components="
            << index.num_components()
            << ", physical nodes=" << index.PhysicalNodeCount() << "\n";
  run(fup);
  run("//bidder/personref/person");
  return 0;
}
