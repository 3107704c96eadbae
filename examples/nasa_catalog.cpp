// Scenario: the NASA astronomical catalog. Builds every index the paper
// discusses over the same dataset and prints a side-by-side comparison of
// size and query cost for a small set of catalog queries — a condensed
// version of the paper's §5 experiments that runs in a second.
//
// Build & run:   ./build/examples/nasa_catalog [scale]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "datagen/nasa.h"
#include "index/a_k_index.h"
#include "index/d_k_index.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "query/path_expression.h"
#include "util/table_writer.h"
#include "xml/graph_builder.h"

int main(int argc, char** argv) {
  using namespace mrx;
  double scale = argc > 1 ? std::atof(argv[1]) : 0.2;

  Result<std::string> doc = datagen::GenerateNasaDocument(scale, /*seed=*/11);
  if (!doc.ok()) {
    std::cerr << doc.status() << "\n";
    return 1;
  }
  Result<DataGraph> graph = xml::BuildGraphFromXml(*doc);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "NASA catalog: " << graph->num_nodes() << " nodes, "
            << graph->num_edges() << " edges ("
            << graph->num_reference_edges() << " references)\n\n";

  std::vector<PathExpression> queries;
  for (const char* text : {
           "//dataset/title",
           "//reference/source/journal/author/lastname",
           "//tableHead/fields/field/name",
           "//history/revisions/revision/author",
           "//dataset/descriptions/description/para/footnote",
           "//tableLinks/tableLink/dataset/title",
           "//keywords/keyword",
       }) {
    auto p = PathExpression::Parse(text, graph->symbols());
    if (p.ok()) queries.push_back(std::move(p).value());
  }

  TableWriter table({"index", "nodes", "edges", "avg_cost", "precise"});
  auto measure = [&](const std::string& name, auto& index,
                     const IndexGraph& ig) {
    uint64_t cost = 0;
    size_t precise = 0;
    for (const PathExpression& q : queries) {
      QueryResult r = index.Query(q);
      cost += r.stats.total();
      precise += r.precise ? 1 : 0;
    }
    table.AddRowValues(name, ig.num_nodes(), ig.num_edges(),
                       static_cast<double>(cost) / queries.size(),
                       std::to_string(precise) + "/" +
                           std::to_string(queries.size()));
  };

  for (int k : {0, 2, 5}) {
    AkIndex ak(*graph, k);
    measure("A(" + std::to_string(k) + ")", ak, ak.graph());
  }
  {
    OneIndex one(*graph);
    measure("1-index", one, one.graph());
  }
  {
    DkIndex dk = DkIndex::Construct(*graph, queries);
    measure("D(k)-construct", dk, dk.graph());
  }
  {
    DkIndex dk(*graph);
    for (const PathExpression& q : queries) dk.Promote(q);
    measure("D(k)-promote", dk, dk.graph());
  }
  {
    MkIndex mk(*graph);
    for (const PathExpression& q : queries) mk.Refine(q);
    measure("M(k)", mk, mk.graph());
  }
  {
    MStarIndex mstar(*graph);
    DataEvaluator eval(*graph);
    for (const PathExpression& q : queries) mstar.Refine(q);
    uint64_t cost = 0;
    size_t precise = 0;
    for (const PathExpression& q : queries) {
      QueryResult r = mstar.QueryTopDown(q, &eval);
      cost += r.stats.total();
      precise += r.precise ? 1 : 0;
    }
    table.AddRowValues("M*(k) top-down", mstar.PhysicalNodeCount(),
                       mstar.PhysicalEdgeCount(),
                       static_cast<double>(cost) / queries.size(),
                       std::to_string(precise) + "/" +
                           std::to_string(queries.size()));
  }

  table.RenderText(std::cout);
  std::cout << "\nAdaptive indexes were refined with the seven catalog\n"
               "queries as FUPs; the A(k) family answers them through\n"
               "validation instead.\n";
  return 0;
}
