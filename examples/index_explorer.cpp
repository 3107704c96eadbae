// Command-line index explorer: load any XML file, build an adaptive
// M*(k)-index over it, and answer path expression queries interactively.
// Queries marked frequent (prefixed with '!') refine the index.
//
//   ./build/examples/index_explorer file.xml            # interactive
//   ./build/examples/index_explorer file.xml '//a/b'    # one-shot
//   ./build/examples/index_explorer --xmark             # built-in dataset
//   ./build/examples/index_explorer --nasa
//
// Commands at the prompt:
//   //a/b/c      evaluate a path expression
//   !//a/b/c     evaluate it and refine the index for it (mark as FUP)
//   :stats       index statistics
//   :dot         dump the data graph as Graphviz DOT (small graphs!)
//   :quit        exit

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "datagen/nasa.h"
#include "datagen/xmark.h"
#include "index/m_star_index.h"
#include "query/path_expression.h"
#include "xml/graph_builder.h"

namespace {

using namespace mrx;

Result<std::string> LoadInput(const std::string& arg) {
  if (arg == "--xmark") {
    return datagen::GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.05));
  }
  if (arg == "--nasa") {
    return datagen::GenerateNasaDocument(0.05, /*seed=*/3);
  }
  std::ifstream in(arg, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + arg);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void RunQuery(MStarIndex& index, const DataGraph& graph,
              const std::string& text, bool refine) {
  auto query = PathExpression::Parse(text, graph.symbols());
  if (!query.ok()) {
    std::cout << "error: " << query.status() << "\n";
    return;
  }
  if (refine) {
    index.Refine(*query);
    std::cout << "(refined; components=" << index.num_components() << ")\n";
  }
  DataEvaluator validator(graph);
  QueryResult result = index.QueryTopDown(*query, &validator);
  std::cout << result.answer.size() << " nodes, cost="
            << result.stats.total()
            << (result.precise ? " precise" : " validated") << ":";
  size_t shown = 0;
  for (NodeId n : result.answer) {
    if (++shown > 12) {
      std::cout << " ...";
      break;
    }
    std::cout << " " << n << ":" << graph.label_name(n);
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: index_explorer <file.xml | --xmark | --nasa> "
                 "[query]\n";
    return 2;
  }
  Result<std::string> document = LoadInput(argv[1]);
  if (!document.ok()) {
    std::cerr << document.status() << "\n";
    return 1;
  }
  Result<DataGraph> graph = xml::BuildGraphFromXml(*document);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "loaded: " << graph->num_nodes() << " nodes, "
            << graph->num_edges() << " edges ("
            << graph->num_reference_edges() << " references), "
            << graph->symbols().size() << " labels\n";

  MStarIndex index(*graph);

  if (argc > 2) {
    RunQuery(index, *graph, argv[2], /*refine=*/false);
    return 0;
  }

  std::cout << "enter path expressions ('!' prefix refines, :stats, :dot, "
               ":quit)\n";
  std::string line;
  while (std::cout << "> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ":quit" || line == ":q") break;
    if (line == ":stats") {
      std::cout << "components=" << index.num_components()
                << " physical_nodes=" << index.PhysicalNodeCount()
                << " physical_edges=" << index.PhysicalEdgeCount() << "\n";
      for (size_t i = 0; i < index.num_components(); ++i) {
        std::cout << "  I" << i << ": " << index.component(i).num_nodes()
                  << " nodes, " << index.component(i).num_edges()
                  << " edges\n";
      }
      continue;
    }
    if (line == ":dot") {
      std::cout << graph->ToDot();
      continue;
    }
    bool refine = line[0] == '!';
    RunQuery(index, *graph, refine ? line.substr(1) : line, refine);
  }
  return 0;
}
