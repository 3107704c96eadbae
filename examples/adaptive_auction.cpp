// Scenario: an auction site (XMark) whose query workload shifts over time.
// Shows the M*(k)-index adapting: the first phase hammers person lookups,
// the second phase switches to auction-item navigation. After each phase
// the index is refined with the phase's frequent path expressions and the
// per-query cost collapses, while the coarse component keeps short
// queries cheap throughout.
//
// Build & run:   ./build/examples/adaptive_auction [scale]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "datagen/xmark.h"
#include "index/m_star_index.h"
#include "query/path_expression.h"
#include "util/table_writer.h"
#include "xml/graph_builder.h"

namespace {

using namespace mrx;

std::vector<PathExpression> ParseAll(const std::vector<const char*>& texts,
                                     const SymbolTable& symbols) {
  std::vector<PathExpression> out;
  for (const char* t : texts) {
    auto p = PathExpression::Parse(t, symbols);
    if (p.ok()) out.push_back(std::move(p).value());
  }
  return out;
}

double AvgCost(const MStarIndex& index, DataEvaluator& eval,
               const std::vector<PathExpression>& qs) {
  uint64_t total = 0;
  for (const PathExpression& q : qs) {
    total += index.QueryTopDown(q, &eval).stats.total();
  }
  return qs.empty() ? 0.0 : static_cast<double>(total) / qs.size();
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.2;
  std::string doc =
      datagen::GenerateXMarkDocument(datagen::XMarkOptions::Scaled(scale));
  Result<DataGraph> graph = xml::BuildGraphFromXml(doc);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "auction site: " << graph->num_nodes() << " nodes, "
            << graph->num_reference_edges() << " reference edges\n\n";

  // Phase 1: the people pages are hot — who sells, who bids, who watches.
  std::vector<PathExpression> phase1 = ParseAll(
      {
          "//open_auction/seller/person",
          "//open_auction/bidder/personref/person",
          "//closed_auction/buyer/person",
          "//person/watches/watch/open_auction",
          "//annotation/author/person",
      },
      graph->symbols());

  // Phase 2: item navigation becomes hot — regions, categories, mailboxes.
  std::vector<PathExpression> phase2 = ParseAll(
      {
          "//regions/africa/item/incategory/category",
          "//open_auction/itemref/item/mailbox/mail",
          "//closed_auction/itemref/item/incategory/category",
          "//site/categories/category/description/text",
          "//catgraph/edge/category",
      },
      graph->symbols());

  MStarIndex index(*graph);
  DataEvaluator eval(*graph);
  TableWriter table({"stage", "phase1_avg_cost", "phase2_avg_cost",
                     "components", "physical_nodes"});

  auto snapshot = [&](const char* stage) {
    table.AddRowValues(stage, AvgCost(index, eval, phase1),
                       AvgCost(index, eval, phase2), index.num_components(),
                       index.PhysicalNodeCount());
  };

  snapshot("fresh A(0)");
  for (const PathExpression& q : phase1) index.Refine(q);
  snapshot("after phase-1 FUPs");
  for (const PathExpression& q : phase2) index.Refine(q);
  snapshot("after phase-2 FUPs");

  table.RenderText(std::cout);
  std::cout << "\nShort queries stay cheap on the coarse component, e.g. "
               "//person costs "
            << index
                   .QueryTopDown(
                       *PathExpression::Parse("//person", graph->symbols()),
                       &eval)
                   .stats.total()
            << " node visits with " << index.num_components()
            << " components built.\n";
  return 0;
}
