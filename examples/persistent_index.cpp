// Scenario: persist an adaptively-refined index and reopen it later as a
// disk-resident structure (the paper's §6 future work). An online session
// learns a workload; its index is saved; a fresh process then answers the
// same workload loading only the components each query actually needs.
//
// Build & run:   ./build/examples/persistent_index [scale]

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>

#include "core/mrx.h"
#include "datagen/xmark.h"
#include "storage/disk_m_star_index.h"
#include "storage/graph_io.h"
#include "storage/index_io.h"

int main(int argc, char** argv) {
  using namespace mrx;
  double scale = argc > 1 ? std::atof(argv[1]) : 0.1;

  // --- Day 1: an adaptive session learns the workload. ------------------
  std::string doc =
      datagen::GenerateXMarkDocument(datagen::XMarkOptions::Scaled(scale));
  Result<DataGraph> graph = xml::BuildGraphFromXml(doc);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }

  server::ConcurrentSessionOptions options;
  options.refine_after = 2;
  server::ConcurrentSession session(*graph, options);
  const char* hot_queries[] = {
      "//open_auction/seller/person",
      "//open_auction/bidder/personref/person",
      "//regions/europe/item/incategory/category",
  };
  for (int round = 0; round < 3; ++round) {
    for (const char* text : hot_queries) {
      auto q = PathExpression::Parse(text, graph->symbols());
      session.Query(*q);
    }
  }
  // Refinement runs in the background; wait for it, then take the index.
  session.DrainRefinements();
  const std::shared_ptr<const MStarIndex> index = session.index_snapshot();
  std::cout << "session answered " << session.queries_answered()
            << " queries; index grew to " << index->num_components()
            << " components, " << index->PhysicalNodeCount()
            << " physical nodes\n";

  // --- Persist graph + index. -------------------------------------------
  std::string dir = std::filesystem::temp_directory_path().string();
  std::string graph_path = dir + "/persistent_example.mrxg";
  std::string index_path = dir + "/persistent_example.mrxs";
  if (Status s = storage::SaveDataGraphToFile(*graph, graph_path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  if (Status s = storage::SaveMStarIndexToFile(*index, index_path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "saved " << std::filesystem::file_size(graph_path) / 1024
            << " KiB graph + " << std::filesystem::file_size(index_path) / 1024
            << " KiB index\n\n";

  // --- Day 2: a fresh "process" reopens everything from disk. -----------
  Result<DataGraph> reloaded = storage::LoadDataGraphFromFile(graph_path);
  if (!reloaded.ok()) {
    std::cerr << reloaded.status() << "\n";
    return 1;
  }
  auto disk = storage::DiskMStarIndex::Open(*reloaded, index_path);
  if (!disk.ok()) {
    std::cerr << disk.status() << "\n";
    return 1;
  }
  std::cout << "reopened: " << disk->num_components()
            << " components on disk, none loaded yet\n";

  auto short_q = PathExpression::Parse("//person", reloaded->symbols());
  auto r = disk->QueryTopDown(*short_q);
  std::cout << "//person -> " << r->answer.size() << " nodes; components "
            << "loaded so far: " << disk->components_loaded() << "\n";

  auto long_q = PathExpression::Parse(hot_queries[1], reloaded->symbols());
  r = disk->QueryTopDown(*long_q);
  std::cout << hot_queries[1] << " -> " << r->answer.size()
            << " nodes (precise=" << (r->precise ? "yes" : "no")
            << "); components loaded: " << disk->components_loaded() << "/"
            << disk->num_components() << ", " << disk->bytes_read() / 1024
            << " KiB read\n";

  std::filesystem::remove(graph_path);
  std::filesystem::remove(index_path);
  return 0;
}
