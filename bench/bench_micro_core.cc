// Google-benchmark microbenchmarks of the core building blocks: XML
// parsing + graph loading, k-bisimulation partitioning, index
// construction, query evaluation and validation, and adaptive refinement.
// These are wall-clock complements to the paper's node-visit cost model.

#include <benchmark/benchmark.h>

#include "datagen/xmark.h"
#include "harness/datasets.h"
#include "index/a_k_index.h"
#include "index/bisimulation.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/label_paths.h"
#include "xml/graph_builder.h"

namespace mrx {
namespace {

// A mid-size XMark graph shared by all microbenchmarks (scale 0.1 is
// ~12k element nodes — big enough to be meaningful, small enough that a
// full benchmark sweep stays in seconds).
const DataGraph& SharedGraph() {
  static const DataGraph& graph = *new DataGraph(
      std::move(harness::BuildXMarkGraph(0.1)).value());
  return graph;
}

const std::vector<PathExpression>& SharedWorkload() {
  static const auto& workload = *new std::vector<PathExpression>([] {
    LabelPathEnumerationOptions eo;
    eo.max_length = 9;
    LabelPathSet paths = EnumerateLabelPaths(SharedGraph(), eo);
    WorkloadOptions wo;
    wo.num_queries = 100;
    wo.max_query_length = 9;
    return GenerateWorkload(paths, wo);
  }());
  return workload;
}

void BM_XmlParseAndLoad(benchmark::State& state) {
  std::string doc =
      datagen::GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.05));
  for (auto _ : state) {
    auto g = xml::BuildGraphFromXml(doc);
    benchmark::DoNotOptimize(g);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_XmlParseAndLoad);

void BM_KBisimulation(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto part = ComputeKBisimulation(g, k);
    benchmark::DoNotOptimize(part.num_blocks);
  }
}
BENCHMARK(BM_KBisimulation)->Arg(1)->Arg(3)->Arg(5)->Arg(-1);

// Pins the sharded signature-grouping round (per-shard arena tables plus
// the deterministic merge): the Arg is the pool's thread count, so Arg(1)
// vs BM_KBisimulation/3 isolates the table rewrite and higher Args the
// scaling. Partition ids are identical across all Args by contract.
void BM_KBisimulationPooled(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto part = ComputeKBisimulation(g, 3, RefineOptions{&pool});
    benchmark::DoNotOptimize(part.num_blocks);
  }
}
BENCHMARK(BM_KBisimulationPooled)->Arg(1)->Arg(2)->Arg(4);

void BM_AkConstruction(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    AkIndex index(g, k);
    benchmark::DoNotOptimize(index.graph().num_nodes());
  }
}
BENCHMARK(BM_AkConstruction)->Arg(0)->Arg(3)->Arg(6);

void BM_AkQueryWorkload(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  AkIndex index(g, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    uint64_t total = 0;
    for (const PathExpression& q : SharedWorkload()) {
      total += index.Query(q).stats.total();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AkQueryWorkload)->Arg(0)->Arg(4);

void BM_DataEvaluation(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  DataEvaluator eval(g);
  for (auto _ : state) {
    size_t total = 0;
    for (const PathExpression& q : SharedWorkload()) {
      total += eval.Evaluate(q).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_DataEvaluation);

void BM_MkRefineWorkload(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  for (auto _ : state) {
    MkIndex index(g);
    for (const PathExpression& q : SharedWorkload()) index.Refine(q);
    benchmark::DoNotOptimize(index.graph().num_nodes());
  }
}
BENCHMARK(BM_MkRefineWorkload);

void BM_MStarRefineWorkload(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  for (auto _ : state) {
    MStarIndex index(g);
    for (const PathExpression& q : SharedWorkload()) index.Refine(q);
    benchmark::DoNotOptimize(index.PhysicalNodeCount());
  }
}
BENCHMARK(BM_MStarRefineWorkload);

// The batch-refinement path: identical final index to per-query Refine
// (BM_MStarRefineWorkload), but target evaluation is hoisted out of the
// refinement loop and every component's adjacency is rebuilt once per batch
// instead of once per query. The delta between the two benchmarks pins
// what batching saves.
void BM_MStarRefineBatchWorkload(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  for (auto _ : state) {
    MStarIndex index(g);
    index.RefineBatch(SharedWorkload());
    benchmark::DoNotOptimize(index.PhysicalNodeCount());
  }
}
BENCHMARK(BM_MStarRefineBatchWorkload);

void BM_MStarTopDownQueries(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  MStarIndex index(g);
  DataEvaluator eval(g);
  for (const PathExpression& q : SharedWorkload()) index.Refine(q);
  for (auto _ : state) {
    uint64_t total = 0;
    for (const PathExpression& q : SharedWorkload()) {
      total += index.QueryTopDown(q, &eval).stats.total();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_MStarTopDownQueries);

void BM_LabelPathEnumeration(benchmark::State& state) {
  const DataGraph& g = SharedGraph();
  for (auto _ : state) {
    LabelPathEnumerationOptions eo;
    eo.max_length = 9;
    auto paths = EnumerateLabelPaths(g, eo);
    benchmark::DoNotOptimize(paths.paths.size());
  }
}
BENCHMARK(BM_LabelPathEnumeration);

}  // namespace
}  // namespace mrx

BENCHMARK_MAIN();
