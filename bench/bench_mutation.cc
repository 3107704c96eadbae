// Live-update maintenance cost: incremental Apply vs a full from-scratch
// rebuild of the same A(0..k) chain, across mutation batch sizes given as
// fractions of the graph (0.1%, 1%, 5%), on an XMark document graph and a
// DTD-random reference-rich graph. The claim under test (docs/UPDATES.md):
// for batches up to ~1% of the graph, local re-refinement with bounded
// cascade beats rebuilding by a wide margin; past the rebuild threshold the
// maintainer itself falls back, so the curve converges to ~1x by design.
//
// Emits BENCH_mutation.json (harness::WriteBenchJson) so CI can diff the
// trajectory across PRs. Honors MRX_SCALE.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "datagen/dtd.h"
#include "datagen/dtd_generator.h"
#include "mutate/incremental_maintainer.h"
#include "mutate/random_batch.h"
#include "util/rng.h"
#include "util/table_writer.h"
#include "xml/graph_builder.h"

namespace {

using namespace mrx;

constexpr const char* kBenchDtd = R"(
<!ELEMENT catalog (section+)>
<!ELEMENT section (section*, item*, note?)>
<!ELEMENT item (name, ref*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST item id ID #REQUIRED>
<!ATTLIST ref target IDREF #REQUIRED>
)";

DataGraph BuildDtdRandomGraph(size_t target_elements) {
  auto dtd = datagen::Dtd::Parse(kBenchDtd);
  if (!dtd.ok()) {
    std::cerr << "DTD parse failed: " << dtd.status().message() << "\n";
    std::exit(1);
  }
  datagen::DtdGeneratorOptions options;
  options.seed = 20260808;
  options.min_elements = target_elements;
  options.max_elements = target_elements * 2;
  options.star_mean = 2.0;
  options.max_depth = 14;
  auto doc = datagen::GenerateDocument(*dtd, options);
  if (!doc.ok()) {
    std::cerr << "DTD generation failed: " << doc.status().message() << "\n";
    std::exit(1);
  }
  auto graph = xml::BuildGraphFromXml(*doc);
  if (!graph.ok()) {
    std::cerr << "graph build failed: " << graph.status().message() << "\n";
    std::exit(1);
  }
  return *std::move(graph);
}

double TimeMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct FractionResult {
  double fraction = 0;
  size_t ops = 0;
  double apply_ms = 0;    ///< Min incremental Apply over `reps` batches.
  double rebuild_ms = 0;  ///< Min fresh-chain build on the same versions.
  double speedup = 0;
  size_t cascade = 0;     ///< Mean dirty-set size across the batches.
  size_t full_rounds = 0; ///< Levels that hit the rebuild fallback (total).
};

FractionResult RunFraction(const DataGraph& g, double fraction, int k_max,
                           int reps) {
  FractionResult result;
  result.fraction = fraction;
  result.ops = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(g.num_nodes())));

  mutate::MaintainerOptions mo;
  mo.k_max = k_max;
  mutate::IncrementalMaintainer m(g, mo);
  Rng rng(static_cast<uint64_t>(1000 + result.ops));
  mutate::RandomBatchOptions gen;
  gen.num_ops = result.ops;
  if (result.ops > 200) {
    // Ops are drawn independently, so the chance that a huge batch is
    // self-consistent (no op touching a subtree another op deleted, no
    // duplicate ref edits) vanishes; keep huge batches append-only.
    gen.delete_weight = 0;
    gen.add_ref_weight = 0;
    gen.remove_ref_weight = 0;
  }

  int applied = 0;
  size_t cascade = 0;
  // One untimed warmup round first: the first Apply and the first fresh
  // build pay one-off page faults and allocator growth that belong to
  // process startup, not to either steady-state cost being compared.
  for (int rep = -1; rep < reps; ++rep) {
    // Batches can reject (ops interact); draw until one applies. Timing
    // covers Apply only — generation and the baseline run outside.
    for (int attempt = 0; attempt < 10; ++attempt) {
      const mutate::MutationBatch batch =
          mutate::GenerateRandomBatch(rng, m.graph(), gen);
      Result<mutate::BatchReceipt> receipt = Status::Internal("unset");
      const double ms = TimeMs([&] { receipt = m.Apply(batch); });
      if (!receipt.ok()) continue;
      if (rep >= 0) {
        ++applied;
        result.apply_ms = applied == 1 ? ms : std::min(result.apply_ms, ms);
        cascade += receipt->dirty_nodes;
        result.full_rounds += receipt->full_rounds;
      }
      break;
    }
    // The from-scratch baseline: constructing a fresh maintainer builds
    // the whole A(0..k) chain on the current version — exactly the state
    // Apply just maintained incrementally.
    const double rebuild = TimeMs([&] {
      mutate::IncrementalMaintainer fresh(m.graph(), mo);
      if (fresh.AkPartition(k_max).num_blocks == 0) std::exit(1);
    });
    if (rep >= 0) {
      result.rebuild_ms =
          rep == 0 ? rebuild : std::min(result.rebuild_ms, rebuild);
    }
  }
  if (applied == 0) {
    std::cerr << "FATAL: no batch of " << result.ops << " ops applied\n";
    std::exit(1);
  }
  result.cascade = cascade / static_cast<size_t>(applied);
  result.speedup =
      result.apply_ms > 0 ? result.rebuild_ms / result.apply_ms : 0;
  return result;
}

}  // namespace

int main() {
  const double scale = harness::BenchScaleFromEnv(0.5);
  // Chain depth 8: the A(0..8) hierarchy is the repo's canonical
  // full-resolution build, and chain depth is exactly what incremental
  // maintenance amortizes (each extra level costs a full refinement round
  // in the rebuild but only a cascade-local round here).
  const int k_max = 8;
  const int reps = 7;
  const std::vector<double> fractions = {0.001, 0.01, 0.05};

  auto xmark = harness::BuildXMarkGraph(scale);
  if (!xmark.ok()) {
    std::cerr << "xmark build failed: " << xmark.status().message() << "\n";
    return 1;
  }
  DataGraph dtd_graph =
      BuildDtdRandomGraph(static_cast<size_t>(40000 * scale));

  TableWriter table({"dataset", "nodes", "fraction", "batch_ops",
                     "apply_ms", "rebuild_ms", "speedup", "cascade"});
  std::vector<std::pair<std::string, double>> metrics;
  bool ok = true;
  for (const auto& [name, g] :
       std::vector<std::pair<std::string, const DataGraph*>>{
           {"xmark", &*xmark}, {"dtd_random", &dtd_graph}}) {
    for (double fraction : fractions) {
      const FractionResult r = RunFraction(*g, fraction, k_max, reps);
      table.AddRowValues(name, g->num_nodes(), r.fraction, r.ops,
                         r.apply_ms, r.rebuild_ms, r.speedup, r.cascade);
      const std::string key =
          name + "_f" + std::to_string(r.fraction).substr(0, 5);
      metrics.emplace_back(key + "_apply_ms", r.apply_ms);
      metrics.emplace_back(key + "_rebuild_ms", r.rebuild_ms);
      metrics.emplace_back(key + "_speedup", r.speedup);
      // The acceptance line: batches at or under 1% of the graph must be
      // at least 5x cheaper to maintain than to rebuild.
      if (fraction <= 0.01 && r.speedup < 5.0) {
        std::cerr << "FAIL: " << name << " fraction " << fraction
                  << " speedup " << r.speedup << " < 5\n";
        ok = false;
      }
    }
  }

  std::cout << "== Incremental maintenance vs full rebuild (k_max=" << k_max
            << ", scale=" << scale << ") ==\n";
  table.RenderText(std::cout);

  std::ofstream bench("BENCH_mutation.json", std::ios::trunc);
  mrx::harness::WriteBenchJson(bench, "mutation", metrics);
  std::cout << "wrote BENCH_mutation.json\n";
  return ok ? 0 : 1;
}
