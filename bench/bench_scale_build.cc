// Scale tier: streamed large-graph generation + serial-vs-pooled static
// hierarchy build and batch refinement, at node targets the string->parse
// path cannot reach comfortably (100k..10M). For every tier:
//
//   - the graph is generated straight into CSR form (DirectGraphSink; the
//     serialized document never exists),
//   - the pooled k-bisimulation partition is verified byte-identical to
//     the serial one BEFORE any pooled timing is reported (the speedups
//     are only meaningful under the determinism contract,
//     docs/PERFORMANCE.md),
//   - serial and 2/4/8-thread BuildStaticHierarchy are timed best-of-reps,
//   - RefineBatch of the §5 workload's FUPs (the batch the serving
//     benchmark promotes) is verified identical at 4 threads and serial,
//     then timed serial and at 4 threads, best-of-reps; a digest of the
//     serial refined hierarchy is printed, so two builds of the library
//     can be compared at scale.
//
// Emits BENCH_scale_build.json. CI runs `--tiers 10000,500000 --kmax 6
// --reps 2` and gates on the 4-thread build: no more than 10% slower than
// serial at 10k, at least 1.5x faster at 500k (and, through the abort
// above, on identical refined hierarchies); locally the default tier
// sweep honors MRX_SCALE. `hardware_concurrency` is reported so a 1-core container's
// flat numbers are recognizable as hardware-bound, not regression.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "index/bisimulation.h"
#include "index/m_star_index.h"
#include "query/path_expression.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"
#include "workload/fup_extractor.h"

namespace {

using namespace mrx;

double TimeMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double BestOf(int reps, const std::function<void()>& fn) {
  double best = TimeMs(fn);
  for (int r = 1; r < reps; ++r) best = std::min(best, TimeMs(fn));
  return best;
}

/// The §5 workload's FUPs, as the serving benchmark promotes them: the
/// 500-query stream (label paths ≤ 9, seed 1) observed twice through a
/// threshold-2 extractor — the FUP batch driving the refinement timing.
std::vector<PathExpression> Section5Fups(const DataGraph& g) {
  const std::vector<PathExpression> stream = bench::MakeWorkload(g, 9);
  FupExtractor extractor(FupExtractor::Options{2, 0});
  for (int pass = 0; pass < 2; ++pass) {
    for (const PathExpression& q : stream) extractor.Observe(q);
  }
  return extractor.fups();
}

/// True iff `a` and `b` are the same hierarchy down to the ids: every
/// component's alive nodes with their labels, k, extents, children and
/// supernode links.
bool IdenticalHierarchies(const MStarIndex& a, const MStarIndex& b) {
  if (a.num_components() != b.num_components()) return false;
  for (size_t i = 0; i < a.num_components(); ++i) {
    const IndexGraph& x = a.component(i);
    const IndexGraph& y = b.component(i);
    if (x.capacity() != y.capacity()) return false;
    for (IndexNodeId v = 0; v < x.capacity(); ++v) {
      if (x.alive(v) != y.alive(v)) return false;
      if (!x.alive(v)) continue;
      const IndexGraph::Node& m = x.node(v);
      const IndexGraph::Node& n = y.node(v);
      if (m.label != n.label || m.k != n.k || m.extent != n.extent ||
          m.children != n.children) {
        return false;
      }
      if (i > 0 && a.supernode(i, v) != b.supernode(i, v)) return false;
    }
  }
  return true;
}

/// FNV-1a over what IdenticalHierarchies compares, so two builds of the
/// library can be shown to refine to the same hierarchy.
uint64_t HierarchyDigest(const MStarIndex& index) {
  uint64_t hash = 14695981039346656037ull;
  auto add = [&](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < index.num_components(); ++i) {
    const IndexGraph& comp = index.component(i);
    add(i);
    add(comp.capacity());
    for (IndexNodeId v = 0; v < comp.capacity(); ++v) {
      if (!comp.alive(v)) continue;
      const IndexGraph::Node& node = comp.node(v);
      add(v);
      add(node.label);
      add(static_cast<uint32_t>(node.k));
      add(node.extent.size());
      for (NodeId o : node.extent) add(o);
      add(node.children.size());
      for (IndexNodeId c : node.children) add(c);
      if (i > 0) add(index.supernode(i, v));
    }
  }
  return hash;
}

struct TierResult {
  std::string dataset;
  std::string tier;
  size_t nodes = 0;
  size_t edges = 0;
  double gen_ms = 0;
  double serial_ms = 0;
  double t2_ms = 0, t4_ms = 0, t8_ms = 0;
  size_t fups = 0;
  double refine_serial_ms = 0;
  double refine_t4_ms = 0;
  uint64_t refine_digest = 0;
};

TierResult RunTier(const std::string& dataset, const std::string& tier,
                   const std::function<Result<DataGraph>()>& build, int k_max,
                   int reps) {
  TierResult result;
  result.dataset = dataset;
  result.tier = tier;

  Result<DataGraph> graph(Status::Internal("not built"));
  result.gen_ms = TimeMs([&] { graph = build(); });
  if (!graph.ok()) {
    std::cerr << "FATAL: " << dataset << "/" << tier
              << " generation failed: " << graph.status().message() << "\n";
    std::exit(1);
  }
  const DataGraph& g = *graph;
  result.nodes = g.num_nodes();
  result.edges = g.num_edges();

  const BisimulationPartition serial_part = ComputeKBisimulation(g, k_max);
  result.serial_ms = BestOf(reps, [&] {
    MStarIndex index = MStarIndex::BuildStaticHierarchy(g, k_max);
    if (index.num_components() == 0) std::exit(1);
  });

  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    // Determinism gate: the pooled partition must be byte-identical to
    // the serial one, or the timings below compare different work.
    const BisimulationPartition pooled =
        ComputeKBisimulation(g, k_max, RefineOptions{&pool});
    if (pooled.block_of != serial_part.block_of ||
        pooled.num_blocks != serial_part.num_blocks) {
      std::cerr << "FATAL: " << dataset << "/" << tier
                << " partition diverges at " << threads << " threads\n";
      std::exit(1);
    }
    const double ms = BestOf(reps, [&] {
      MStarIndex index =
          MStarIndex::BuildStaticHierarchy(g, k_max, RefineOptions{&pool});
      if (index.num_components() == 0) std::exit(1);
    });
    if (threads == 2) result.t2_ms = ms;
    if (threads == 4) result.t4_ms = ms;
    if (threads == 8) result.t8_ms = ms;
  }

  // Batch refinement of a fresh A(0) index by the §5 FUPs. Determinism
  // gate first: the 4-thread refined hierarchy must be identical to the
  // serial one. Timing covers RefineBatch alone.
  const std::vector<PathExpression> fups = Section5Fups(g);
  result.fups = fups.size();
  {
    MStarIndex serial(g);
    serial.RefineBatch(fups);
    ThreadPool pool(4);
    MStarIndex pooled(g);
    pooled.set_thread_pool(&pool);
    pooled.RefineBatch(fups);
    if (!IdenticalHierarchies(serial, pooled)) {
      std::cerr << "FATAL: " << dataset << "/" << tier
                << " refined hierarchy diverges at 4 threads\n";
      std::exit(1);
    }
    result.refine_digest = HierarchyDigest(serial);
  }
  auto refine_once = [&](ThreadPool* pool) {
    MStarIndex index(g);
    index.set_thread_pool(pool);
    return TimeMs([&] { index.RefineBatch(fups); });
  };
  result.refine_serial_ms = refine_once(nullptr);
  for (int r = 1; r < reps; ++r) {
    result.refine_serial_ms =
        std::min(result.refine_serial_ms, refine_once(nullptr));
  }
  {
    ThreadPool pool(4);
    result.refine_t4_ms = refine_once(&pool);
    for (int r = 1; r < reps; ++r) {
      result.refine_t4_ms = std::min(result.refine_t4_ms, refine_once(&pool));
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int k_max = 6;
  int reps = 2;
  std::string out_path = "BENCH_scale_build.json";
  std::vector<size_t> tier_nodes;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--kmax") {
      k_max = std::atoi(next().c_str());
    } else if (arg == "--reps") {
      reps = std::atoi(next().c_str());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--tiers") {
      std::string list = next();
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        tier_nodes.push_back(
            static_cast<size_t>(std::atoll(list.substr(pos, comma - pos).c_str())));
        pos = comma + 1;
      }
    } else {
      std::cerr << "usage: bench_scale_build [--tiers n1,n2,...] [--kmax K]"
                   " [--reps R] [--out file]\n";
      return 2;
    }
  }

  std::vector<harness::ScaleTier> tiers;
  if (tier_nodes.empty()) {
    tiers = harness::ScaleBenchTiers();
  } else {
    for (size_t n : tier_nodes) {
      tiers.push_back(harness::ScaleTier{harness::ScaleTierName(n), n});
    }
  }

  std::vector<TierResult> results;
  for (const harness::ScaleTier& tier : tiers) {
    results.push_back(RunTier(
        "xmark", tier.name,
        [&] {
          return harness::BuildXMarkGraphStreamed(
              harness::XMarkScaleForNodes(tier.nodes));
        },
        k_max, reps));
    results.push_back(RunTier(
        "dtd_random", tier.name,
        [&] { return harness::BuildDtdRandomGraphStreamed(tier.nodes); },
        k_max, reps));
  }

  TableWriter table({"dataset", "tier", "nodes", "gen_ms", "serial_ms",
                     "t2_ms", "t4_ms", "t8_ms", "t4_speedup", "t8_speedup",
                     "refine_t4_speedup"});
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back(
      "hardware_concurrency",
      static_cast<double>(std::thread::hardware_concurrency()));
  for (const TierResult& r : results) {
    const double s4 = r.t4_ms > 0 ? r.serial_ms / r.t4_ms : 0;
    const double s8 = r.t8_ms > 0 ? r.serial_ms / r.t8_ms : 0;
    const double rs4 =
        r.refine_t4_ms > 0 ? r.refine_serial_ms / r.refine_t4_ms : 0;
    table.AddRowValues(r.dataset, r.tier, r.nodes, r.gen_ms, r.serial_ms,
                       r.t2_ms, r.t4_ms, r.t8_ms, s4, s8, rs4);
    const std::string prefix = r.dataset + "_" + r.tier + "_";
    metrics.emplace_back(prefix + "nodes", static_cast<double>(r.nodes));
    metrics.emplace_back(prefix + "edges", static_cast<double>(r.edges));
    metrics.emplace_back(prefix + "gen_ms", r.gen_ms);
    metrics.emplace_back(prefix + "serial_ms", r.serial_ms);
    metrics.emplace_back(prefix + "t2_ms", r.t2_ms);
    metrics.emplace_back(prefix + "t4_ms", r.t4_ms);
    metrics.emplace_back(prefix + "t8_ms", r.t8_ms);
    metrics.emplace_back(prefix + "t4_speedup", s4);
    metrics.emplace_back(prefix + "t8_speedup", s8);
    metrics.emplace_back(prefix + "refine_fups", static_cast<double>(r.fups));
    metrics.emplace_back(prefix + "refine_serial_ms", r.refine_serial_ms);
    metrics.emplace_back(prefix + "refine_t4_ms", r.refine_t4_ms);
    metrics.emplace_back(prefix + "refine_t4_speedup", rs4);
  }

  std::cout << "== Scale-tier build (k_max=" << k_max
            << "; streamed generation, pooled partitions verified identical"
               " to serial; hardware_concurrency="
            << std::thread::hardware_concurrency() << ") ==\n";
  table.RenderText(std::cout);
  for (const TierResult& r : results) {
    std::cout << r.dataset << "/" << r.tier << " refined hierarchy digest 0x"
              << std::hex << r.refine_digest << std::dec << "\n";
  }

  std::ofstream bench(out_path, std::ios::trunc);
  mrx::harness::WriteBenchJson(bench, "scale_build", metrics);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
