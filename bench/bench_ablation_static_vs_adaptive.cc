// Ablation: what does workload *adaptivity* buy over a static
// multiresolution hierarchy? The static baseline stacks the full A(0..k)
// family as M*(k) components (precise for every query of length ≤ k, no
// FUPs needed); the adaptive index refines only what the workload touches.
// This isolates the paper's central bet: most of a static index's
// resolution is wasted on paths nobody queries.

#include "bench/bench_common.h"
#include "index/m_star_index.h"
#include "util/table_writer.h"

namespace {

void RunDataset(const std::string& name) {
  using namespace mrx;
  DataGraph g = bench::LoadDataset(name);
  auto workload = bench::MakeWorkload(g, 9);

  MStarIndex adaptive(g);
  DataEvaluator eval(g);
  for (const PathExpression& q : workload) adaptive.Refine(q);

  MStarIndex static_full = MStarIndex::BuildStaticHierarchy(g, 9);
  MStarIndex static_half = MStarIndex::BuildStaticHierarchy(g, 4);

  auto measure = [&](MStarIndex& index) {
    uint64_t cost = 0;
    for (const PathExpression& q : workload) {
      cost += index.QueryTopDown(q, &eval).stats.total();
    }
    return static_cast<double>(cost) / workload.size();
  };

  TableWriter table({"variant", "physical_nodes", "physical_edges",
                     "avg_cost"});
  table.AddRowValues("adaptive M*(k), 500 FUPs",
                     adaptive.PhysicalNodeCount(),
                     adaptive.PhysicalEdgeCount(), measure(adaptive));
  table.AddRowValues("static A(0..9) hierarchy",
                     static_full.PhysicalNodeCount(),
                     static_full.PhysicalEdgeCount(), measure(static_full));
  table.AddRowValues("static A(0..4) hierarchy",
                     static_half.PhysicalNodeCount(),
                     static_half.PhysicalEdgeCount(), measure(static_half));
  std::cout << "== Ablation: adaptive vs static multiresolution, " << name
            << " (len 9) ==\n";
  table.RenderText(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  RunDataset("xmark");
  RunDataset("nasa");
  return 0;
}
