// Ablation (DESIGN.md §6.2): compares the three M*(k) evaluation
// strategies of paper §4.1 — naive, top-down, and subpath pre-filtering —
// by average cost per query length, on the XMark dataset after the index
// has been refined for the length-9 workload.

#include <map>

#include "bench/bench_common.h"
#include "index/m_star_index.h"
#include "util/table_writer.h"

int main() {
  using namespace mrx;
  DataGraph g = bench::LoadDataset("xmark");
  auto workload = bench::MakeWorkload(g, 9);

  MStarIndex index(g);
  DataEvaluator eval(g);
  for (const PathExpression& q : workload) index.Refine(q);

  struct Bucket {
    uint64_t naive = 0;
    uint64_t topdown = 0;
    uint64_t prefilter = 0;
    uint64_t bottomup = 0;
    uint64_t hybrid = 0;
    size_t count = 0;
  };
  std::map<size_t, Bucket> by_length;
  for (const PathExpression& q : workload) {
    Bucket& b = by_length[q.length()];
    b.naive += index.QueryNaive(q, &eval).stats.total();
    b.topdown += index.QueryTopDown(q, &eval).stats.total();
    // Pre-filter on the suffix half of the expression (a reasonable
    // static choice; picking the subpath is a query-optimization problem
    // the paper leaves open).
    size_t begin = q.num_steps() / 2;
    b.prefilter += index.QueryWithPrefilter(q, begin, q.num_steps() - 1, &eval)
                       .stats.total();
    b.bottomup += index.QueryBottomUp(q, &eval).stats.total();
    b.hybrid += index.QueryHybrid(q, &eval).stats.total();
    ++b.count;
  }

  TableWriter table({"query_length", "queries", "naive", "topdown",
                     "prefilter", "bottomup", "hybrid"});
  for (const auto& [len, b] : by_length) {
    table.AddRowValues(len, b.count,
                       static_cast<double>(b.naive) / b.count,
                       static_cast<double>(b.topdown) / b.count,
                       static_cast<double>(b.prefilter) / b.count,
                       static_cast<double>(b.bottomup) / b.count,
                       static_cast<double>(b.hybrid) / b.count);
  }
  std::cout << "== Ablation: M*(k) query strategies, avg cost per query "
               "(XMark, len 9) ==\n";
  table.RenderText(std::cout);
  std::cout << "\nThe paper (§4.1) predicts bottom-up/hybrid lose to "
               "top-down because every\ndescent to a finer component "
               "re-checks the suffix downward; the bottomup\ncolumn "
               "quantifies that overhead.\n";
  return 0;
}
