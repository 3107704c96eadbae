#ifndef MRX_TESTS_SECTION5_H_
#define MRX_TESTS_SECTION5_H_

// Shared by the golden tests: the §5 workload as the serving benchmark
// drives it, and a compact digest to pin what a run produced.

#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "graph/data_graph.h"
#include "query/path_expression.h"
#include "workload/fup_extractor.h"

namespace mrx::testing {

/// FNV-1a over 32-bit words: a compact, platform-independent digest, so a
/// golden value fits on one line.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// The §5 query stream: 500 queries over label paths of length ≤ 9, seed 1.
inline std::vector<PathExpression> Section5Stream(const DataGraph& g) {
  return bench::MakeWorkload(g, 9);
}

/// The §5 workload's FUPs, as the serving benchmark promotes them: the
/// stream observed twice through a threshold-2 extractor.
inline std::vector<PathExpression> Section5Fups(const DataGraph& g) {
  const std::vector<PathExpression> stream = Section5Stream(g);
  FupExtractor extractor(FupExtractor::Options{2, 0});
  for (int pass = 0; pass < 2; ++pass) {
    for (const PathExpression& q : stream) extractor.Observe(q);
  }
  return extractor.fups();
}

}  // namespace mrx::testing

#endif  // MRX_TESTS_SECTION5_H_
