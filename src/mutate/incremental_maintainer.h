#ifndef MRX_MUTATE_INCREMENTAL_MAINTAINER_H_
#define MRX_MUTATE_INCREMENTAL_MAINTAINER_H_

#include <memory>

#include "mutate/mutable_graph.h"

namespace mrx::mutate {

/// A LiveGraph under its old name, kept only for perfbench's traced
/// `ReplayWrites` (perfbench/serve_bench.cc); the next benchmark change
/// points that caller at LiveGraph and deletes this header (ROADMAP item 8).
/// `g` is not owned and must outlive the object.
class IncrementalMaintainer {
 public:
  explicit IncrementalMaintainer(const DataGraph& g)
      : live_(std::shared_ptr<const DataGraph>(&g, [](const DataGraph*) {})) {}
  Result<LiveGraph::Step> Apply(const MutationBatch& batch) {
    return live_.Apply(batch);
  }
  std::shared_ptr<const DataGraph> graph_ptr() const {
    return live_.graph_ptr();
  }

 private:
  LiveGraph live_;
};

}  // namespace mrx::mutate

#endif  // MRX_MUTATE_INCREMENTAL_MAINTAINER_H_
