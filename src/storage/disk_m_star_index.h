#ifndef MRX_STORAGE_DISK_M_STAR_INDEX_H_
#define MRX_STORAGE_DISK_M_STAR_INDEX_H_

#include <optional>
#include <string>
#include <vector>

#include "index/evaluator.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "storage/index_io.h"
#include "util/result.h"

namespace mrx::storage {

/// \brief A disk-resident M*(k)-index that loads component indexes
/// *selectively and incrementally during query processing* — the exact
/// structure the paper's §6 names as future work.
///
/// The "MRX*" container stores each component as an independent blob. A
/// query of length l only ever touches components I0..Il, so answering it
/// loads at most l+1 blobs; short queries on a deeply-refined index read
/// a tiny prefix of the file. Loaded components are cached for the
/// lifetime of the object. `components_loaded()` exposes how many blobs
/// have been materialized (tests and the storage bench assert on it).
///
/// The data graph stays in memory (it is needed for validation); only the
/// index is disk-resident.
class DiskMStarIndex {
 public:
  /// Opens a container written by SaveMStarIndexToFile. Reads only the
  /// header/TOC; no component is loaded yet. `graph` must be the data
  /// graph the index was built on and must outlive the object.
  static Result<DiskMStarIndex> Open(const DataGraph& graph,
                                     const std::string& path);

  DiskMStarIndex(DiskMStarIndex&&) = default;

  /// §4.1 QUERYTOPDOWN over lazily-loaded components: prefixes of length
  /// i run in component min(i, finest), so exactly
  /// min(length, finest) + 1 components are materialized.
  Result<QueryResult> QueryTopDown(const PathExpression& path);

  /// Naive evaluation: loads only component min(length, finest).
  Result<QueryResult> QueryNaive(const PathExpression& path);

  size_t num_components() const { return toc_.components.size(); }

  /// Number of component blobs materialized so far.
  size_t components_loaded() const { return loaded_count_; }

  /// Bytes of the container read so far (TOC excluded).
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  DiskMStarIndex(const DataGraph& graph, std::string path, MStarFileToc toc)
      : graph_(graph),
        evaluator_(graph),
        path_(std::move(path)),
        toc_(std::move(toc)),
        cache_(toc_.components.size()) {}

  /// Materializes component `i` from disk if not cached, keeping its
  /// supernode links.
  Status EnsureLoaded(size_t i);

  /// Builds the subnode lists of loaded component `i` ≥ 1 against loaded
  /// component i-1, once.
  Status LinkSubnodes(size_t i);

  const IndexGraph& component(size_t i) const { return cache_[i]->graph; }

  const DataGraph& graph_;
  DataEvaluator evaluator_;
  std::string path_;
  MStarFileToc toc_;
  std::vector<std::optional<MStarComponent>> cache_;
  size_t loaded_count_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace mrx::storage

#endif  // MRX_STORAGE_DISK_M_STAR_INDEX_H_
