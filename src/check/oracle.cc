#include "check/oracle.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

#include "check/invariants.h"
#include "index/a_k_index.h"
#include "index/d_k_index.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "index/ud_kl_index.h"
#include "query/data_evaluator.h"

namespace mrx::check {
namespace {

/// Per-case evaluation context: ground truth is computed once per query
/// and every class comparison records into the shared result.
class CaseChecker {
 public:
  CaseChecker(const DataGraph& g, const std::vector<PathExpression>& queries,
              const OracleOptions& options, CaseResult* result)
      : g_(g), queries_(queries), options_(options), result_(result) {
    DataEvaluator truth(g);
    expected_.reserve(queries.size());
    for (const PathExpression& q : queries) {
      expected_.push_back(truth.Evaluate(q));
    }
  }

  /// Compares `index`'s answer to ground truth for every query.
  template <typename QueryFn>
  void CheckAll(const std::string& index_class, QueryFn&& answer) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      ++result_->checks;
      std::vector<NodeId> actual = answer(queries_[i]);
      if (actual != expected_[i]) {
        result_->discrepancies.push_back(
            {index_class, i, expected_[i], std::move(actual)});
      }
    }
  }

  void Audit(const std::string& where, std::vector<std::string> violations) {
    for (std::string& v : violations) {
      result_->violations.push_back(where + ": " + std::move(v));
    }
  }

  bool audit() const { return options_.audit_invariants; }
  size_t pair_cap() const { return options_.audit_pair_cap; }

 private:
  const DataGraph& g_;
  const std::vector<PathExpression>& queries_;
  const OracleOptions& options_;
  CaseResult* result_;
  std::vector<std::vector<NodeId>> expected_;
};

std::string Snapshot(const std::string& base, size_t s) {
  return base + "@" + std::to_string(s);
}

}  // namespace

std::vector<NodeId> GroundTruth(const DataGraph& g,
                                const PathExpression& query) {
  DataEvaluator truth(g);
  return truth.Evaluate(query);
}

CaseResult RunDifferentialCase(const DataGraph& g,
                               const std::vector<PathExpression>& queries,
                               const std::vector<PathExpression>& fups,
                               const OracleOptions& options) {
  CaseResult result;
  CaseChecker checker(g, queries, options, &result);

  if (checker.audit()) {
    checker.Audit("data-graph", AuditDataGraphCsr(g));
  }

  if (options.check_ak) {
    for (int k : options.ak_ks) {
      AkIndex index(g, k);
      checker.CheckAll("A(" + std::to_string(k) + ")",
                       [&](const PathExpression& q) {
                         return index.Query(q).answer;
                       });
      if (checker.audit()) {
        checker.Audit("A(" + std::to_string(k) + ")",
                      AuditIndexGraph(index.graph(), checker.pair_cap()));
      }
    }
  }

  if (options.check_one_index) {
    OneIndex index(g);
    checker.CheckAll("1-index", [&](const PathExpression& q) {
      return index.Query(q).answer;
    });
    if (checker.audit()) {
      checker.Audit("1-index",
                    AuditIndexGraph(index.graph(), checker.pair_cap()));
    }
  }

  if (options.check_udkl) {
    UdklIndex index(g, options.ud_k, options.ud_l);
    const std::string name = "UD(" + std::to_string(options.ud_k) + "," +
                             std::to_string(options.ud_l) + ")";
    checker.CheckAll(name, [&](const PathExpression& q) {
      return index.Query(q).answer;
    });
    if (checker.audit()) {
      checker.Audit(name, AuditIndexGraph(index.graph(), checker.pair_cap()));
    }
  }

  if (options.check_dk) {
    {
      DkIndex index = DkIndex::Construct(g, fups);
      checker.CheckAll("D(k)-construct", [&](const PathExpression& q) {
        return index.Query(q).answer;
      });
      if (checker.audit()) {
        checker.Audit("D(k)-construct",
                      AuditIndexGraph(index.graph(), checker.pair_cap()));
      }
    }
    {
      DkIndex index(g);
      checker.CheckAll(Snapshot("D(k)-promote", 0),
                       [&](const PathExpression& q) {
                         return index.Query(q).answer;
                       });
      for (size_t s = 1; s <= fups.size(); ++s) {
        index.Promote(fups[s - 1]);
        checker.CheckAll(Snapshot("D(k)-promote", s),
                         [&](const PathExpression& q) {
                           return index.Query(q).answer;
                         });
        if (checker.audit()) {
          checker.Audit(Snapshot("D(k)-promote", s),
                        AuditIndexGraph(index.graph(), checker.pair_cap()));
        }
      }
    }
  }

  if (options.check_mk) {
    MkIndex index(g);
    checker.CheckAll(Snapshot("M(k)", 0), [&](const PathExpression& q) {
      return index.Query(q).answer;
    });
    for (size_t s = 1; s <= fups.size(); ++s) {
      index.Refine(fups[s - 1]);
      checker.CheckAll(Snapshot("M(k)", s), [&](const PathExpression& q) {
        return index.Query(q).answer;
      });
      if (checker.audit()) {
        checker.Audit(Snapshot("M(k)", s),
                      AuditIndexGraph(index.graph(), checker.pair_cap()));
      }
    }
  }

  if (options.check_mstar) {
    MStarIndex index(g);
    DataEvaluator validator(g);
    for (size_t s = 0; s <= fups.size(); ++s) {
      if (s > 0) index.Refine(fups[s - 1]);
      for (MStarQueryStrategy strategy : kMStarQueryStrategies) {
        checker.CheckAll(
            Snapshot(std::string("M*:") + StrategyName(strategy), s),
            [&](const PathExpression& q) {
              return index.Query(strategy, q, &validator).answer;
            });
      }
      if (checker.audit()) {
        checker.Audit(Snapshot("M*", s),
                      AuditMStarIndex(index, checker.pair_cap()));
      }
    }
  }

  return result;
}

Result<std::vector<NodeId>> EvaluateClass(
    const DataGraph& g, const std::string& index_class,
    const PathExpression& query, const std::vector<PathExpression>& fups) {
  auto parse_int = [](std::string_view text) -> int {
    int value = 0;
    std::from_chars(text.data(), text.data() + text.size(), value);
    return value;
  };
  // Split a trailing "@<s>" snapshot marker.
  std::string base = index_class;
  size_t snapshot = fups.size();
  if (size_t at = base.rfind('@'); at != std::string::npos) {
    snapshot = static_cast<size_t>(parse_int(base.substr(at + 1)));
    base = base.substr(0, at);
  }
  std::vector<PathExpression> applied(
      fups.begin(),
      fups.begin() +
          static_cast<ptrdiff_t>(std::min(snapshot, fups.size())));

  if (base.size() >= 4 && base.compare(0, 2, "A(") == 0) {
    AkIndex index(g, parse_int(base.substr(2)));
    return index.Query(query).answer;
  }
  if (base == "1-index") {
    OneIndex index(g);
    return index.Query(query).answer;
  }
  if (base == "D(k)-construct") {
    DkIndex index = DkIndex::Construct(g, applied);
    return index.Query(query).answer;
  }
  if (base == "D(k)-promote") {
    DkIndex index(g);
    for (const PathExpression& fup : applied) index.Promote(fup);
    return index.Query(query).answer;
  }
  if (base.compare(0, 3, "UD(") == 0) {
    const size_t comma = base.find(',');
    if (comma == std::string::npos) {
      return Status::InvalidArgument("bad UD class: " + index_class);
    }
    UdklIndex index(g, parse_int(base.substr(3)),
                    parse_int(base.substr(comma + 1)));
    return index.Query(query).answer;
  }
  if (base == "M(k)") {
    MkIndex index(g);
    for (const PathExpression& fup : applied) index.Refine(fup);
    return index.Query(query).answer;
  }
  for (MStarQueryStrategy strategy : kMStarQueryStrategies) {
    if (base != std::string("M*:") + StrategyName(strategy)) continue;
    MStarIndex index(g);
    for (const PathExpression& fup : applied) index.Refine(fup);
    DataEvaluator validator(g);
    return index.Query(strategy, query, &validator).answer;
  }
  return Status::InvalidArgument("unknown index class: " + index_class);
}

}  // namespace mrx::check
