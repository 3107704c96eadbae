#include "check/mutation_trace.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "check/checker.h"
#include "check/invariants.h"
#include "check/oracle.h"
#include "index/m_star_index.h"
#include "mutate/mutable_graph.h"
#include "mutate/random_batch.h"
#include "obs/trace.h"
#include "query/data_evaluator.h"
#include "server/concurrent_session.h"
#include "util/string_util.h"
#include "workload/fup_extractor.h"

namespace mrx::check {
namespace {

/// \brief An independent shadow of the mutable graph: labels by stable id,
/// an alive set, and a flat edge set, with mutation semantics implemented
/// from the Mutation contract alone (no MutableDataGraph code). If the
/// subsystem materializes a graph the shadow disagrees with, the graph
/// itself is wrong — the answer and replay checks could not see that,
/// since they compare against oracles run on the same (wrong) graph.
class ShadowModel {
 public:
  explicit ShadowModel(const DataGraph& g) : root_(g.root()) {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      labels_.emplace_back(g.label_name(n));
      alive_.push_back(true);
    }
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const auto kids = g.children(n);
      const auto kinds = g.child_kinds(n);
      for (size_t i = 0; i < kids.size(); ++i) {
        edges_.insert({n, kids[i], kinds[i] == EdgeKind::kReference});
      }
    }
  }

  /// Ascending alive stable ids — the compaction order the contract pins.
  std::vector<uint32_t> CompactOrder() const {
    std::vector<uint32_t> order;
    for (uint32_t s = 0; s < labels_.size(); ++s) {
      if (alive_[s]) order.push_back(s);
    }
    return order;
  }

  /// Replays an *accepted* batch (ids in the pre-batch compact space).
  void Apply(const mutate::MutationBatch& batch) {
    const std::vector<uint32_t> stable = CompactOrder();
    for (const mutate::Mutation& op : batch) {
      switch (op.kind) {
        case mutate::Mutation::Kind::kAppendSubtree: {
          const uint32_t parent = stable[op.target];
          const uint32_t base = static_cast<uint32_t>(labels_.size());
          for (const std::string& label : op.subtree.labels) {
            labels_.push_back(label);
            alive_.push_back(true);
          }
          edges_.insert({parent, base, false});
          for (const auto& e : op.subtree.edges) {
            edges_.insert({base + e.from, base + e.to,
                           e.kind == EdgeKind::kReference});
          }
          break;
        }
        case mutate::Mutation::Kind::kDeleteSubtree: {
          // Doomed set: regular-edge closure from the victim, alive only.
          std::vector<uint32_t> frontier = {stable[op.target]};
          std::set<uint32_t> doomed(frontier.begin(), frontier.end());
          while (!frontier.empty()) {
            const uint32_t u = frontier.back();
            frontier.pop_back();
            for (const auto& [from, to, ref] : edges_) {
              if (from == u && !ref && alive_[to] && doomed.insert(to).second) {
                frontier.push_back(to);
              }
            }
          }
          for (uint32_t d : doomed) alive_[d] = false;
          std::erase_if(edges_, [&](const auto& e) {
            return doomed.count(std::get<0>(e)) != 0 ||
                   doomed.count(std::get<1>(e)) != 0;
          });
          break;
        }
        case mutate::Mutation::Kind::kAddRefEdge:
          edges_.insert({stable[op.target], stable[op.ref_target], true});
          break;
        case mutate::Mutation::Kind::kRemoveRefEdge:
          edges_.erase({stable[op.target], stable[op.ref_target], true});
          break;
      }
    }
  }

  /// Compares against a materialized version; returns violation messages.
  std::vector<std::string> Compare(const DataGraph& g) const {
    std::vector<std::string> out;
    const std::vector<uint32_t> order = CompactOrder();
    if (order.size() != g.num_nodes()) {
      out.push_back("shadow: node count " + std::to_string(order.size()) +
                    " vs materialized " + std::to_string(g.num_nodes()));
      return out;
    }
    std::vector<uint32_t> compact(labels_.size(), 0);
    for (size_t c = 0; c < order.size(); ++c) {
      compact[order[c]] = static_cast<uint32_t>(c);
      if (g.label_name(static_cast<NodeId>(c)) != labels_[order[c]]) {
        out.push_back("shadow: label of compact " + std::to_string(c) +
                      ": expected " + labels_[order[c]] + ", got " +
                      std::string(g.label_name(static_cast<NodeId>(c))));
      }
    }
    if (g.root() != compact[root_]) {
      out.push_back("shadow: root " + std::to_string(compact[root_]) +
                    " vs materialized " + std::to_string(g.root()));
    }
    std::set<std::tuple<uint32_t, uint32_t, bool>> expected;
    for (const auto& [from, to, ref] : edges_) {
      expected.insert({compact[from], compact[to], ref});
    }
    std::set<std::tuple<uint32_t, uint32_t, bool>> got;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const auto kids = g.children(n);
      const auto kinds = g.child_kinds(n);
      for (size_t i = 0; i < kids.size(); ++i) {
        got.insert({n, kids[i], kinds[i] == EdgeKind::kReference});
      }
    }
    if (expected != got) {
      out.push_back("shadow: edge sets differ (" +
                    std::to_string(expected.size()) + " expected, " +
                    std::to_string(got.size()) + " materialized)");
    }
    return out;
  }

 private:
  std::vector<std::string> labels_;  ///< By stable id, dead slots kept.
  std::vector<bool> alive_;
  std::set<std::tuple<uint32_t, uint32_t, bool>> edges_;  ///< Stable ids.
  uint32_t root_;
};

/// The first difference between two hierarchies over the same graph,
/// compared component by component (alive node ids, k, supernode and
/// extent); empty when they are equal.
std::string HierarchyDiff(const MStarIndex& got, const MStarIndex& want) {
  if (got.num_components() != want.num_components()) {
    return std::to_string(got.num_components()) + " components, expected " +
           std::to_string(want.num_components());
  }
  for (size_t i = 0; i < want.num_components(); ++i) {
    const IndexGraph& a = got.component(i);
    const IndexGraph& b = want.component(i);
    const std::string where = "component " + std::to_string(i) + ": ";
    const std::vector<IndexNodeId> nodes = b.AliveNodes();
    if (a.AliveNodes() != nodes) return where + "node ids differ";
    for (IndexNodeId v : nodes) {
      if (a.node(v).k != b.node(v).k ||
          a.node(v).extent != b.node(v).extent ||
          (i > 0 && got.supernode(i, v) != want.supernode(i, v))) {
        return where + "node " + std::to_string(v) + " differs";
      }
    }
  }
  return {};
}

/// Cross-checks what `session` publishes now against the shadow model and
/// ground truth: the graph (shadow, CSR audit), the index (built over that
/// graph, Properties audit) and every query's answer. With `fups` it also
/// checks that the index equals a fresh one over the same graph refined by
/// `fups` in order — what the writer's replay must publish.
void CheckPublished(server::ConcurrentSession& session,
                    const ShadowModel& shadow,
                    const std::vector<PathExpression>& queries,
                    const std::vector<PathExpression>* fups,
                    const MutationTraceOptions& options,
                    const std::string& where, TraceResult* result) {
  auto fail = [&](std::string message) {
    result->violations.push_back(where + ": " + std::move(message));
  };
  const std::shared_ptr<const DataGraph> graph = session.graph_snapshot();
  const std::shared_ptr<const MStarIndex> index = session.index_snapshot();
  const DataGraph& g = *graph;

  for (std::string& v : shadow.Compare(g)) fail(std::move(v));
  result->checks += 2;  // The shadow, and the graph under the index.
  if (&index->component(0).data() != &g) {
    fail("M*: the published index is over another graph");
    return;
  }
  if (options.audit_invariants) {
    for (std::string& v : AuditDataGraphCsr(g)) fail(std::move(v));
    for (std::string& v : AuditMStarIndex(*index)) fail(std::move(v));
    result->checks += 2;
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ++result->checks;
    if (session.Peek(queries[qi]).answer != GroundTruth(g, queries[qi])) {
      fail("query " + std::to_string(qi) +
           " disagrees with ground truth on the published graph");
    }
  }
  if (fups != nullptr) {
    MStarIndex fresh(g);
    fresh.RefineBatch(*fups);
    ++result->checks;
    const std::string diff = HierarchyDiff(*index, fresh);
    if (!diff.empty()) {
      fail("M*: published index != fresh replay of the FUPs (" + diff + ")");
    }
  }
}

Result<uint64_t> ParseUint(std::string_view token, std::string_view what) {
  uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::ParseError("mrxtrace: bad " + std::string(what) + ": " +
                              std::string(token));
  }
  return value;
}

}  // namespace

std::string MutationTrace::ToText() const {
  std::ostringstream out;
  out << "mrxtrace 1\n";
  if (!shape.empty()) out << "shape " << shape << "\n";
  out << "root " << initial.root << "\n";
  for (const std::string& label : initial.labels) out << "n " << label << "\n";
  for (const GraphSpec::Edge& e : initial.edges) {
    out << "e " << e.from << " " << e.to << (e.reference ? " ref" : " reg")
        << "\n";
  }
  for (const QuerySpec& q : queries) {
    out << "query anchored " << (q.anchored ? 1 : 0) << "\n";
    for (size_t i = 0; i < q.steps.size(); ++i) {
      const int desc = i < q.descendant.size() && q.descendant[i] ? 1 : 0;
      out << "step " << q.steps[i] << " " << desc << "\n";
    }
  }
  for (const mutate::MutationBatch& batch : steps) {
    out << "batch\n";
    for (const mutate::Mutation& op : batch) {
      switch (op.kind) {
        case mutate::Mutation::Kind::kAppendSubtree: {
          out << "append " << op.target << " " << op.subtree.labels.size();
          for (const std::string& label : op.subtree.labels) {
            out << " " << label;
          }
          out << " " << op.subtree.edges.size();
          for (const auto& e : op.subtree.edges) {
            out << " " << e.from << " " << e.to
                << (e.kind == EdgeKind::kReference ? " ref" : " reg");
          }
          out << "\n";
          break;
        }
        case mutate::Mutation::Kind::kDeleteSubtree:
          out << "delete " << op.target << "\n";
          break;
        case mutate::Mutation::Kind::kAddRefEdge:
          out << "addref " << op.target << " " << op.ref_target << "\n";
          break;
        case mutate::Mutation::Kind::kRemoveRefEdge:
          out << "rmref " << op.target << " " << op.ref_target << "\n";
          break;
      }
    }
  }
  return out.str();
}

Result<MutationTrace> ParseTrace(const std::string& text) {
  MutationTrace trace;
  QuerySpec* open_query = nullptr;
  bool saw_header = false;
  bool in_batches = false;

  for (std::string_view raw : Split(text, '\n')) {
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string_view> tokens = SplitSkipEmpty(line, ' ');
    const std::string_view kind = tokens[0];

    if (kind == "mrxtrace") {
      saw_header = true;
      continue;
    }
    if (!saw_header) return Status::ParseError("mrxtrace: missing header");

    if (kind == "shape" && tokens.size() == 2) {
      trace.shape = std::string(tokens[1]);
    } else if (kind == "root" && tokens.size() == 2) {
      MRX_ASSIGN_OR_RETURN(uint64_t root, ParseUint(tokens[1], "root"));
      trace.initial.root = static_cast<uint32_t>(root);
    } else if (kind == "n" && tokens.size() == 2) {
      trace.initial.labels.emplace_back(tokens[1]);
    } else if (kind == "e" && tokens.size() == 4) {
      MRX_ASSIGN_OR_RETURN(uint64_t from, ParseUint(tokens[1], "edge from"));
      MRX_ASSIGN_OR_RETURN(uint64_t to, ParseUint(tokens[2], "edge to"));
      if (tokens[3] != "ref" && tokens[3] != "reg") {
        return Status::ParseError("mrxtrace: bad edge kind: " +
                                  std::string(tokens[3]));
      }
      trace.initial.edges.push_back({static_cast<uint32_t>(from),
                                     static_cast<uint32_t>(to),
                                     tokens[3] == "ref"});
    } else if (kind == "query" && tokens.size() == 3 &&
               tokens[1] == "anchored" && !in_batches) {
      MRX_ASSIGN_OR_RETURN(uint64_t anchored,
                           ParseUint(tokens[2], "anchored"));
      trace.queries.emplace_back();
      open_query = &trace.queries.back();
      open_query->anchored = anchored != 0;
    } else if (kind == "step" && tokens.size() == 3) {
      if (open_query == nullptr) {
        return Status::ParseError("mrxtrace: step before query");
      }
      MRX_ASSIGN_OR_RETURN(uint64_t desc, ParseUint(tokens[2], "descendant"));
      open_query->steps.emplace_back(tokens[1]);
      open_query->descendant.push_back(desc != 0 ? 1 : 0);
    } else if (kind == "batch" && tokens.size() == 1) {
      in_batches = true;
      open_query = nullptr;
      trace.steps.emplace_back();
    } else if (kind == "delete" && tokens.size() == 2 && in_batches) {
      MRX_ASSIGN_OR_RETURN(uint64_t target, ParseUint(tokens[1], "target"));
      trace.steps.back().push_back(
          mutate::Mutation::Delete(static_cast<NodeId>(target)));
    } else if ((kind == "addref" || kind == "rmref") && tokens.size() == 3 &&
               in_batches) {
      MRX_ASSIGN_OR_RETURN(uint64_t from, ParseUint(tokens[1], "ref from"));
      MRX_ASSIGN_OR_RETURN(uint64_t to, ParseUint(tokens[2], "ref to"));
      trace.steps.back().push_back(
          kind == "addref"
              ? mutate::Mutation::AddRef(static_cast<NodeId>(from),
                                         static_cast<NodeId>(to))
              : mutate::Mutation::RemoveRef(static_cast<NodeId>(from),
                                            static_cast<NodeId>(to)));
    } else if (kind == "append" && tokens.size() >= 3 && in_batches) {
      MRX_ASSIGN_OR_RETURN(uint64_t target, ParseUint(tokens[1], "target"));
      MRX_ASSIGN_OR_RETURN(uint64_t nlabels,
                           ParseUint(tokens[2], "label count"));
      size_t cursor = 3;
      mutate::SubtreeSpec spec;
      // Counts are bounded by the tokens left, never summed with them: a
      // hostile count must not wrap the bound.
      if (nlabels >= tokens.size() - cursor) {
        return Status::ParseError("mrxtrace: truncated append");
      }
      for (uint64_t i = 0; i < nlabels; ++i) {
        spec.labels.emplace_back(tokens[cursor++]);
      }
      MRX_ASSIGN_OR_RETURN(uint64_t nedges,
                           ParseUint(tokens[cursor++], "edge count"));
      if ((tokens.size() - cursor) % 3 != 0 ||
          nedges != (tokens.size() - cursor) / 3) {
        return Status::ParseError("mrxtrace: truncated append edges");
      }
      for (uint64_t i = 0; i < nedges; ++i) {
        MRX_ASSIGN_OR_RETURN(uint64_t from,
                             ParseUint(tokens[cursor++], "subtree from"));
        MRX_ASSIGN_OR_RETURN(uint64_t to,
                             ParseUint(tokens[cursor++], "subtree to"));
        const std::string_view ek = tokens[cursor++];
        if (ek != "ref" && ek != "reg") {
          return Status::ParseError("mrxtrace: bad subtree edge kind: " +
                                    std::string(ek));
        }
        spec.edges.push_back({static_cast<uint32_t>(from),
                              static_cast<uint32_t>(to),
                              ek == "ref" ? EdgeKind::kReference
                                          : EdgeKind::kRegular});
      }
      trace.steps.back().push_back(
          mutate::Mutation::Append(static_cast<NodeId>(target),
                                   std::move(spec)));
    } else {
      return Status::ParseError("mrxtrace: unrecognized line: " +
                                std::string(line));
    }
  }
  if (trace.initial.labels.empty()) {
    return Status::ParseError("mrxtrace: no nodes");
  }
  return trace;
}

MutationTrace GenerateMutationTrace(Rng& rng,
                                    const MutationTraceOptions& options) {
  MutationTrace trace;
  GeneratedCase gcase = GenerateCase(rng, options.gen);
  trace.initial = std::move(gcase.graph);
  trace.queries = std::move(gcase.queries);
  trace.shape = std::move(gcase.shape);

  Result<DataGraph> g = trace.initial.Build();
  if (!g.ok()) return trace;  // No steps; replay reports the build failure.

  // Each batch is generated against the evolving graph so its ids are
  // valid at application time; rejected batches are recorded anyway (they
  // replay as skips, keeping generation and replay in lockstep).
  mutate::RandomBatchOptions gen;
  gen.num_ops = options.ops_per_batch;
  // `live` reads every row no batch edits from *g, which outlives it.
  mutate::MutableDataGraph live(*g);
  auto mat = live.Materialize();
  for (size_t s = 0; s < options.num_steps && mat.ok(); ++s) {
    mutate::MutationBatch batch =
        mutate::GenerateRandomBatch(rng, mat->graph, gen);
    trace.steps.push_back(batch);
    if (live.ApplyBatch(batch, mat->stable_of).ok()) {
      mat = live.Materialize();
    }
  }
  return trace;
}

TraceResult RunMutationTrace(const MutationTrace& trace,
                             const MutationTraceOptions& options) {
  TraceResult result;
  Result<DataGraph> initial = trace.initial.Build();
  if (!initial.ok()) {
    result.violations.push_back("trace: initial graph does not build: " +
                                initial.status().ToString());
    return result;
  }

  std::vector<PathExpression> queries;
  for (const QuerySpec& spec : trace.queries) {
    Result<PathExpression> q = spec.Compile(initial->symbols());
    if (q.ok()) queries.push_back(*std::move(q));
  }

  // Promote every query as a FUP, in trace order, as a client would.
  server::ConcurrentSessionOptions so;
  so.refine_after = 1;
  server::ConcurrentSession session(*initial, so);
  FupExtractor promotions(FupExtractor::Options{1, 0});
  for (const PathExpression& q : queries) {
    promotions.Observe(q);
    session.Query(q);
  }
  session.DrainRefinements();
  const std::vector<PathExpression>& fups = promotions.fups();
  ShadowModel shadow(*initial);

  CheckPublished(session, shadow, queries, &fups, options, "seed", &result);
  for (size_t s = 0; s < trace.steps.size(); ++s) {
    const std::string where = "step " + std::to_string(s);
    // The hold keeps the coarse index published until it has been checked.
    fault::hold_replay.Arm();
    const bool applied = session.ApplyMutations(trace.steps[s]).ok();
    if (applied) {
      shadow.Apply(trace.steps[s]);
      ++result.steps_applied;
      CheckPublished(session, shadow, queries, nullptr, options,
                     where + " (coarse)", &result);
    }
    fault::hold_replay.Release();
    if (!applied) continue;  // A reject is a no-op.
    session.DrainRefinements();
    CheckPublished(session, shadow, queries, &fups, options,
                   where + " (replayed)", &result);
  }
  return result;
}

MutationTrace ShrinkMutationTrace(const MutationTrace& trace,
                                  const MutationTraceOptions& options,
                                  size_t max_attempts) {
  auto fails = [&](const MutationTrace& candidate) {
    return !RunMutationTrace(candidate, options).ok();
  };
  if (!fails(trace)) return trace;

  MutationTrace best = trace;
  size_t attempts = 0;
  bool changed = true;
  while (changed && attempts < max_attempts) {
    changed = false;
    // Whole steps, last to first (later steps depend on earlier ids, so
    // the tail is the cheapest to lose).
    for (size_t i = best.steps.size(); i-- > 0 && attempts < max_attempts;) {
      MutationTrace candidate = best;
      candidate.steps.erase(candidate.steps.begin() +
                            static_cast<ptrdiff_t>(i));
      ++attempts;
      if (fails(candidate)) {
        best = std::move(candidate);
        changed = true;
      }
    }
    // Single ops within steps.
    for (size_t s = 0; s < best.steps.size() && attempts < max_attempts;
         ++s) {
      for (size_t o = best.steps[s].size();
           o-- > 0 && attempts < max_attempts;) {
        MutationTrace candidate = best;
        candidate.steps[s].erase(candidate.steps[s].begin() +
                                 static_cast<ptrdiff_t>(o));
        if (candidate.steps[s].empty()) {
          candidate.steps.erase(candidate.steps.begin() +
                                static_cast<ptrdiff_t>(s));
        }
        ++attempts;
        if (fails(candidate)) {
          best = std::move(candidate);
          changed = true;
          if (s >= best.steps.size()) break;
        }
      }
    }
    // Queries (they are the FUPs and the answer checks).
    for (size_t q = best.queries.size();
         q-- > 0 && best.queries.size() > 1 && attempts < max_attempts;) {
      MutationTrace candidate = best;
      candidate.queries.erase(candidate.queries.begin() +
                              static_cast<ptrdiff_t>(q));
      ++attempts;
      if (fails(candidate)) {
        best = std::move(candidate);
        changed = true;
      }
    }
  }
  return best;
}

MutationCheckSummary RunMutationTraceCheck(
    const MutationCheckOptions& options) {
  MutationCheckSummary summary;
  for (uint64_t i = 0; i < options.num_traces; ++i) {
    Rng rng(CaseSeed(options.seed, i));
    const MutationTrace trace = GenerateMutationTrace(rng, options.trace);
    const TraceResult result = RunMutationTrace(trace, options.trace);
    ++summary.traces;
    summary.steps_applied += result.steps_applied;
    summary.checks += result.checks;
    summary.violations += result.violations.size();
    if (result.ok()) continue;

    if (options.log != nullptr) {
      *options.log << "mutate: trace " << i << " FAILED: "
                   << result.violations.front() << "\n";
    }
    MutationCheckFailure failure;
    failure.trace_index = i;
    failure.repro = ShrinkMutationTrace(trace, options.trace);
    const TraceResult shrunk = RunMutationTrace(failure.repro, options.trace);
    failure.note = shrunk.violations.empty() ? result.violations.front()
                                             : shrunk.violations.front();
    failure.shrunk_steps = failure.repro.steps.size();
    if (!options.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.out_dir, ec);
      const std::filesystem::path path =
          std::filesystem::path(options.out_dir) /
          ("trace_" + std::to_string(options.seed) + "_" + std::to_string(i) +
           ".mrxtrace");
      std::ofstream out(path, std::ios::trunc);
      if (out) {
        out << failure.repro.ToText() << "# " << failure.note << "\n";
        failure.file = path.string();
      }
    }
    summary.failures.push_back(std::move(failure));
    if (summary.failures.size() >= options.max_failures) break;
  }
  return summary;
}

MutationStressReport RunMutationStress(const MutationStressOptions& options) {
  MutationStressReport report;
  Rng rng(options.seed);
  CaseGenOptions gen;
  gen.max_nodes = options.max_nodes;
  gen.num_queries = options.num_queries;
  // Batches are drawn on the structural shapes only; with no batches the
  // DTD-generated shapes join them.
  gen.allow_dtd = options.mutation_batches == 0;
  GeneratedCase gcase = GenerateCase(rng, gen);
  report.shape = gcase.shape;
  Result<DataGraph> built = gcase.graph.Build();
  if (!built.ok()) return report;
  const DataGraph& g = *built;

  std::vector<PathExpression> queries;
  for (const QuerySpec& spec : gcase.queries) {
    Result<PathExpression> q = spec.Compile(g.symbols());
    if (q.ok()) queries.push_back(*std::move(q));
  }
  if (queries.empty()) return report;

  obs::TraceRecorder tracer;  // Outlives the session that records into it.
  server::ConcurrentSessionOptions session_options;
  session_options.refine_after = options.refine_after;
  session_options.refine_threads = options.refine_threads;
  session_options.tracer = &tracer;
  server::ConcurrentSession session(g, session_options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_run{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> epoch_regressions{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < std::max<size_t>(1, options.threads); ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      for (size_t r = 0; r < options.rounds || !stop.load(); ++r) {
        const PathExpression& q = queries[(t + r) % queries.size()];
        const server::ConcurrentSession::VersionedAnswer a =
            session.QueryVersioned(q);
        queries_run.fetch_add(1, std::memory_order_relaxed);
        if (a.epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = a.epoch;
        // Ground truth on the answering snapshot — only comparable when
        // the published version did not move in between (checked after
        // acquiring, so a match pins the snapshot to a.graph_version).
        std::shared_ptr<const DataGraph> snapshot = session.graph_snapshot();
        if (session.graph_version() == a.graph_version) {
          DataEvaluator oracle(*snapshot);
          if (oracle.Evaluate(q) != a.result.answer) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  mutate::RandomBatchOptions batch_gen;
  batch_gen.num_ops = options.ops_per_batch;
  for (size_t b = 0; b < options.mutation_batches; ++b) {
    std::shared_ptr<const DataGraph> snapshot = session.graph_snapshot();
    const mutate::MutationBatch batch =
        mutate::GenerateRandomBatch(rng, *snapshot, batch_gen);
    // On alternate batches, hold the refiner between the coarse publish
    // and the FUP replay until every reader has answered on the coarse
    // index (bounded, in case a sanitizer makes readers crawl). On graphs
    // this small an unforced replay closes that window in microseconds.
    const bool hold = b % 2 == 0;
    if (hold) fault::hold_replay.Arm();
    if (session.ApplyMutations(batch).ok()) ++report.mutations_applied;
    if (hold) {
      const uint64_t floor = queries_run.load() + readers.size();
      for (int spin = 0; spin < 200 && queries_run.load() < floor; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      fault::hold_replay.Release();
      ++report.held_batches;
    }
  }
  // Small batches can all land before the readers' first iteration; keep
  // the session open until every reader has seen the final version at
  // least once (bounded, in case a sanitizer makes readers crawl).
  const uint64_t floor = readers.size() * 2;
  for (int spin = 0; spin < 2000 && queries_run.load() < floor; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Readers now finish their floor of `rounds` queries, so this drain
  // races the drain protocol against live readers and still ends: once
  // they stop recording observations, the refiner catches up.
  stop.store(true);
  session.DrainRefinements();
  for (std::thread& t : readers) t.join();
  session.DrainRefinements();

  report.queries_run = queries_run.load();
  report.mismatches = mismatches.load();
  report.epoch_regressions = epoch_regressions.load();

  // Post-run: every query against ground truth on the final version, on
  // the observing and on the non-observing read path.
  std::shared_ptr<const DataGraph> final_graph = session.graph_snapshot();
  DataEvaluator oracle(*final_graph);
  for (const PathExpression& q : queries) {
    const std::vector<NodeId> want = oracle.Evaluate(q);
    if (session.Query(q).answer != want) ++report.final_mismatches;
    if (session.Peek(q).answer != want) ++report.final_mismatches;
  }
  for (const auto& shard : session.cache_shard_stats()) {
    report.stale_put_drops += shard.stale_drops;
  }
  report.publications = session.index_publications();
  report.trace_spans = tracer.size();
  return report;
}

}  // namespace mrx::check
