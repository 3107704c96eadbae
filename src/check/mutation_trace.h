#ifndef MRX_CHECK_MUTATION_TRACE_H_
#define MRX_CHECK_MUTATION_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "check/case_gen.h"
#include "check/graph_spec.h"
#include "mutate/mutation.h"
#include "util/result.h"
#include "util/rng.h"

namespace mrx::check {

/// \brief One replayable mutation trace: an initial graph, a query
/// workload, and a sequence of concrete mutation batches.
///
/// Batch node ids refer to the compact id space of the graph version
/// current when the batch is applied. Replay SKIPS rejected batches (a
/// rejected batch changes nothing), which makes every *subsequence* of steps
/// a valid trace — the property the shrinker leans on: dropping a step can
/// turn later steps invalid, and those then skip instead of poisoning the
/// replay.
struct MutationTrace {
  GraphSpec initial;
  std::vector<QuerySpec> queries;
  std::vector<mutate::MutationBatch> steps;
  std::string shape;  ///< Generator shape of the initial graph.

  /// Serializes as `.mrxtrace` text (line-oriented, versioned).
  std::string ToText() const;
};

/// Parses `.mrxtrace` text back into a trace.
Result<MutationTrace> ParseTrace(const std::string& text);

/// Knobs for trace generation and replay checking.
struct MutationTraceOptions {
  size_t num_steps = 6;      ///< Mutation batches per trace.
  size_t ops_per_batch = 3;
  bool audit_invariants = true;

  CaseGenOptions gen;  ///< Initial graph + query workload shapes.
};

/// Draws a trace: a generated case seeds the graph and queries, then each
/// step is a random batch generated against the evolving graph (so ids are
/// valid at application time). Deterministic in `rng`.
MutationTrace GenerateMutationTrace(Rng& rng,
                                    const MutationTraceOptions& options);

/// What replaying one trace found.
struct TraceResult {
  std::vector<std::string> violations;  ///< Empty = clean.
  size_t steps_applied = 0;             ///< Batches that were not rejected.
  size_t checks = 0;                    ///< Oracle comparisons performed.

  bool ok() const { return violations.empty(); }
};

/// \brief Replays `trace` through the serving writer and checks what it
/// publishes against independent oracles.
///
/// A ConcurrentSession (refine_after = 1) first promotes the trace's
/// queries as FUPs, in order. Each batch is then applied with
/// `ApplyMutations` while fault::hold_replay keeps the refiner from
/// replacing the coarse index, and checked twice:
///
///   coarse:   the published graph against a shadow model of the Mutation
///             contract and AuditDataGraphCsr; the published index is over
///             that graph and passes AuditMStarIndex; every query's Peek
///             answer equals DataEvaluator ground truth
///   replayed: after the hold is released and DrainRefinements returns,
///             the same checks, and the published index equals a fresh
///             MStarIndex over the graph refined by RefineBatch over the
///             FUPs in promotion order (extents, k and supernodes, component
///             by component)
///
/// The seed state gets the replayed checks before the first batch.
TraceResult RunMutationTrace(const MutationTrace& trace,
                             const MutationTraceOptions& options);

/// Shrinks a failing trace: greedily drops whole steps, then ops within
/// steps, then queries, keeping each removal that still fails. Returns the
/// minimized trace (== input if nothing could be removed).
MutationTrace ShrinkMutationTrace(const MutationTrace& trace,
                                  const MutationTraceOptions& options,
                                  size_t max_attempts = 400);

/// Knobs for `mrx check --mode mutate`.
struct MutationCheckOptions {
  uint64_t seed = 1;
  size_t num_traces = 200;
  MutationTraceOptions trace;
  /// Directory shrunk `.mrxtrace` repros are written into (created on
  /// demand); empty disables writing.
  std::string out_dir;
  size_t max_failures = 8;
  std::ostream* log = nullptr;
};

struct MutationCheckFailure {
  uint64_t trace_index = 0;
  std::string note;   ///< First violation of the shrunk trace.
  std::string file;   ///< .mrxtrace path, empty if not written.
  size_t shrunk_steps = 0;
  MutationTrace repro;
};

struct MutationCheckSummary {
  size_t traces = 0;
  size_t steps_applied = 0;
  size_t checks = 0;
  size_t violations = 0;
  std::vector<MutationCheckFailure> failures;

  bool ok() const { return violations == 0; }
};

/// \brief The mutation differential harness: `num_traces` seeded traces,
/// each replayed with per-step oracle cross-checks; failing traces are
/// shrunk and written as `.mrxtrace` files. Seeds are prefix-stable (same
/// CaseSeed scheme as RunCheck).
MutationCheckSummary RunMutationTraceCheck(const MutationCheckOptions& options);

/// Knobs for `mrx check --mode mutate-stress`.
struct MutationStressOptions {
  uint64_t seed = 1;
  size_t threads = 4;        ///< Reader threads.
  size_t rounds = 400;       ///< Queries each reader runs at least.
  /// Batches the main thread applies; 0 leaves the readers alone with
  /// the refiner.
  size_t mutation_batches = 40;
  size_t ops_per_batch = 3;
  size_t num_queries = 16;
  size_t max_nodes = 96;
  size_t refine_after = 2;   ///< Kept low so refinement races mutations.
  /// The refiner's pool size; >1 runs pooled refinement and replay under
  /// the same contention (results are identical either way).
  size_t refine_threads = 1;
};

/// Outcome of one mutation stress run (designed for -DMRX_SANITIZE=thread).
struct MutationStressReport {
  std::string shape;
  uint64_t queries_run = 0;
  uint64_t mutations_applied = 0;
  uint64_t mismatches = 0;         ///< Versioned answer != ground truth
                                   ///< for the answering version.
  uint64_t epoch_regressions = 0;  ///< Per-reader epoch went backwards.
  uint64_t final_mismatches = 0;   ///< Post-run answers vs ground truth.
  uint64_t stale_put_drops = 0;    ///< Cache inserts rejected by the guard.
  uint64_t held_batches = 0;       ///< Batches applied with the refiner
                                   ///< held (fault::hold_replay) until the
                                   ///< readers ran on the coarse index.
  uint64_t publications = 0;       ///< Index publications, all causes.
  uint64_t trace_spans = 0;        ///< Spans the session's tracer kept.

  bool ok() const {
    return mismatches == 0 && epoch_regressions == 0 &&
           final_mismatches == 0;
  }
};

/// \brief Hammers a ConcurrentSession from `threads` readers while the main
/// thread applies random mutation batches (and the background refiner
/// promotes FUPs). On alternate batches the refiner is held between the
/// coarse publish and the FUP replay, so readers are forced through that
/// window. Every versioned answer is cross-checked against
/// DataEvaluator ground truth on the snapshot that answered it; reader
/// epochs must be monotone. A DrainRefinements() checkpoint runs while
/// readers still query, and after the run every query's Query and Peek
/// answers are re-checked on the final version. The session traces into
/// a recorder of the harness's own, so the span path runs under the same
/// contention. Designed to run under -DMRX_SANITIZE=thread.
MutationStressReport RunMutationStress(const MutationStressOptions& options);

}  // namespace mrx::check

#endif  // MRX_CHECK_MUTATION_TRACE_H_
