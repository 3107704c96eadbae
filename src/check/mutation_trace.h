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
/// reject is a maintained no-op), which makes every *subsequence* of steps
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
  int k_max = 3;
  double rebuild_threshold = 0.25;
  bool maintain_dk = true;   ///< Also keep + check the D(k) chain.
  bool check_mstar = true;   ///< Exported specs vs a static rebuild.
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

/// \brief Replays `trace` through an IncrementalMaintainer and, after every
/// applied batch, cross-checks the incrementally maintained state against
/// from-scratch oracles on the current graph:
///
///   csr:    AuditDataGraphCsr on the materialized version
///   A(k):   canonical block_of vs ComputeKBisimulation, k = 0..k_max
///   D(k):   canonical block_of vs ComputeDkConstructPartition for the
///           trace's query set (when maintain_dk)
///   M*:     ExportStaticSpecs byte-equal to the static hierarchy's specs,
///           and every trace query answered on BuildMStar() equal to
///           DataEvaluator ground truth (when check_mstar)
///
/// The maintainer is the system under test; every oracle is an independent
/// from-scratch rebuild.
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
  size_t mutation_batches = 40;
  size_t ops_per_batch = 3;
  size_t num_queries = 16;
  size_t max_nodes = 96;
  size_t refine_after = 2;   ///< Kept low so refinement races mutations.
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
/// epochs must be monotone; after the run every query is re-checked on the
/// final version.
MutationStressReport RunMutationStress(const MutationStressOptions& options);

}  // namespace mrx::check

#endif  // MRX_CHECK_MUTATION_TRACE_H_
