#include "check/mutation_trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/checker.h"
#include "index/evaluator.h"
#include "util/rng.h"

namespace mrx::check {
namespace {

MutationTraceOptions SmallOptions() {
  MutationTraceOptions options;
  options.num_steps = 4;
  options.ops_per_batch = 2;
  options.gen.max_nodes = 24;
  options.gen.num_queries = 3;
  options.gen.allow_dtd = false;
  return options;
}

TEST(MutationTraceTest, GeneratedTracesReplayClean) {
  const MutationTraceOptions options = SmallOptions();
  size_t applied = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    Rng rng(CaseSeed(11, i));
    const MutationTrace trace = GenerateMutationTrace(rng, options);
    const TraceResult result = RunMutationTrace(trace, options);
    EXPECT_TRUE(result.ok()) << "trace " << i << ": "
                             << result.violations.front();
    EXPECT_GT(result.checks, 0u);
    applied += result.steps_applied;
  }
  // Random batches may individually be rejected, but across 20 traces the
  // harness must actually exercise mutations, not just the seed state.
  EXPECT_GT(applied, 20u);
}

TEST(MutationTraceTest, GenerationIsDeterministicInSeed) {
  const MutationTraceOptions options = SmallOptions();
  Rng a(CaseSeed(3, 7));
  Rng b(CaseSeed(3, 7));
  EXPECT_EQ(GenerateMutationTrace(a, options).ToText(),
            GenerateMutationTrace(b, options).ToText());
}

TEST(MutationTraceTest, SerializeParseRoundTrip) {
  const MutationTraceOptions options = SmallOptions();
  Rng rng(CaseSeed(5, 2));
  const MutationTrace trace = GenerateMutationTrace(rng, options);
  ASSERT_FALSE(trace.steps.empty());

  Result<MutationTrace> parsed = ParseTrace(trace.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToText(), trace.ToText());
  EXPECT_EQ(parsed->initial.labels, trace.initial.labels);
  EXPECT_EQ(parsed->queries.size(), trace.queries.size());
  EXPECT_EQ(parsed->steps.size(), trace.steps.size());

  // The parsed trace replays to the same verdict.
  const TraceResult original = RunMutationTrace(trace, options);
  const TraceResult replayed = RunMutationTrace(*parsed, options);
  EXPECT_EQ(original.ok(), replayed.ok());
  EXPECT_EQ(original.steps_applied, replayed.steps_applied);
}

TEST(MutationTraceTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTrace("").ok());
  EXPECT_FALSE(ParseTrace("n a\n").ok());  // Missing header.
  EXPECT_FALSE(ParseTrace("mrxtrace 1\nbogus line\n").ok());
  EXPECT_FALSE(ParseTrace("mrxtrace 1\nn a\ne 0 1 sideways\n").ok());
  EXPECT_FALSE(ParseTrace("mrxtrace 1\nn a\nbatch\nappend 0 2 x\n").ok());
  // Counts that would wrap a bound computed by adding or multiplying them.
  EXPECT_FALSE(
      ParseTrace("mrxtrace 1\nn a\nbatch\nappend 0 18446744073709551615\n")
          .ok());
  EXPECT_FALSE(ParseTrace("mrxtrace 1\nn a\nbatch\n"
                          "append 0 1 x 6148914691236517206 0 0\n")
                   .ok());
}

TEST(MutationTraceTest, HandCraftedTraceReplays) {
  // r(0) -> a(1) -> b(2); append a "b" leaf under the a, then delete it.
  const std::string text =
      "mrxtrace 1\n"
      "root 0\n"
      "n r\nn a\nn b\n"
      "e 0 1 reg\ne 1 2 reg\n"
      "query anchored 1\n"
      "step a 0\nstep b 0\n"
      "batch\n"
      "append 1 1 b 0\n"
      "batch\n"
      "delete 3\n";
  Result<MutationTrace> trace = ParseTrace(text);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  MutationTraceOptions options = SmallOptions();
  const TraceResult result = RunMutationTrace(*trace, options);
  EXPECT_TRUE(result.ok()) << result.violations.front();
  EXPECT_EQ(result.steps_applied, 2u);
}

TEST(MutationTraceTest, ShrinkerKeepsTracesFailingAndDropsNoise) {
  // The structural contract on a passing trace: shrinking it returns it
  // unchanged.
  const MutationTraceOptions options = SmallOptions();
  Rng rng(CaseSeed(9, 0));
  const MutationTrace trace = GenerateMutationTrace(rng, options);
  ASSERT_TRUE(RunMutationTrace(trace, options).ok());
  const MutationTrace shrunk = ShrinkMutationTrace(trace, options, 50);
  EXPECT_EQ(shrunk.ToText(), trace.ToText());
}

TEST(MutationTraceTest, InjectedFaultIsReported) {
  // The check must see a wrong answer from the serving writer: with the
  // fault injected, every non-empty answer drops one node.
  const MutationTraceOptions options = SmallOptions();
  size_t failing = 0;
  fault::inject_extent_drop.store(true);
  for (uint64_t i = 0; i < 5; ++i) {
    Rng rng(CaseSeed(11, i));
    const MutationTrace trace = GenerateMutationTrace(rng, options);
    if (!RunMutationTrace(trace, options).ok()) ++failing;
  }
  fault::inject_extent_drop.store(false);
  EXPECT_GT(failing, 0u);
}

TEST(MutationTraceTest, CheckRunAggregatesCleanTraces) {
  MutationCheckOptions options;
  options.seed = 17;
  options.num_traces = 10;
  options.trace = SmallOptions();
  std::ostringstream log;
  options.log = &log;
  const MutationCheckSummary summary = RunMutationTraceCheck(options);
  EXPECT_TRUE(summary.ok()) << (summary.failures.empty()
                                    ? "violations without failures"
                                    : summary.failures.front().note);
  EXPECT_EQ(summary.traces, 10u);
  EXPECT_GT(summary.checks, 0u);
  EXPECT_TRUE(summary.failures.empty());
}

TEST(MutationTraceTest, StressRunStaysExact) {
  MutationStressOptions options;
  options.seed = 23;
  options.threads = 2;
  options.mutation_batches = 10;
  options.num_queries = 4;
  options.max_nodes = 32;
  const MutationStressReport report = RunMutationStress(options);
  EXPECT_TRUE(report.ok()) << "mismatches=" << report.mismatches
                           << " epoch_regressions=" << report.epoch_regressions
                           << " final=" << report.final_mismatches;
  EXPECT_GT(report.queries_run, 0u);
}

TEST(MutationTraceTest, StressWithoutBatchesRacesReadersAndThePooledRefiner) {
  MutationStressOptions options;
  options.seed = 5;
  options.threads = 3;
  options.rounds = 100;
  options.mutation_batches = 0;
  options.refine_threads = 2;
  const MutationStressReport report = RunMutationStress(options);
  EXPECT_TRUE(report.ok()) << "mismatches=" << report.mismatches
                           << " epoch_regressions=" << report.epoch_regressions
                           << " final=" << report.final_mismatches;
  EXPECT_GE(report.queries_run, options.threads * options.rounds);
  EXPECT_EQ(report.mutations_applied, 0u);
  EXPECT_EQ(report.held_batches, 0u);
  EXPECT_GT(report.trace_spans, 0u);
}

}  // namespace
}  // namespace mrx::check
