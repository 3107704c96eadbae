#ifndef MRX_TOOLS_CLI_H_
#define MRX_TOOLS_CLI_H_

#include <ostream>
#include <string>
#include <vector>

namespace mrx::tools {

/// \brief The `mrx` command-line tool, as a testable library function.
///
/// Subcommands:
///   stats <file.xml|file.mrxg> [--metrics prom|json]
///                                           graph shape statistics, plus
///                                           the process metrics exposition
///   convert <in.xml|in.mrxg> <out.xml|out.mrxg>
///                                           XML ⇄ binary graph conversion
///   index build <graph> <out.mrxs> --fup <expr> [--fup <expr> ...]
///                                           build + refine an M*(k)-index
///   index info <graph> <index.mrxs>         component/size summary
///   query <graph> [index.mrxs] <expr> [--strategy auto|topdown|naive|
///                                       bottomup|hybrid]
///   generate xmark|nasa <out.xml> [--scale S] [--seed N]
///   workload <graph> [--count N] [--max-length L] [--seed N]
///                                           print a synthetic workload
///   diag <graph> [--queries N] [--count N] [--seed N] [--slow-query-ms X]
///        [--watchdog-ms N] [--flight on|off] [--out DIR] [--last N]
///                                           serve a seeded workload through
///                                           the concurrent query server
///                                           from one closed-loop client
///                                           and write the diagnostics
///                                           bundle (flight recorder, slow
///                                           queries, span trace,
///                                           Prometheus/JSONL expositions,
///                                           diag.json) into DIR
///   check [--mode diff|stress] [--seed N] [--cases M] [--out DIR]
///         [--fault on] [--threads N] [--rounds N] [--replay f.mrxcase]
///                                           differential correctness
///                                           harness (docs/TESTING.md):
///                                           randomized oracle cross-checks
///                                           + invariant audits (diff) or a
///                                           concurrent-session hammer
///                                           (stress); exit 1 on failure
///
/// Returns a process exit code; all human output goes to `out`, errors to
/// `err`. File formats are detected by suffix (.xml / .mrxg / .mrxs).
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace mrx::tools

#endif  // MRX_TOOLS_CLI_H_
