#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/flight_recorder.h"
#include "tests/json_check.h"
#include "tools/cli.h"

namespace mrx::tools {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunTool(std::vector<std::string> args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void WriteTempXml(const std::string& path) {
  std::ofstream f(path);
  f << "<site><person id=\"p0\"/><bidder person=\"p0\"/>"
       "<people><person id=\"p1\"/></people></site>";
}

TEST(CliTest, NoArgsPrintsUsage) {
  CliRun r = RunTool({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpIsSuccess) {
  CliRun r = RunTool({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CliRun r = RunTool({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, StatsOnXmlFile) {
  std::string path = TempPath("mrx_cli_stats.xml");
  WriteTempXml(path);
  CliRun r = RunTool({"stats", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("nodes: 5"), std::string::npos);
  EXPECT_NE(r.out.find("reference"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, StatsMissingFileFails) {
  CliRun r = RunTool({"stats", TempPath("does_not_exist.xml")});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error"), std::string::npos);
}

TEST(CliTest, ConvertRoundTrip) {
  std::string xml_path = TempPath("mrx_cli_convert.xml");
  std::string bin_path = TempPath("mrx_cli_convert.mrxg");
  std::string back_path = TempPath("mrx_cli_convert_back.xml");
  WriteTempXml(xml_path);
  EXPECT_EQ(RunTool({"convert", xml_path, bin_path}).code, 0);
  EXPECT_EQ(RunTool({"convert", bin_path, back_path}).code, 0);
  CliRun stats = RunTool({"stats", back_path});
  EXPECT_NE(stats.out.find("nodes: 5"), std::string::npos);
  for (const auto& p : {xml_path, bin_path, back_path}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, ConvertsDeeplyNestedDocument) {
  // 30k nested elements overflowed the recursive XML parser's stack.
  std::string xml_path = TempPath("mrx_cli_deep.xml");
  std::string bin_path = TempPath("mrx_cli_deep.mrxg");
  {
    std::ofstream f(xml_path);
    for (int i = 0; i < 30000; ++i) f << "<a>";
    for (int i = 0; i < 30000; ++i) f << "</a>";
  }
  CliRun r = RunTool({"convert", xml_path, bin_path});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const auto& p : {xml_path, bin_path}) std::remove(p.c_str());
}

TEST(CliTest, WritesDeeplyNestedGraphBackToXmlInLinearSpace) {
  // Two spaces of indentation per level made the output quadratic in
  // depth: 30k levels wrote 1.8 GB and 100k died with bad_alloc.
  constexpr int kDepth = 100000;
  std::string xml_path = TempPath("mrx_cli_deep_back.xml");
  std::string bin_path = TempPath("mrx_cli_deep_back.mrxg");
  std::string back_path = TempPath("mrx_cli_deep_back_out.xml");
  {
    std::ofstream f(xml_path);
    for (int i = 0; i < kDepth; ++i) f << "<a>";
    for (int i = 0; i < kDepth; ++i) f << "</a>";
  }
  ASSERT_EQ(RunTool({"convert", xml_path, bin_path}).code, 0);
  CliRun r = RunTool({"convert", bin_path, back_path});
  ASSERT_EQ(r.code, 0) << r.err;
  // Each level costs its two tags, two newlines and at most the capped
  // indentation, twice.
  EXPECT_LE(std::filesystem::file_size(back_path),
            static_cast<uintmax_t>(kDepth) * (9 + 4 * 32) + 64);
  CliRun stats = RunTool({"stats", back_path});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("nodes: 100000"), std::string::npos);
  for (const auto& p : {xml_path, bin_path, back_path}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, GenerateQueryAndIndexPipeline) {
  std::string doc_path = TempPath("mrx_cli_pipe.xml");
  std::string index_path = TempPath("mrx_cli_pipe.mrxs");
  CliRun gen = RunTool({"generate", "xmark", doc_path, "--scale", "0.01"});
  ASSERT_EQ(gen.code, 0) << gen.err;

  CliRun build = RunTool({"index", "build", doc_path, index_path, "--fup",
                      "//open_auction/seller/person"});
  ASSERT_EQ(build.code, 0) << build.err;
  EXPECT_NE(build.out.find("components"), std::string::npos);

  CliRun info = RunTool({"index", "info", doc_path, index_path});
  ASSERT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("components: 3"), std::string::npos);

  CliRun query = RunTool({"query", doc_path, index_path,
                      "//open_auction/seller/person"});
  ASSERT_EQ(query.code, 0) << query.err;
  EXPECT_NE(query.out.find("precise"), std::string::npos);

  // Every explicit strategy answers too.
  for (const char* strategy : {"topdown", "naive", "bottomup", "hybrid"}) {
    CliRun r = RunTool({"query", doc_path, index_path, "//person", "--strategy",
                    strategy});
    EXPECT_EQ(r.code, 0) << strategy << ": " << r.err;
  }
  CliRun bad = RunTool({"query", doc_path, index_path, "//person", "--strategy",
                    "psychic"});
  EXPECT_EQ(bad.code, 2);

  std::remove(doc_path.c_str());
  std::remove(index_path.c_str());
}

TEST(CliTest, TwigQueryAutoDetected) {
  std::string path = TempPath("mrx_cli_twig.xml");
  {
    std::ofstream f(path);
    f << "<r><a><b/><c/></a><a><c/></a></r>";
  }
  CliRun r = RunTool({"query", path, "//a[b]/c"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1 nodes"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("twig"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, QueryWithoutIndexUsesFreshA0) {
  std::string path = TempPath("mrx_cli_query.xml");
  WriteTempXml(path);
  CliRun r = RunTool({"query", path, "//bidder/person"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1 nodes"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, WorkloadPrintsQueries) {
  std::string path = TempPath("mrx_cli_workload.xml");
  WriteTempXml(path);
  CliRun r = RunTool({"workload", path, "--count", "5", "--max-length", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  // Five lines, all floating path expressions.
  int lines = 0;
  std::istringstream in(r.out);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.substr(0, 2), "//");
    ++lines;
  }
  EXPECT_EQ(lines, 5);
  std::remove(path.c_str());
}

TEST(CliTest, StatsMetricsExposition) {
  std::string path = TempPath("mrx_cli_stats_metrics.xml");
  WriteTempXml(path);

  CliRun prom = RunTool({"stats", path, "--metrics", "prom"});
  ASSERT_EQ(prom.code, 0) << prom.err;
  EXPECT_NE(prom.out.find("# TYPE mrx_graph_nodes gauge"), std::string::npos);
  EXPECT_NE(prom.out.find("mrx_graph_nodes 5"), std::string::npos);

  CliRun json = RunTool({"stats", path, "--metrics", "json"});
  ASSERT_EQ(json.code, 0) << json.err;
  // The exposition block is the trailing JSONL lines of the output.
  std::istringstream lines(json.out);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '{') continue;
    auto doc = mrx::testing::ParseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_NE(doc->Find("kind"), nullptr);
    EXPECT_NE(doc->Find("name"), nullptr);
    ++parsed;
  }
  EXPECT_GT(parsed, 0);

  EXPECT_EQ(RunTool({"stats", path, "--metrics", "xml"}).code, 2);
  std::remove(path.c_str());
}

TEST(CliTest, GenerateRejectsUnknownDataset) {
  CliRun r = RunTool({"generate", "mars", TempPath("mrx_cli_mars.xml")});
  EXPECT_EQ(r.code, 2);
}

TEST(CliTest, MissingFlagValueFails) {
  std::string path = TempPath("mrx_cli_flags.xml");
  WriteTempXml(path);
  CliRun r = RunTool({"workload", path, "--count"});
  EXPECT_EQ(r.code, 1);
  std::remove(path.c_str());
}

// --- Query diagnostics verbs (ISSUE 7) -------------------------------------

TEST(CliTest, QueryExplainPrintsEstimateNextToActuals) {
  std::string path = TempPath("mrx_cli_explain.xml");
  WriteTempXml(path);
  CliRun r = RunTool({"query", path, "//bidder/person", "--explain"});
  ASSERT_EQ(r.code, 0) << r.err;
  // The acceptance shape: chosen strategy with its estimated cost, the
  // considered table, and the measured actual-cost counters side by side.
  EXPECT_NE(r.out.find("strategy:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("estimated cost"), std::string::npos);
  EXPECT_NE(r.out.find("chosen"), std::string::npos);
  EXPECT_NE(r.out.find("index_nodes_visited="), std::string::npos);
  EXPECT_NE(r.out.find("extent_elems_scanned="), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, QueryExplainJsonIsOneStrictRecord) {
  std::string path = TempPath("mrx_cli_explain_json.xml");
  WriteTempXml(path);
  CliRun r = RunTool({"query", path, "//bidder/person", "--explain",
                      "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string line = r.out.substr(0, r.out.find('\n'));
  auto doc = mrx::testing::ParseJson(line);
  ASSERT_TRUE(doc.has_value()) << r.out;
  EXPECT_EQ(doc->Find("query")->string_value, "//bidder/person");
  const auto* considered = doc->Find("considered");
  ASSERT_NE(considered, nullptr);
  EXPECT_EQ(considered->array.size(), 4u);  // All four §4.1 strategies.
  const auto* cost = doc->Find("cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_NE(cost->Find("index_nodes_visited"), nullptr);
  EXPECT_NE(doc->Find("levels_touched"), nullptr);
  std::remove(path.c_str());
}

TEST(CliTest, ExplainVerbComparesAllStrategies) {
  std::string path = TempPath("mrx_cli_explain_verb.xml");
  WriteTempXml(path);
  CliRun r = RunTool({"explain", path, "//bidder/person"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* s : {"naive", "topdown", "bottomup", "hybrid"}) {
    EXPECT_NE(r.out.find(s), std::string::npos) << s << "\n" << r.out;
  }
  EXPECT_NE(r.out.find("est_cost"), std::string::npos);
  EXPECT_NE(r.out.find("chosen"), std::string::npos);

  CliRun json = RunTool({"explain", path, "//bidder/person", "--json"});
  ASSERT_EQ(json.code, 0) << json.err;
  std::istringstream lines(json.out);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '{') continue;
    auto doc = mrx::testing::ParseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_NE(doc->Find("strategy"), nullptr);
    ++parsed;
  }
  EXPECT_GE(parsed, 1);  // One record per eligible strategy.
  std::remove(path.c_str());
}

TEST(CliTest, DiagBundleWritesArtifactsThatParse) {
  std::string path = TempPath("mrx_cli_diag.xml");
  std::string out_dir = TempPath("mrx_cli_diag_out");
  WriteTempXml(path);
  CliRun r = RunTool({"diag", path, "--queries", "40", "--count", "8",
                      "--slow-query-ms", "0.0001", "--out", out_dir});
  ASSERT_EQ(r.code, 0) << r.err;
  namespace fs = std::filesystem;
  for (const char* name : {"flight.jsonl", "slow_queries.jsonl",
                           "trace.jsonl", "metrics.prom", "metrics.jsonl",
                           "diag.json"}) {
    EXPECT_TRUE(fs::exists(fs::path(out_dir) / name)) << name;
  }

  // diag.json is one strict object with the run summary.
  std::ifstream summary(fs::path(out_dir) / "diag.json");
  std::string text((std::istreambuf_iterator<char>(summary)),
                   std::istreambuf_iterator<char>());
  auto doc = mrx::testing::ParseJson(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_EQ(doc->Find("queries")->number_value, 40);
  EXPECT_GT(doc->Find("slow_queries")->number_value, 0);
  EXPECT_GT(doc->Find("flight_events")->number_value, 0);

  // Slow-query trace ids resolve in the bundle's trace.jsonl.
  std::set<uint64_t> trace_ids;
  std::ifstream trace(fs::path(out_dir) / "trace.jsonl");
  std::string line;
  while (std::getline(trace, line)) {
    auto span = mrx::testing::ParseJson(line);
    ASSERT_TRUE(span.has_value()) << line;
    trace_ids.insert(static_cast<uint64_t>(span->Find("trace")->number_value));
  }
  std::ifstream slow(fs::path(out_dir) / "slow_queries.jsonl");
  int slow_records = 0;
  while (std::getline(slow, line)) {
    auto record = mrx::testing::ParseJson(line);
    ASSERT_TRUE(record.has_value()) << line;
    const uint64_t id =
        static_cast<uint64_t>(record->Find("trace_id")->number_value);
    EXPECT_TRUE(trace_ids.count(id)) << "unresolved trace id " << id;
    ++slow_records;
  }
  EXPECT_GT(slow_records, 0);

  // The closed-loop client's Execute records a queue admission per query;
  // the depth counts the admitted request itself.
  std::ifstream flight(fs::path(out_dir) / "flight.jsonl");
  int admits = 0;
  while (std::getline(flight, line)) {
    auto event = mrx::testing::ParseJson(line);
    ASSERT_TRUE(event.has_value()) << line;
    if (event->Find("type")->string_value != "query_admit") continue;
    ++admits;
    EXPECT_GE(event->Find("a")->number_value, 1) << line;
  }
  EXPECT_GE(admits, 40);

  std::remove(path.c_str());
  fs::remove_all(out_dir);
}

// The CI observability smoke check: the diag bundle's expositions must carry
// the query-phase, refinement, cache and server metrics under mrx_* names,
// and the trace must hold the per-query phase spans.
TEST(CliTest, DiagMetricsAndTraceCoverTheServingStack) {
  std::string path = TempPath("mrx_cli_diag_metrics.xml");
  std::string out_dir = TempPath("mrx_cli_diag_metrics_out");
  WriteTempXml(path);
  CliRun r = RunTool({"diag", path, "--queries", "40", "--count", "8",
                      "--out", out_dir});
  ASSERT_EQ(r.code, 0) << r.err;
  namespace fs = std::filesystem;

  // metrics.prom: Prometheus text, every sample line named mrx_*.
  std::ifstream prom(fs::path(out_dir) / "metrics.prom");
  ASSERT_TRUE(prom.good());
  std::string prom_text((std::istreambuf_iterator<char>(prom)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(prom_text.find("mrx_queries_total"), std::string::npos);
  EXPECT_NE(prom_text.find("# TYPE mrx_query_phase_cache_lookup_ns summary"),
            std::string::npos);
  std::istringstream prom_lines(prom_text);
  std::string line;
  while (std::getline(prom_lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind("mrx_", 0), 0u) << line;
  }

  // metrics.jsonl: every line parses; the phase histograms, refinement,
  // cache and server metrics are present (registered even when the run
  // was too small to refine).
  std::ifstream jsonl(fs::path(out_dir) / "metrics.jsonl");
  ASSERT_TRUE(jsonl.good());
  std::set<std::string> metric_names;
  while (std::getline(jsonl, line)) {
    auto metric = mrx::testing::ParseJson(line);
    ASSERT_TRUE(metric.has_value()) << line;
    const auto* name = metric->Find("name");
    ASSERT_NE(name, nullptr);
    metric_names.insert(name->string_value);
  }
  for (const char* required :
       {"mrx_queries_total", "mrx_query_phase_cache_lookup_ns",
        "mrx_query_phase_index_probe_ns", "mrx_query_phase_data_validation_ns",
        "mrx_refine_fup_promotions_total", "mrx_refine_partition_splits_total",
        "mrx_refine_publish_ns", "mrx_answer_cache_hits_total",
        "mrx_server_workers"}) {
    EXPECT_TRUE(metric_names.count(required)) << required;
  }

  // trace.jsonl: every line parses, and the query phases were traced.
  std::ifstream trace(fs::path(out_dir) / "trace.jsonl");
  ASSERT_TRUE(trace.good());
  std::set<std::string> span_names;
  while (std::getline(trace, line)) {
    auto span = mrx::testing::ParseJson(line);
    ASSERT_TRUE(span.has_value()) << line;
    const auto* name = span->Find("name");
    ASSERT_NE(name, nullptr);
    span_names.insert(name->string_value);
  }
  for (const char* phase :
       {"query", "cache_lookup", "index_probe", "data_validation"}) {
    EXPECT_TRUE(span_names.count(phase)) << phase;
  }

  std::remove(path.c_str());
  fs::remove_all(out_dir);
}

// diag.json reports the served rate and the chooser's estimated-vs-actual
// cost totals next to the slow-query count.
TEST(CliTest, DiagSummaryCarriesRateAndCostFields) {
  std::string path = TempPath("mrx_cli_diag_cost.xml");
  std::string out_dir = TempPath("mrx_cli_diag_cost_out");
  WriteTempXml(path);
  CliRun r = RunTool({"diag", path, "--queries", "40", "--count", "8",
                      "--slow-query-ms", "0.0001", "--out", out_dir});
  ASSERT_EQ(r.code, 0) << r.err;
  namespace fs = std::filesystem;
  std::ifstream summary(fs::path(out_dir) / "diag.json");
  std::string text((std::istreambuf_iterator<char>(summary)),
                   std::istreambuf_iterator<char>());
  auto doc = mrx::testing::ParseJson(text);
  ASSERT_TRUE(doc.has_value()) << text;
  for (const char* key : {"queries", "qps", "est_cost_units",
                          "cost_index_nodes_visited", "slow_queries",
                          "flight_events"}) {
    const auto* field = doc->Find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_TRUE(field->is_number()) << key;
  }
  EXPECT_GT(doc->Find("qps")->number_value, 0);
  EXPECT_GT(doc->Find("est_cost_units")->number_value, 0);
  EXPECT_GT(doc->Find("cost_index_nodes_visited")->number_value, 0);
  EXPECT_GT(doc->Find("slow_queries")->number_value, 0);

  std::remove(path.c_str());
  fs::remove_all(out_dir);
}

TEST(CliTest, DiagFlightOffRecordsNoFlightEvents) {
  std::string path = TempPath("mrx_cli_diag_flight_off.xml");
  std::string out_dir = TempPath("mrx_cli_diag_flight_off_out");
  WriteTempXml(path);
  CliRun r = RunTool({"diag", path, "--queries", "40", "--count", "8",
                      "--flight", "off", "--out", out_dir});
  ASSERT_EQ(r.code, 0) << r.err;
  namespace fs = std::filesystem;
  std::ifstream summary(fs::path(out_dir) / "diag.json");
  std::string text((std::istreambuf_iterator<char>(summary)),
                   std::istreambuf_iterator<char>());
  auto doc = mrx::testing::ParseJson(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_EQ(doc->Find("queries")->number_value, 40);
  EXPECT_EQ(doc->Find("flight_events")->number_value, 0);
  EXPECT_TRUE(obs::FlightRecorder::Global().enabled());  // Restored.

  EXPECT_EQ(RunTool({"diag", path, "--flight", "maybe"}).code, 2);
  std::remove(path.c_str());
  fs::remove_all(out_dir);
}

}  // namespace
}  // namespace mrx::tools
