#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <filesystem>

#include "harness/datasets.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "storage/binary_io.h"
#include "storage/disk_m_star_index.h"
#include "storage/graph_io.h"
#include "storage/index_io.h"
#include "tests/test_util.h"

namespace mrx::storage {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeFigure3Graph;
using mrx::testing::RandomGraph;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(BinaryIoTest, VarintRoundTrip) {
  BinaryWriter w;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20, ~0ULL};
  for (uint64_t v : values) w.PutVarint(v);
  BinaryReader r(w.buffer());
  for (uint64_t v : values) {
    auto got = r.GetVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, SignedVarintRoundTrip) {
  BinaryWriter w;
  const int64_t values[] = {0, -1, 1, -64, 64, -100000, 1LL << 40,
                            -(1LL << 40)};
  for (int64_t v : values) w.PutSignedVarint(v);
  BinaryReader r(w.buffer());
  for (int64_t v : values) {
    auto got = r.GetSignedVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(BinaryIoTest, StringAndFixedRoundTrip) {
  BinaryWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutFixed32(0xDEADBEEF);
  w.PutFixed64(0x0123456789ABCDEFULL);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_EQ(*r.GetFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetFixed64(), 0x0123456789ABCDEFULL);
}

TEST(BinaryIoTest, TruncationIsAnError) {
  BinaryWriter w;
  w.PutVarint(1u << 30);
  std::string bytes = w.TakeBuffer();
  BinaryReader r(std::string_view(bytes).substr(0, bytes.size() - 1));
  EXPECT_FALSE(r.GetVarint().ok());

  BinaryReader r2("\x05" "ab");  // String claims 5 bytes, has 2.
  EXPECT_FALSE(r2.GetString().ok());
}

TEST(BinaryIoTest, ChecksumDetectsFlips) {
  std::string data = "some index bytes";
  uint64_t sum = Checksum(data);
  data[3] ^= 1;
  EXPECT_NE(Checksum(data), sum);
}

// The standard 64-bit FNV-1a test vectors: any FNV-1a tool reproduces the
// checksums stored in .mrxg and .mrxs files.
TEST(BinaryIoTest, ChecksumIsStandardFnv1a) {
  EXPECT_EQ(Checksum(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Checksum("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(GraphIoTest, RoundTripPreservesEverything) {
  DataGraph original = MakeFigure1Graph();
  std::string blob = SerializeDataGraph(original);
  auto loaded = DeserializeDataGraph(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded->num_edges(), original.num_edges());
  EXPECT_EQ(loaded->num_reference_edges(), original.num_reference_edges());
  EXPECT_EQ(loaded->root(), original.root());
  for (NodeId n = 0; n < original.num_nodes(); ++n) {
    EXPECT_EQ(loaded->label_name(n), original.label_name(n));
    auto a = original.children(n);
    auto b = loaded->children(n);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
      EXPECT_EQ(original.child_kinds(n)[i], loaded->child_kinds(n)[i]);
    }
  }
}

TEST(GraphIoTest, FileRoundTrip) {
  DataGraph g = RandomGraph(7, 50, 5, 25);
  std::string path = TempPath("mrx_graph_io_test.mrxg");
  ASSERT_TRUE(SaveDataGraphToFile(g, path).ok());
  auto loaded = LoadDataGraphFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(GraphIoTest, CorruptionIsDetected) {
  DataGraph g = MakeFigure3Graph();
  std::string blob = SerializeDataGraph(g);
  EXPECT_FALSE(DeserializeDataGraph("XXXX" + blob.substr(4)).ok());
  std::string flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  auto r = DeserializeDataGraph(flipped);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(DeserializeDataGraph(blob.substr(0, blob.size() - 3)).ok());
}

// A version-1 blob as the old writer made it: the same layout, checksummed
// from an offset basis one digit short of FNV-1a's. The loader names the
// version instead of reporting a checksum mismatch.
TEST(GraphIoTest, Version1GraphIsUnsupported) {
  const std::string blob = SerializeDataGraph(MakeFigure3Graph());
  BinaryReader header(std::string_view(blob).substr(4));
  ASSERT_TRUE(header.GetVarint().ok());
  ASSERT_TRUE(header.GetFixed64().ok());
  std::string body = blob.substr(4 + header.pos());
  ASSERT_EQ(body[0], 2);  // The version varint leads the body.
  body[0] = 1;
  uint64_t old_checksum = 1469598103934665603ULL;
  for (char c : body) {
    old_checksum ^= static_cast<uint8_t>(c);
    old_checksum *= 1099511628211ULL;
  }
  BinaryWriter v1;
  v1.PutRaw("MRXG");
  v1.PutVarint(body.size());
  v1.PutFixed64(old_checksum);
  v1.PutRaw(body);
  const Status status = DeserializeDataGraph(v1.TakeBuffer()).status();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
  EXPECT_NE(status.message().find("unsupported data-graph version 1"),
            std::string::npos)
      << status;
}

TEST(IndexIoTest, RoundTripPreservesComponents) {
  DataGraph g = MakeFigure1Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//site/people/person"));
  index.Refine(Q(g, "//auction/seller/person"));
  ASSERT_TRUE(index.CheckProperties().ok());

  std::string bytes = SerializeMStarIndex(index);
  auto loaded = DeserializeMStarIndex(g, bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_components(), index.num_components());
  for (size_t i = 0; i < index.num_components(); ++i) {
    EXPECT_EQ(loaded->component(i).num_nodes(),
              index.component(i).num_nodes());
    EXPECT_EQ(loaded->component(i).num_edges(),
              index.component(i).num_edges());
    // Same partition: each data node's extent-mates coincide.
    for (NodeId o = 0; o < g.num_nodes(); ++o) {
      EXPECT_EQ(
          loaded->component(i).node(loaded->component(i).index_of(o)).extent,
          index.component(i).node(index.component(i).index_of(o)).extent);
      EXPECT_EQ(
          loaded->component(i).node(loaded->component(i).index_of(o)).k,
          index.component(i).node(index.component(i).index_of(o)).k);
    }
  }
  EXPECT_EQ(loaded->PhysicalNodeCount(), index.PhysicalNodeCount());
  EXPECT_EQ(loaded->PhysicalEdgeCount(), index.PhysicalEdgeCount());
  // The load path rebuilds the subnode lists the queries descend by; ids
  // are renumbered, so compare each data node's supernode's list length.
  const Status properties = loaded->CheckProperties();
  EXPECT_TRUE(properties.ok()) << properties;
  for (size_t i = 1; i < index.num_components(); ++i) {
    for (NodeId o = 0; o < g.num_nodes(); ++o) {
      EXPECT_EQ(
          loaded->subnodes(i, loaded->component(i - 1).index_of(o)).size(),
          index.subnodes(i, index.component(i - 1).index_of(o)).size());
    }
  }
}

TEST(IndexIoTest, LoadedIndexAnswersQueries) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression fup = Q(g, "//site/people/person");
  index.Refine(fup);
  std::string path = TempPath("mrx_index_io_test.mrxs");
  ASSERT_TRUE(SaveMStarIndexToFile(index, path).ok());
  auto loaded = LoadMStarIndexFromFile(g, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  QueryResult r = loaded->QueryTopDown(fup, &eval);
  EXPECT_TRUE(r.precise);
  EXPECT_EQ(r.answer, eval.Evaluate(fup));
  std::remove(path.c_str());
}

TEST(IndexIoTest, ChecksumMismatchIsDetected) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a/b"));
  std::string bytes = SerializeMStarIndex(index);
  bytes.back() ^= 0x01;  // Corrupt the last component blob.
  EXPECT_FALSE(DeserializeMStarIndex(g, bytes).ok());
}

TEST(IndexIoTest, WrongGraphIsRejected) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a/b"));
  std::string bytes = SerializeMStarIndex(index);
  DataGraph other = RandomGraph(3, 5, 2, 2);  // Far fewer nodes.
  EXPECT_FALSE(DeserializeMStarIndex(other, bytes).ok());
}

/// `container` with the header's version field (after the 4-byte magic)
/// rewritten to `version`.
std::string WithVersion(const std::string& container, uint64_t version) {
  BinaryWriter header;
  header.PutRaw(container.substr(0, 4));
  header.PutFixed64(version);
  return header.TakeBuffer() + container.substr(12);
}

void ExpectUnsupportedVersion(const DataGraph& g, uint64_t version) {
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a/b"));
  const std::string old = WithVersion(SerializeMStarIndex(index), version);
  for (const Status& status :
       {DeserializeMStarIndex(g, old).status(), ReadMStarToc(old).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
    EXPECT_NE(status.message().find("unsupported index container version " +
                                    std::to_string(version)),
              std::string::npos)
        << status;
  }
}

TEST(IndexIoTest, Version1ContainerIsUnsupported) {
  ExpectUnsupportedVersion(MakeFigure3Graph(), 1);
}

TEST(IndexIoTest, Version2ContainerIsUnsupported) {
  ExpectUnsupportedVersion(MakeFigure3Graph(), 2);
}

TEST(IndexIoTest, Version3ContainerIsUnsupported) {
  ExpectUnsupportedVersion(MakeFigure3Graph(), 3);
}

/// A current-version container around `blobs`, with a correct TOC and
/// checksums (FNV, so anyone can forge them).
std::string ContainerOf(const std::vector<std::string>& blobs) {
  BinaryWriter out;
  out.PutRaw("MRX*");
  out.PutFixed64(kMStarFormatVersion);
  out.PutFixed64(blobs.size());
  uint64_t offset = 4 + 16 + 24 * blobs.size();
  for (const std::string& blob : blobs) {
    out.PutFixed64(offset);
    out.PutFixed64(blob.size());
    out.PutFixed64(Checksum(blob));
    offset += blob.size();
  }
  std::string bytes = out.TakeBuffer();
  for (const std::string& blob : blobs) bytes += blob;
  return bytes;
}

/// A component-0 blob holding one node whose extent record is `count`
/// followed by `deltas`.
std::string OneExtentBlob(uint64_t count, const std::vector<uint64_t>& deltas) {
  BinaryWriter blob;
  blob.PutVarint(0);  // Component.
  blob.PutVarint(1);  // Nodes.
  blob.PutSignedVarint(0);  // k.
  blob.PutVarint(count);
  for (uint64_t d : deltas) blob.PutVarint(d);
  return blob.TakeBuffer();
}

TEST(IndexIoTest, HostileContainersAreParseErrors) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a/b"));
  const std::string good = SerializeMStarIndex(index);
  ASSERT_TRUE(DeserializeMStarIndex(g, good).ok());

  // A header component count of 2^60 (header and TOC carry no checksum).
  std::string huge_count = good;
  {
    BinaryWriter count;
    count.PutFixed64(uint64_t{1} << 60);
    huge_count.replace(12, 8, count.buffer());
  }
  // A first TOC entry at offset 2^64 - 1, length 2: offset + length wraps.
  std::string wrapping_toc = good;
  {
    BinaryWriter entry;
    entry.PutFixed64(~uint64_t{0});
    entry.PutFixed64(2);
    wrapping_toc.replace(20, 16, entry.buffer());
  }
  // Blobs with valid checksums and hostile bodies.
  BinaryWriter huge_nodes;
  huge_nodes.PutVarint(0);
  huge_nodes.PutVarint(uint64_t{1} << 60);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"header count 2^60", huge_count},
      {"wrapping TOC entry", wrapping_toc},
      {"node count 2^60", ContainerOf({huge_nodes.buffer()})},
      {"member count 2^60", ContainerOf({OneExtentBlob(uint64_t{1} << 60,
                                                       {1, 1})})},
      {"zero delta", ContainerOf({OneExtentBlob(3, {1, 0, 1})})},
      {"delta past 2^32", ContainerOf({OneExtentBlob(2, {5, 0xfffffffbu})})},
      {"delta wrapping 2^64", ContainerOf({OneExtentBlob(2, {5, ~0ull})})},
  };
  const std::string path = TempPath("mrx_hostile_index_test.mrxs");
  for (const auto& [name, bytes] : cases) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const Status in_memory = DeserializeMStarIndex(g, bytes).status();
    EXPECT_EQ(in_memory.code(), StatusCode::kParseError)
        << name << ": " << in_memory;
    const Status from_file = LoadMStarIndexFromFile(g, path).status();
    EXPECT_EQ(from_file.code(), StatusCode::kParseError)
        << name << ": " << from_file;
    // The lazy loader fails at Open (header, TOC) or at the first
    // component it decodes.
    auto disk = DiskMStarIndex::Open(g, path);
    if (disk.ok()) {
      const Status query = disk->QueryNaive(Q(g, "//r")).status();
      EXPECT_EQ(query.code(), StatusCode::kParseError) << name << ": " << query;
    } else {
      EXPECT_EQ(disk.status().code(), StatusCode::kParseError)
          << name << ": " << disk.status();
    }
  }
  std::remove(path.c_str());
}

TEST(DiskMStarIndexTest, LoadsComponentsLazily) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  index.Refine(Q(g, "//root/site/auctions/auction/seller/person"));
  ASSERT_EQ(index.num_components(), 6u);

  std::string path = TempPath("mrx_disk_index_test.mrxs");
  ASSERT_TRUE(SaveMStarIndexToFile(index, path).ok());
  auto disk = DiskMStarIndex::Open(g, path);
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ(disk->num_components(), 6u);
  EXPECT_EQ(disk->components_loaded(), 0u);

  // A single-label query touches only I0.
  auto r0 = disk->QueryTopDown(Q(g, "//person"));
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(disk->components_loaded(), 1u);
  EXPECT_EQ(r0->answer, eval.Evaluate(Q(g, "//person")));

  // A length-1 query additionally pulls in I1.
  auto r2 = disk->QueryTopDown(Q(g, "//people/person"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(disk->components_loaded(), 2u);
  EXPECT_EQ(r2->answer, eval.Evaluate(Q(g, "//people/person")));

  // Re-running does not reload.
  ASSERT_TRUE(disk->QueryTopDown(Q(g, "//people/person")).ok());
  EXPECT_EQ(disk->components_loaded(), 2u);

  // The refined FUP needs every component and stays exact and precise.
  PathExpression fup = Q(g, "//root/site/auctions/auction/seller/person");
  auto rf = disk->QueryTopDown(fup);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(disk->components_loaded(), 6u);
  EXPECT_TRUE(rf->precise);
  EXPECT_EQ(rf->answer, eval.Evaluate(fup));
  std::remove(path.c_str());
}

TEST(DiskMStarIndexTest, NaiveLoadsOneComponent) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a/b"));
  std::string path = TempPath("mrx_disk_naive_test.mrxs");
  ASSERT_TRUE(SaveMStarIndexToFile(index, path).ok());
  auto disk = DiskMStarIndex::Open(g, path);
  ASSERT_TRUE(disk.ok());
  auto r = disk->QueryNaive(Q(g, "//r/a/b"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(disk->components_loaded(), 1u);  // Only I2.
  EXPECT_EQ(r->answer, (std::vector<NodeId>{4}));
  std::remove(path.c_str());
}

TEST(DiskMStarIndexTest, MatchesInMemoryAnswersOnGeneratedData) {
  auto g = harness::BuildXMarkGraph(0.02);
  ASSERT_TRUE(g.ok());
  DataEvaluator eval(*g);
  MStarIndex index(*g);
  std::vector<PathExpression> queries;
  for (const char* text :
       {"//open_auction/seller/person", "//regions/africa/item",
        "//person/watches/watch/open_auction", "//item/incategory/category"}) {
    queries.push_back(Q(*g, text));
  }
  for (const auto& q : queries) index.Refine(q);
  std::string path = TempPath("mrx_disk_xmark_test.mrxs");
  ASSERT_TRUE(SaveMStarIndexToFile(index, path).ok());
  auto disk = DiskMStarIndex::Open(*g, path);
  ASSERT_TRUE(disk.ok());
  for (const auto& q : queries) {
    auto r = disk->QueryTopDown(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->answer, eval.Evaluate(q));
    EXPECT_EQ(r->answer, index.QueryTopDown(q, &eval).answer);
  }
  std::remove(path.c_str());
}

TEST(DiskMStarIndexTest, OpenRejectsGarbage) {
  std::string path = TempPath("mrx_disk_garbage_test.mrxs");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an index container at all";
  }
  DataGraph g = MakeFigure3Graph();
  EXPECT_FALSE(DiskMStarIndex::Open(g, path).ok());
  EXPECT_FALSE(DiskMStarIndex::Open(g, TempPath("does_not_exist")).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrx::storage
