#include <gtest/gtest.h>

#include "datagen/dtd.h"
#include "datagen/dtd_generator.h"
#include "datagen/nasa.h"
#include "datagen/xmark.h"
#include "xml/graph_builder.h"

namespace mrx::datagen {
namespace {

TEST(DtdParseTest, ElementWithSequence) {
  auto dtd = Dtd::Parse("<!ELEMENT a (b, c?, d*)> <!ELEMENT b EMPTY>"
                        "<!ELEMENT c EMPTY> <!ELEMENT d EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->root_name(), "a");
  const DtdElement* a = dtd->FindElement("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->content_kind, ContentKind::kChildren);
  ASSERT_EQ(a->model->children.size(), 3u);
  EXPECT_EQ(a->model->kind, ParticleKind::kSequence);
  EXPECT_EQ(a->model->children[1]->occurrence, Occurrence::kOptional);
  EXPECT_EQ(a->model->children[2]->occurrence, Occurrence::kZeroOrMore);
}

TEST(DtdParseTest, ChoiceAndNestedGroups) {
  auto dtd = Dtd::Parse(
      "<!ELEMENT a ((b | c)+, d)> <!ELEMENT b EMPTY>"
      "<!ELEMENT c EMPTY> <!ELEMENT d EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  const DtdElement* a = dtd->FindElement("a");
  ASSERT_EQ(a->model->children.size(), 2u);
  const Particle& group = *a->model->children[0];
  EXPECT_EQ(group.kind, ParticleKind::kChoice);
  EXPECT_EQ(group.occurrence, Occurrence::kOneOrMore);
  EXPECT_EQ(group.children.size(), 2u);
}

TEST(DtdParseTest, MixedContent) {
  auto dtd = Dtd::Parse(
      "<!ELEMENT p (#PCDATA | em | strong)*> <!ELEMENT em (#PCDATA)>"
      "<!ELEMENT strong (#PCDATA)>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  const DtdElement* p = dtd->FindElement("p");
  EXPECT_EQ(p->content_kind, ContentKind::kMixed);
  EXPECT_EQ(p->model->children.size(), 2u);
  const DtdElement* em = dtd->FindElement("em");
  EXPECT_EQ(em->content_kind, ContentKind::kMixed);
  EXPECT_TRUE(em->model->children.empty());
}

TEST(DtdParseTest, HostileGroupNestingIsAParseError) {
  // One recursion per '(' used to overflow the stack here.
  constexpr int kDepth = 100000;
  const std::string dtd_text = "<!ELEMENT a " + std::string(kDepth, '(') +
                               "b" + std::string(kDepth, ')') +
                               "> <!ELEMENT b EMPTY>";
  auto dtd = Dtd::Parse(dtd_text);
  ASSERT_FALSE(dtd.ok());
  EXPECT_EQ(dtd.status().code(), StatusCode::kParseError);
  EXPECT_NE(dtd.status().message().find("nests deeper"), std::string::npos);
}

TEST(DtdParseTest, ModerateGroupNestingParses) {
  constexpr int kDepth = 200;
  auto dtd = Dtd::Parse("<!ELEMENT a " + std::string(kDepth, '(') + "b" +
                        std::string(kDepth, ')') + "> <!ELEMENT b EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  const Particle* group = dtd->FindElement("a")->model.get();
  int depth = 1;
  while (group->children.front()->kind != ParticleKind::kElement) {
    group = group->children.front().get();
    ++depth;
  }
  EXPECT_EQ(depth, kDepth);
}

TEST(DtdParseTest, EmptyAndAny) {
  auto dtd = Dtd::Parse("<!ELEMENT a ANY> <!ELEMENT b EMPTY>");
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(dtd->FindElement("a")->content_kind, ContentKind::kAny);
  EXPECT_EQ(dtd->FindElement("b")->content_kind, ContentKind::kEmpty);
}

TEST(DtdParseTest, Attributes) {
  auto dtd = Dtd::Parse(
      "<!ELEMENT a EMPTY>"
      "<!ATTLIST a id ID #REQUIRED"
      "            ref IDREF #IMPLIED"
      "            refs IDREFS #REQUIRED"
      "            kind (x | y | z) \"x\""
      "            note CDATA #FIXED \"fixed\">");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  const DtdElement* a = dtd->FindElement("a");
  ASSERT_EQ(a->attributes.size(), 5u);
  EXPECT_EQ(a->attributes[0].type, AttributeType::kId);
  EXPECT_EQ(a->attributes[0].presence, AttributePresence::kRequired);
  EXPECT_EQ(a->attributes[1].type, AttributeType::kIdref);
  EXPECT_EQ(a->attributes[2].type, AttributeType::kIdrefs);
  EXPECT_EQ(a->attributes[3].type, AttributeType::kEnumeration);
  EXPECT_EQ(a->attributes[3].enum_values.size(), 3u);
  EXPECT_EQ(a->attributes[3].default_value, "x");
  EXPECT_EQ(a->attributes[4].presence, AttributePresence::kFixed);
  EXPECT_EQ(a->attributes[4].default_value, "fixed");
}

TEST(DtdParseTest, CommentsAndEntitiesSkipped) {
  auto dtd = Dtd::Parse(
      "<!-- a comment --> <!ENTITY % x \"ignored\">"
      "<!ELEMENT a EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->root_name(), "a");
}

TEST(DtdParseTest, Errors) {
  EXPECT_FALSE(Dtd::Parse("").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT >").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT a (b,)> ").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT a (b | c, d)>").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT a EMPTY> <!ELEMENT a EMPTY>").ok());
  EXPECT_FALSE(Dtd::Parse("<!WEIRD a>").ok());
}

TEST(DtdGeneratorTest, GeneratesWellFormedXml) {
  auto dtd = Dtd::Parse(
      "<!ELEMENT root (item*)>"
      "<!ELEMENT item (name, tag*)>"
      "<!ELEMENT name (#PCDATA)>"
      "<!ELEMENT tag EMPTY>"
      "<!ATTLIST item id ID #REQUIRED>"
      "<!ATTLIST tag ref IDREF #REQUIRED>");
  ASSERT_TRUE(dtd.ok());
  DtdGeneratorOptions options;
  options.seed = 3;
  options.min_elements = 200;
  options.max_elements = 400;
  auto doc = GenerateDocument(*dtd, options);
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto g = xml::BuildGraphFromXml(*doc);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_GE(g->num_nodes(), 200u);
  EXPECT_LE(g->num_nodes(), 440u);
  EXPECT_EQ(g->label_name(g->root()), "root");
  // Every tag's IDREF resolved against a real item id.
  EXPECT_GT(g->num_reference_edges(), 0u);
}

TEST(DtdGeneratorTest, DeterministicPerSeed) {
  auto dtd = Dtd::Parse("<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>");
  ASSERT_TRUE(dtd.ok());
  DtdGeneratorOptions options;
  options.seed = 5;
  auto d1 = GenerateDocument(*dtd, options);
  auto d2 = GenerateDocument(*dtd, options);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d1, *d2);
  options.seed = 6;
  auto d3 = GenerateDocument(*dtd, options);
  EXPECT_NE(*d1, *d3);
}

TEST(DtdGeneratorTest, RecursiveDtdTerminates) {
  auto dtd = Dtd::Parse(
      "<!ELEMENT a (b?)>"
      "<!ELEMENT b (a, a?)>");
  ASSERT_TRUE(dtd.ok());
  DtdGeneratorOptions options;
  options.seed = 9;
  options.optional_probability = 0.95;  // Aggressive recursion.
  options.max_depth = 12;
  options.max_elements = 5000;
  auto doc = GenerateDocument(*dtd, options);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_TRUE(xml::BuildGraphFromXml(*doc).ok());
}

TEST(DtdGeneratorTest, UndeclaredElementIsAnError) {
  auto dtd = Dtd::Parse("<!ELEMENT a (ghost)>");
  ASSERT_TRUE(dtd.ok());
  DtdGeneratorOptions options;
  EXPECT_FALSE(GenerateDocument(*dtd, options).ok());
}

TEST(NasaTest, DtdParses) {
  auto dtd = Dtd::Parse(NasaDatasetDtd());
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->root_name(), "datasets");
  // The paper highlights reuse of `name` in many contexts — make sure the
  // transcription keeps name/title/date/description multi-context.
  EXPECT_NE(dtd->FindElement("name"), nullptr);
  EXPECT_NE(dtd->FindElement("author"), nullptr);
  EXPECT_NE(dtd->FindElement("seeAlso"), nullptr);
}

TEST(NasaTest, GeneratedDocumentLoadsAndHasReferences) {
  auto doc = GenerateNasaDocument(/*scale=*/0.02, /*seed=*/1);
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto g = xml::BuildGraphFromXml(*doc);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_GT(g->num_nodes(), 1000u);
  EXPECT_GT(g->num_reference_edges(), 0u);
  EXPECT_EQ(g->label_name(g->root()), "datasets");
}

TEST(NasaTest, ScaleControlsSize) {
  auto small = GenerateNasaDocument(0.01, 1);
  auto large = GenerateNasaDocument(0.05, 1);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(small->size() * 2, large->size());
}

TEST(XMarkTest, GeneratedDocumentLoads) {
  auto doc = GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.02));
  auto g = xml::BuildGraphFromXml(doc);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->label_name(g->root()), "site");
  EXPECT_GT(g->num_reference_edges(), 0u);
  // The auction-site vocabulary is present.
  for (const char* label :
       {"regions", "africa", "item", "incategory", "person", "open_auction",
        "bidder", "personref", "closed_auction", "catgraph", "edge",
        "parlist", "listitem", "keyword"}) {
    EXPECT_TRUE(g->symbols().Lookup(label).has_value()) << label;
  }
}

TEST(XMarkTest, ReferencesPointAtRightLabels) {
  auto doc = GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.02));
  auto g = xml::BuildGraphFromXml(doc);
  ASSERT_TRUE(g.ok());
  // Every bidder/personref reference edge targets a person node.
  LabelId personref = *g->symbols().Lookup("personref");
  LabelId person = *g->symbols().Lookup("person");
  size_t checked = 0;
  for (NodeId n : g->nodes_with_label(personref)) {
    auto kids = g->children(n);
    auto kinds = g->child_kinds(n);
    for (size_t i = 0; i < kids.size(); ++i) {
      if (kinds[i] == EdgeKind::kReference) {
        EXPECT_EQ(g->label(kids[i]), person);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(XMarkTest, DeterministicPerSeed) {
  auto a = GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.01, 3));
  auto b = GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.01, 3));
  auto c = GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.01, 4));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(XMarkTest, ScaleRoughlyLinear) {
  auto small = GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.01));
  auto large = GenerateXMarkDocument(datagen::XMarkOptions::Scaled(0.04));
  EXPECT_LT(small.size() * 2, large.size());
}

}  // namespace
}  // namespace mrx::datagen
