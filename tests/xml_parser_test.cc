#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xml/parser.h"

namespace mrx::xml {
namespace {

/// Records events as compact strings for easy assertions.
class RecordingHandler : public ParseEventHandler {
 public:
  Status StartElement(std::string_view name,
                      const std::vector<Attribute>& attributes) override {
    std::string e = "<" + std::string(name);
    for (const auto& a : attributes) e += " " + a.name + "=" + a.value;
    e += ">";
    events.push_back(std::move(e));
    return Status::Ok();
  }
  Status EndElement(std::string_view name) override {
    events.push_back("</" + std::string(name) + ">");
    return Status::Ok();
  }
  Status CharacterData(std::string_view text) override {
    events.push_back("#" + std::string(text));
    return Status::Ok();
  }

  std::vector<std::string> events;
};

std::vector<std::string> ParseEvents(std::string_view doc, Status* status) {
  RecordingHandler handler;
  Parser parser;
  *status = parser.Parse(doc, &handler);
  return handler.events;
}

std::vector<std::string> ParseOk(std::string_view doc) {
  Status s;
  auto events = ParseEvents(doc, &s);
  EXPECT_TRUE(s.ok()) << s;
  return events;
}

Status ParseError(std::string_view doc) {
  Status s;
  ParseEvents(doc, &s);
  return s;
}

TEST(XmlParserTest, SimpleElement) {
  auto events = ParseOk("<a></a>");
  EXPECT_EQ(events, (std::vector<std::string>{"<a>", "</a>"}));
}

TEST(XmlParserTest, SelfClosingTag) {
  auto events = ParseOk("<a/>");
  EXPECT_EQ(events, (std::vector<std::string>{"<a>", "</a>"}));
}

TEST(XmlParserTest, NestedElementsAndText) {
  auto events = ParseOk("<a>x<b>y</b>z</a>");
  EXPECT_EQ(events, (std::vector<std::string>{"<a>", "#x", "<b>", "#y",
                                              "</b>", "#z", "</a>"}));
}

TEST(XmlParserTest, Attributes) {
  auto events = ParseOk("<a id=\"i1\" ref='r2'/>");
  EXPECT_EQ(events[0], "<a id=i1 ref=r2>");
}

TEST(XmlParserTest, AttributeEntityDecoding) {
  auto events = ParseOk("<a v=\"x&amp;y&lt;z\"/>");
  EXPECT_EQ(events[0], "<a v=x&y<z>");
}

TEST(XmlParserTest, TextEntities) {
  auto events = ParseOk("<a>&lt;&gt;&amp;&apos;&quot;</a>");
  EXPECT_EQ(events[1], "#<>&'\"");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  auto events = ParseOk("<a>&#65;&#x42;</a>");
  EXPECT_EQ(events[1], "#AB");
}

TEST(XmlParserTest, NumericReferenceUtf8MultiByte) {
  auto events = ParseOk("<a>&#233;</a>");  // é
  EXPECT_EQ(events[1], "#\xC3\xA9");
}

TEST(XmlParserTest, CommentsAreSkipped) {
  auto events = ParseOk("<a><!-- hi <b> --><c/></a>");
  EXPECT_EQ(events, (std::vector<std::string>{"<a>", "<c>", "</c>", "</a>"}));
}

TEST(XmlParserTest, ProcessingInstructionsAreSkipped) {
  auto events = ParseOk("<a><?php echo ?><c/></a>");
  EXPECT_EQ(events, (std::vector<std::string>{"<a>", "<c>", "</c>", "</a>"}));
}

TEST(XmlParserTest, CdataIsLiteralText) {
  auto events = ParseOk("<a><![CDATA[x<y&z]]></a>");
  EXPECT_EQ(events[1], "#x<y&z");
}

TEST(XmlParserTest, XmlDeclarationAndDoctype) {
  auto events = ParseOk(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE site [ <!ELEMENT site (a)> ]>\n"
      "<site><a/></site>");
  EXPECT_EQ(events.front(), "<site>");
  EXPECT_EQ(events.back(), "</site>");
}

TEST(XmlParserTest, TrailingCommentsAllowed) {
  EXPECT_TRUE(ParseOk("<a/><!-- done -->").size() == 2);
}

TEST(XmlParserTest, MismatchedTagIsError) {
  Status s = ParseError("<a><b></a></b>");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("mismatched"), std::string::npos);
}

TEST(XmlParserTest, UnterminatedElementIsError) {
  EXPECT_FALSE(ParseError("<a><b>").ok());
}

TEST(XmlParserTest, ContentAfterRootIsError) {
  EXPECT_FALSE(ParseError("<a/><b/>").ok());
}

TEST(XmlParserTest, DuplicateAttributeIsError) {
  EXPECT_FALSE(ParseError("<a x=\"1\" x=\"2\"/>").ok());
}

TEST(XmlParserTest, UnknownEntityIsError) {
  EXPECT_FALSE(ParseError("<a>&nosuch;</a>").ok());
}

TEST(XmlParserTest, UnquotedAttributeIsError) {
  EXPECT_FALSE(ParseError("<a x=1/>").ok());
}

TEST(XmlParserTest, ErrorsCarryLineAndColumn) {
  Status s = ParseError("<a>\n<b></c>\n</a>");
  EXPECT_NE(s.message().find("2:"), std::string::npos) << s;
}

TEST(XmlParserTest, HandlerErrorAbortsParse) {
  class FailingHandler : public RecordingHandler {
   public:
    Status StartElement(std::string_view name,
                        const std::vector<Attribute>& attrs) override {
      if (name == "bad") return Status::InvalidArgument("stop");
      return RecordingHandler::StartElement(name, attrs);
    }
  };
  FailingHandler handler;
  Parser parser;
  Status s = parser.Parse("<a><bad/><c/></a>", &handler);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // <c> was never delivered.
  for (const auto& e : handler.events) EXPECT_EQ(e.find("<c>"), std::string::npos);
}

TEST(XmlParserTest, Utf8BomIsSkipped) {
  auto events = ParseOk("\xEF\xBB\xBF<a/>");
  EXPECT_EQ(events, (std::vector<std::string>{"<a>", "</a>"}));
}

TEST(XmlParserTest, DeeplyNestedDocument) {
  // Deep enough to overflow a recursive-descent parser's call stack.
  std::string doc;
  constexpr int kDepth = 100000;
  for (int i = 0; i < kDepth; ++i) doc += "<d>";
  for (int i = 0; i < kDepth; ++i) doc += "</d>";
  auto events = ParseOk(doc);
  EXPECT_EQ(events.size(), 2u * kDepth);
  // Unterminated at the same depth: an error, not a crash.
  doc.resize(doc.size() / 2);
  Status s = ParseError(doc);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("unterminated element 'd'"), std::string::npos)
      << s;
}

TEST(XmlParserTest, ManyAttributes) {
  std::string doc = "<a";
  for (int i = 0; i < 200; ++i) {
    doc += " k" + std::to_string(i) + "=\"v" + std::to_string(i) + "\"";
  }
  doc += "/>";
  auto events = ParseOk(doc);
  EXPECT_NE(events[0].find("k199=v199"), std::string::npos);
}

TEST(XmlParserTest, CrLfLineEndingsCountLines) {
  Status s = ParseError("<a>\r\n<b></c>\r\n</a>");
  EXPECT_NE(s.message().find("2:"), std::string::npos) << s;
}

TEST(XmlParserTest, WhitespaceOnlyTextIsStillReported) {
  auto events = ParseOk("<a> <b/> </a>");
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events[1], "# ");
}

}  // namespace
}  // namespace mrx::xml
