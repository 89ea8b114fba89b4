#include <gtest/gtest.h>

#include "platform/xml.hpp"
#include "support/error.hpp"

using namespace tir;

TEST(Xml, ParsesSimpleElement) {
  const auto root = xml::parse("<a x=\"1\" y='two'/>");
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->attr("x"), "1");
  EXPECT_EQ(root->attr("y"), "two");
}

TEST(Xml, ParsesNestedChildren) {
  const auto root = xml::parse(
      "<platform version=\"3\"><AS id=\"x\"><cluster id=\"c\"/>"
      "<cluster id=\"d\"/></AS></platform>");
  EXPECT_EQ(root->name, "platform");
  const auto* as = root->first_child("AS");
  ASSERT_NE(as, nullptr);
  EXPECT_EQ(as->children_named("cluster").size(), 2u);
}

TEST(Xml, SkipsDeclarationDoctypeAndComments) {
  const auto root = xml::parse(
      "<?xml version='1.0'?>\n"
      "<!DOCTYPE platform SYSTEM \"simgrid.dtd\">\n"
      "<!-- a comment -->\n"
      "<platform><!-- inner --><process host=\"h\" function=\"p0\"/>"
      "</platform>");
  EXPECT_EQ(root->name, "platform");
  EXPECT_EQ(root->children.size(), 1u);
}

TEST(Xml, DecodesEntities) {
  const auto root = xml::parse("<a v=\"&lt;&amp;&gt;&quot;&apos;\"/>");
  EXPECT_EQ(root->attr("v"), "<&>\"'");
}

TEST(Xml, CapturesText) {
  const auto root = xml::parse("<a>hello <b/> world</a>");
  EXPECT_EQ(root->text, "hello  world");
}

TEST(Xml, AttrOrFallsBack) {
  const auto root = xml::parse("<a x=\"1\"/>");
  EXPECT_EQ(root->attr_or("x", "z"), "1");
  EXPECT_EQ(root->attr_or("missing", "z"), "z");
  EXPECT_TRUE(root->has_attr("x"));
  EXPECT_FALSE(root->has_attr("missing"));
}

TEST(Xml, MissingAttrThrows) {
  const auto root = xml::parse("<a/>");
  EXPECT_THROW(root->attr("x"), ParseError);
}

TEST(Xml, RejectsMismatchedTags) {
  EXPECT_THROW(xml::parse("<a><b></a></b>"), ParseError);
}

TEST(Xml, RejectsUnterminatedInput) {
  EXPECT_THROW(xml::parse("<a"), ParseError);
  EXPECT_THROW(xml::parse("<a><b/>"), ParseError);
  EXPECT_THROW(xml::parse("<a v='1/>"), ParseError);
}

TEST(Xml, RejectsTrailingContent) {
  EXPECT_THROW(xml::parse("<a/><b/>"), ParseError);
}

TEST(Xml, RejectsDuplicateAttributes) {
  EXPECT_THROW(xml::parse("<a x='1' x='2'/>"), ParseError);
}

TEST(Xml, RejectsHostileNestingDepth) {
  const auto nested = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += "<a>";
    for (int i = 0; i < depth; ++i) text += "</a>";
    return text;
  };
  EXPECT_NO_THROW(xml::parse(nested(64)));
  EXPECT_THROW(xml::parse(nested(65)), ParseError);
  // 100k levels would overflow the recursion without the bound; so would
  // an unterminated bomb.
  EXPECT_THROW(xml::parse(nested(100'000)), ParseError);
  std::string open_only;
  for (int i = 0; i < 100'000; ++i) open_only += "<a>";
  try {
    xml::parse(open_only);
    ADD_FAILURE() << "no error";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nested deeper than 64"),
              std::string::npos)
        << e.what();
  }
}

TEST(Xml, MissingFileThrows) {
  EXPECT_THROW(xml::parse_file("/nonexistent/file.xml"), IoError);
}
