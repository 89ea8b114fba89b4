#include "platform/xml.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace tir::xml {

const std::string& Element::attr(const std::string& key) const {
  const auto it = attributes.find(key);
  if (it == attributes.end())
    throw ParseError("element <" + name + "> lacks attribute '" + key + "'");
  return it->second;
}

std::string Element::attr_or(const std::string& key,
                             std::string fallback) const {
  const auto it = attributes.find(key);
  return it == attributes.end() ? std::move(fallback) : it->second;
}

bool Element::has_attr(const std::string& key) const {
  return attributes.count(key) != 0;
}

std::vector<const Element*> Element::children_named(
    const std::string& child_name) const {
  std::vector<const Element*> out;
  for (const auto& c : children)
    if (c->name == child_name) out.push_back(c.get());
  return out;
}

const Element* Element::first_child(const std::string& child_name) const {
  for (const auto& c : children)
    if (c->name == child_name) return c.get();
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<Element> parse_document() {
    skip_misc();
    auto root = parse_element(1);
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  // Deepest element nesting accepted. Real platform files nest a handful of
  // levels; the bound keeps hostile input from exhausting the stack in the
  // recursive descent here and in the Element tree's recursive teardown.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    throw ParseError("xml:" + std::to_string(line) + ": " + msg);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }
  char get() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }
  bool consume(std::string_view s) {
    if (text_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  // Skips whitespace, comments, the <?xml?> declaration, and <!DOCTYPE>.
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (consume("<!--")) {
        const auto end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (consume("<?")) {
        const auto end = text_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else if (consume("<!DOCTYPE")) {
        const auto end = text_.find('>', pos_);
        if (end == std::string_view::npos) fail("unterminated DOCTYPE");
        pos_ = end + 1;
      } else {
        return;
      }
    }
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (!eof()) {
      const char c = peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == ':' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string decode_entities(std::string_view raw) const {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        continue;
      }
      const auto rest = raw.substr(i);
      const auto try_one = [&](std::string_view ent, char ch) {
        if (rest.substr(0, ent.size()) == ent) {
          out.push_back(ch);
          i += ent.size() - 1;
          return true;
        }
        return false;
      };
      if (!try_one("&lt;", '<') && !try_one("&gt;", '>') &&
          !try_one("&amp;", '&') && !try_one("&quot;", '"') &&
          !try_one("&apos;", '\''))
        out.push_back(raw[i]);
    }
    return out;
  }

  std::string parse_attr_value() {
    const char quote = get();
    if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
    const std::size_t start = pos_;
    while (!eof() && peek() != quote) ++pos_;
    if (eof()) fail("unterminated attribute value");
    const auto raw = text_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return decode_entities(raw);
  }

  std::unique_ptr<Element> parse_element(int depth) {
    if (depth > kMaxDepth)
      fail("elements nested deeper than " + std::to_string(kMaxDepth));
    if (!consume("<")) fail("expected '<'");
    auto elem = std::make_unique<Element>();
    elem->name = parse_name();
    for (;;) {
      skip_ws();
      if (consume("/>")) return elem;
      if (consume(">")) break;
      const std::string key = parse_name();
      skip_ws();
      if (!consume("=")) fail("expected '=' after attribute name");
      skip_ws();
      if (!elem->attributes.emplace(key, parse_attr_value()).second)
        fail("duplicate attribute '" + key + "'");
    }
    // Content: text, children, comments, until </name>.
    for (;;) {
      const std::size_t text_start = pos_;
      while (!eof() && peek() != '<') ++pos_;
      elem->text += decode_entities(text_.substr(text_start, pos_ - text_start));
      if (eof()) fail("unterminated element <" + elem->name + ">");
      if (consume("<!--")) {
        const auto end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (text_.substr(pos_, 2) == "</") {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != elem->name)
          fail("mismatched closing tag </" + closing + "> for <" +
               elem->name + ">");
        skip_ws();
        if (!consume(">")) fail("expected '>' in closing tag");
        return elem;
      }
      elem->children.push_back(parse_element(depth + 1));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<Element> parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::unique_ptr<Element> parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  return parse(content);
}

}  // namespace tir::xml
