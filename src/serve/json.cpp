#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace tir::serve {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': {
        v.type = JsonValue::Type::object;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        for (;;) {
          skip_ws();
          std::string key = string_body();
          skip_ws();
          expect(':');
          v.object.emplace_back(std::move(key), value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.type = JsonValue::Type::array;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        for (;;) {
          v.array.push_back(value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"':
        v.type = JsonValue::Type::string;
        v.string = string_body();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.type = JsonValue::Type::boolean;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.type = JsonValue::Type::boolean;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default:
        return number();
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9')
        code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        code += static_cast<unsigned>(h - 'A' + 10);
      else
        fail("bad \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  /// Copies the raw multi-byte sequence whose lead byte was just read,
  /// after checking it is well-formed UTF-8: an id is echoed back in the
  /// response, which must stay valid JSON text.
  void append_raw_utf8(std::string& out, unsigned char lead) {
    int extra = 0;
    unsigned code = 0;
    if (lead < 0xC0) {
      fail("stray UTF-8 continuation byte");
    } else if (lead < 0xE0) {
      extra = 1;
      code = lead & 0x1Fu;
    } else if (lead < 0xF0) {
      extra = 2;
      code = lead & 0x0Fu;
    } else if (lead < 0xF8) {
      extra = 3;
      code = lead & 0x07u;
    } else {
      fail("invalid UTF-8 lead byte");
    }
    const std::size_t start = pos_ - 1;
    for (int i = 0; i < extra; ++i) {
      if (pos_ >= text_.size() ||
          (static_cast<unsigned char>(text_[pos_]) & 0xC0u) != 0x80u)
        fail("truncated UTF-8 sequence");
      code = (code << 6) | (static_cast<unsigned char>(text_[pos_++]) & 0x3Fu);
    }
    static constexpr unsigned kMinCode[] = {0, 0x80, 0x800, 0x10000};
    if (code < kMinCode[extra]) fail("overlong UTF-8 sequence");
    if (code >= 0xD800 && code <= 0xDFFF) fail("UTF-8-encoded surrogate");
    if (code > 0x10FFFF) fail("UTF-8 code point above U+10FFFF");
    out.append(text_.substr(start, pos_ - start));
  }

  std::string string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (static_cast<unsigned char>(c) >= 0x80) {
        append_raw_utf8(out, static_cast<unsigned char>(c));
        continue;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) fail("unpaired low surrogate");
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Above the BMP, JSON spells a code point as an escaped UTF-16
            // pair; a lone half has no UTF-8 encoding at all.
            if (!consume_literal("\\u")) fail("unpaired high surrogate");
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("unpaired high surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      pos_ = start;
      fail("bad number '" + token + "'");
    }
    JsonValue out;
    out.type = JsonValue::Type::number;
    out.number = v;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

std::string JsonValue::dump() const {
  switch (type) {
    case Type::null:
      return "null";
    case Type::boolean:
      return boolean ? "true" : "false";
    case Type::number: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", number);
      return buf;
    }
    case Type::string: {
      std::string out = "\"";
      out += str::json_escape(string);
      out += "\"";
      return out;
    }
    case Type::object: {
      std::string out = "{";
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"";
        out += str::json_escape(object[i].first);
        out += "\":";
        out += object[i].second.dump();
      }
      return out + "}";
    }
    case Type::array: {
      std::string out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ",";
        out += array[i].dump();
      }
      return out + "]";
    }
  }
  return "null";
}

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

}  // namespace tir::serve
