#include "xml/parser.h"

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

namespace mrx::xml {
namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

/// Cursor over the input with line/column tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t ahead) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }

  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    Advance();
    return true;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (input_.substr(pos_).substr(0, lit.size()) != lit) return false;
    for (size_t i = 0; i < lit.size(); ++i) Advance();
    return true;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  /// Advances until `lit` has just been consumed; false if it never occurs.
  bool SkipPast(std::string_view lit) {
    size_t found = input_.find(lit, pos_);
    if (found == std::string_view::npos) return false;
    while (pos_ < found + lit.size()) Advance();
    return true;
  }

  std::string_view Remaining() const { return input_.substr(pos_); }
  size_t pos() const { return pos_; }
  std::string_view Slice(size_t begin, size_t end) const {
    return input_.substr(begin, end - begin);
  }

  Status Error(std::string message) const {
    return Status::ParseError(message + " at " + std::to_string(line_) + ":" +
                              std::to_string(col_));
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  uint32_t line_ = 1;
  uint32_t col_ = 1;
};

/// Parser state: cursor + handler. The element stack lives in
/// ParseDocumentElement, so no construct recurses on nesting depth.
class ParserImpl {
 public:
  ParserImpl(std::string_view input, ParseEventHandler* handler)
      : cur_(input), handler_(handler) {}

  Status Run() {
    MRX_RETURN_IF_ERROR(ParseProlog());
    if (cur_.AtEnd() || cur_.Peek() != '<') {
      return cur_.Error("expected document element");
    }
    MRX_RETURN_IF_ERROR(ParseDocumentElement());
    // Trailing misc: whitespace, comments, PIs.
    while (true) {
      cur_.SkipWhitespace();
      if (cur_.AtEnd()) return Status::Ok();
      if (cur_.ConsumeLiteral("<!--")) {
        if (!cur_.SkipPast("-->")) return cur_.Error("unterminated comment");
      } else if (cur_.ConsumeLiteral("<?")) {
        if (!cur_.SkipPast("?>")) return cur_.Error("unterminated PI");
      } else {
        return cur_.Error("content after document element");
      }
    }
  }

 private:
  Status ParseProlog() {
    while (true) {
      cur_.SkipWhitespace();
      if (cur_.ConsumeLiteral("<?")) {
        if (!cur_.SkipPast("?>")) {
          return cur_.Error("unterminated XML declaration or PI");
        }
      } else if (cur_.ConsumeLiteral("<!--")) {
        if (!cur_.SkipPast("-->")) return cur_.Error("unterminated comment");
      } else if (cur_.ConsumeLiteral("<!DOCTYPE")) {
        MRX_RETURN_IF_ERROR(SkipDoctype());
      } else {
        return Status::Ok();
      }
    }
  }

  /// Skips a DOCTYPE declaration, including a bracketed internal subset.
  Status SkipDoctype() {
    int depth = 0;
    while (!cur_.AtEnd()) {
      char c = cur_.Advance();
      if (c == '[') {
        ++depth;
      } else if (c == ']') {
        --depth;
      } else if (c == '>' && depth == 0) {
        return Status::Ok();
      }
    }
    return cur_.Error("unterminated DOCTYPE");
  }

  Status ParseName(std::string* out) {
    if (cur_.AtEnd() || !IsNameStartChar(cur_.Peek())) {
      return cur_.Error("expected a name");
    }
    size_t begin = cur_.pos();
    while (!cur_.AtEnd() && IsNameChar(cur_.Peek())) cur_.Advance();
    *out = std::string(cur_.Slice(begin, cur_.pos()));
    return Status::Ok();
  }

  /// Decodes one entity/char reference starting just after '&' into `out`.
  Status DecodeReference(std::string* out) {
    size_t begin = cur_.pos();
    while (!cur_.AtEnd() && cur_.Peek() != ';') {
      if (cur_.Peek() == '<' || cur_.Peek() == '&') {
        return cur_.Error("malformed entity reference");
      }
      cur_.Advance();
    }
    if (cur_.AtEnd()) return cur_.Error("unterminated entity reference");
    std::string_view name = cur_.Slice(begin, cur_.pos());
    cur_.Advance();  // ';'
    if (name == "lt") {
      *out += '<';
    } else if (name == "gt") {
      *out += '>';
    } else if (name == "amp") {
      *out += '&';
    } else if (name == "apos") {
      *out += '\'';
    } else if (name == "quot") {
      *out += '"';
    } else if (!name.empty() && name[0] == '#') {
      uint32_t code = 0;
      bool ok = false;
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        for (size_t i = 2; i < name.size(); ++i) {
          char c = name[i];
          uint32_t digit;
          if (c >= '0' && c <= '9') digit = c - '0';
          else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
          else if (c >= 'A' && c <= 'F') digit = 10 + (c - 'A');
          else return cur_.Error("bad hex character reference");
          code = code * 16 + digit;
          ok = true;
        }
      } else {
        for (size_t i = 1; i < name.size(); ++i) {
          char c = name[i];
          if (c < '0' || c > '9') {
            return cur_.Error("bad decimal character reference");
          }
          code = code * 10 + (c - '0');
          ok = true;
        }
      }
      if (!ok) return cur_.Error("empty character reference");
      AppendUtf8(code, out);
    } else {
      return cur_.Error("unknown entity '" + std::string(name) + "'");
    }
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Status ParseAttributeValue(std::string* out) {
    char quote = cur_.Peek();
    if (quote != '"' && quote != '\'') {
      return cur_.Error("expected quoted attribute value");
    }
    cur_.Advance();
    while (!cur_.AtEnd() && cur_.Peek() != quote) {
      char c = cur_.Peek();
      if (c == '<') return cur_.Error("'<' in attribute value");
      cur_.Advance();
      if (c == '&') {
        MRX_RETURN_IF_ERROR(DecodeReference(out));
      } else {
        *out += c;
      }
    }
    if (cur_.AtEnd()) return cur_.Error("unterminated attribute value");
    cur_.Advance();  // closing quote
    return Status::Ok();
  }

  /// Parses a start tag with the cursor on its '<' and reports it. A
  /// self-closing tag also reports its end; any other tag's name is pushed
  /// onto `open`.
  Status ParseStartTag(std::vector<std::string>* open) {
    cur_.Advance();  // '<'
    std::string name;
    MRX_RETURN_IF_ERROR(ParseName(&name));

    std::vector<Attribute> attributes;
    while (true) {
      cur_.SkipWhitespace();
      if (cur_.AtEnd()) return cur_.Error("unterminated start tag");
      char c = cur_.Peek();
      if (c == '>' || c == '/') break;
      Attribute attr;
      MRX_RETURN_IF_ERROR(ParseName(&attr.name));
      cur_.SkipWhitespace();
      if (!cur_.Consume('=')) return cur_.Error("expected '='");
      cur_.SkipWhitespace();
      MRX_RETURN_IF_ERROR(ParseAttributeValue(&attr.value));
      for (const Attribute& prev : attributes) {
        if (prev.name == attr.name) {
          return cur_.Error("duplicate attribute '" + attr.name + "'");
        }
      }
      attributes.push_back(std::move(attr));
    }

    if (cur_.Consume('/')) {
      if (!cur_.Consume('>')) return cur_.Error("expected '/>'");
      MRX_RETURN_IF_ERROR(handler_->StartElement(name, attributes));
      return handler_->EndElement(name);
    }
    cur_.Advance();  // '>'
    MRX_RETURN_IF_ERROR(handler_->StartElement(name, attributes));
    open->push_back(std::move(name));
    return Status::Ok();
  }

  /// Parses the document element, with the cursor on its '<', up to and
  /// including its end tag. One loop over an explicit stack of open
  /// element names instead of recursion, so nesting depth is bounded by
  /// memory rather than by the call stack.
  Status ParseDocumentElement() {
    std::vector<std::string> open;
    MRX_RETURN_IF_ERROR(ParseStartTag(&open));
    std::string text;
    auto flush_text = [&]() -> Status {
      if (text.empty()) return Status::Ok();
      Status s = handler_->CharacterData(text);
      text.clear();
      return s;
    };

    while (!open.empty()) {
      if (cur_.AtEnd()) {
        return cur_.Error("unterminated element '" + open.back() + "'");
      }
      char c = cur_.Peek();
      if (c == '<') {
        if (cur_.PeekAt(1) == '/') {
          MRX_RETURN_IF_ERROR(flush_text());
          cur_.Advance();  // '<'
          cur_.Advance();  // '/'
          std::string end_name;
          MRX_RETURN_IF_ERROR(ParseName(&end_name));
          cur_.SkipWhitespace();
          if (!cur_.Consume('>')) return cur_.Error("expected '>'");
          if (end_name != open.back()) {
            return cur_.Error("mismatched end tag '</" + end_name +
                              ">' for '<" + open.back() + ">'");
          }
          MRX_RETURN_IF_ERROR(handler_->EndElement(end_name));
          open.pop_back();
          continue;
        }
        if (cur_.ConsumeLiteral("<!--")) {
          MRX_RETURN_IF_ERROR(flush_text());
          if (!cur_.SkipPast("-->")) return cur_.Error("unterminated comment");
          continue;
        }
        if (cur_.ConsumeLiteral("<![CDATA[")) {
          size_t begin = cur_.pos();
          if (!cur_.SkipPast("]]>")) return cur_.Error("unterminated CDATA");
          text += cur_.Slice(begin, cur_.pos() - 3);
          continue;
        }
        if (cur_.ConsumeLiteral("<?")) {
          MRX_RETURN_IF_ERROR(flush_text());
          if (!cur_.SkipPast("?>")) return cur_.Error("unterminated PI");
          continue;
        }
        MRX_RETURN_IF_ERROR(flush_text());
        MRX_RETURN_IF_ERROR(ParseStartTag(&open));
        continue;
      }
      cur_.Advance();
      if (c == '&') {
        MRX_RETURN_IF_ERROR(DecodeReference(&text));
      } else {
        text += c;
      }
    }
    return Status::Ok();
  }

  Cursor cur_;
  ParseEventHandler* handler_;
};

}  // namespace

Status Parser::Parse(std::string_view input, ParseEventHandler* handler) {
  // Skip a UTF-8 byte-order mark if present.
  if (input.size() >= 3 && input.substr(0, 3) == "\xEF\xBB\xBF") {
    input.remove_prefix(3);
  }
  ParserImpl impl(input, handler);
  return impl.Run();
}

}  // namespace mrx::xml
