#include "datagen/dtd.h"

#include <cctype>

namespace mrx::datagen {
namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.' || c == ':';
}

/// Character cursor over the DTD text.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  void Advance() { ++pos_; }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    Advance();
    return true;
  }

  bool SkipPast(std::string_view lit) {
    size_t found = text_.find(lit, pos_);
    if (found == std::string_view::npos) return false;
    pos_ = found + lit.size();
    return true;
  }

  std::string ReadName() {
    size_t begin = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return std::string(text_.substr(begin, pos_ - begin));
  }

  Status Error(std::string message) const {
    return Status::ParseError("DTD: " + message + " near offset " +
                              std::to_string(pos_));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Occurrence ReadOccurrence(Cursor* cur) {
  if (cur->Consume('?')) return Occurrence::kOptional;
  if (cur->Consume('*')) return Occurrence::kZeroOrMore;
  if (cur->Consume('+')) return Occurrence::kOneOrMore;
  return Occurrence::kOne;
}

/// Deepest group nesting a content model may have. ParseGroup recurses
/// once per '(' (and the particle tree is walked and destroyed
/// recursively), so a hostile DTD must not choose the depth.
constexpr int kMaxGroupDepth = 256;

/// Parses a parenthesized group (cursor sits just after '('), `depth`
/// groups deep; used for deterministic (children) content. Mixed content
/// is handled separately.
Result<std::unique_ptr<Particle>> ParseGroup(Cursor* cur, int depth) {
  if (depth > kMaxGroupDepth) {
    return cur->Error("content model nests deeper than " +
                      std::to_string(kMaxGroupDepth) + " groups");
  }
  auto group = std::make_unique<Particle>();
  group->kind = ParticleKind::kSequence;  // Revised to kChoice on '|'.
  bool decided = false;

  while (true) {
    cur->SkipWhitespace();
    if (cur->Consume('(')) {
      MRX_ASSIGN_OR_RETURN(auto child, ParseGroup(cur, depth + 1));
      group->children.push_back(std::move(child));
    } else if (cur->ConsumeLiteral("#PCDATA")) {
      auto child = std::make_unique<Particle>();
      child->kind = ParticleKind::kPcdata;
      group->children.push_back(std::move(child));
    } else {
      std::string name = cur->ReadName();
      if (name.empty()) return cur->Error("expected a name in content model");
      auto child = std::make_unique<Particle>();
      child->kind = ParticleKind::kElement;
      child->name = std::move(name);
      child->occurrence = ReadOccurrence(cur);
      group->children.push_back(std::move(child));
    }
    cur->SkipWhitespace();
    if (cur->Consume(',')) {
      if (decided && group->kind != ParticleKind::kSequence) {
        return cur->Error("mixed ',' and '|' in one group");
      }
      group->kind = ParticleKind::kSequence;
      decided = true;
      continue;
    }
    if (cur->Consume('|')) {
      if (decided && group->kind != ParticleKind::kChoice) {
        return cur->Error("mixed ',' and '|' in one group");
      }
      group->kind = ParticleKind::kChoice;
      decided = true;
      continue;
    }
    if (cur->Consume(')')) {
      group->occurrence = ReadOccurrence(cur);
      return group;
    }
    return cur->Error("expected ',', '|' or ')' in content model");
  }
}

Status ParseAttlistDecl(
    Cursor* cur, std::map<std::string, DtdElement, std::less<>>* elements);

}  // namespace

const DtdElement* Dtd::FindElement(std::string_view name) const {
  auto it = elements_.find(name);
  return it == elements_.end() ? nullptr : &it->second;
}

Result<Dtd> Dtd::Parse(std::string_view text) {
  Dtd dtd;
  Cursor cur(text);
  while (true) {
    cur.SkipWhitespace();
    if (cur.AtEnd()) break;
    if (cur.ConsumeLiteral("<!--")) {
      if (!cur.SkipPast("-->")) return cur.Error("unterminated comment");
      continue;
    }
    if (cur.ConsumeLiteral("<?")) {
      if (!cur.SkipPast("?>")) return cur.Error("unterminated PI");
      continue;
    }
    if (cur.ConsumeLiteral("<!ENTITY")) {
      if (!cur.SkipPast(">")) return cur.Error("unterminated ENTITY");
      continue;
    }
    if (cur.ConsumeLiteral("<!NOTATION")) {
      if (!cur.SkipPast(">")) return cur.Error("unterminated NOTATION");
      continue;
    }
    if (cur.ConsumeLiteral("<!ELEMENT")) {
      cur.SkipWhitespace();
      std::string name = cur.ReadName();
      if (name.empty()) return cur.Error("ELEMENT without a name");
      DtdElement element;
      element.name = name;
      cur.SkipWhitespace();
      if (cur.ConsumeLiteral("EMPTY")) {
        element.content_kind = ContentKind::kEmpty;
      } else if (cur.ConsumeLiteral("ANY")) {
        element.content_kind = ContentKind::kAny;
      } else if (cur.Consume('(')) {
        MRX_ASSIGN_OR_RETURN(auto model, ParseGroup(&cur, 1));
        bool mixed = false;
        // Mixed content parses as a group whose first child is #PCDATA.
        for (const auto& child : model->children) {
          if (child->kind == ParticleKind::kPcdata) mixed = true;
        }
        if (mixed) {
          element.content_kind = ContentKind::kMixed;
          // Keep only the element alternatives as a choice.
          auto choice = std::make_unique<Particle>();
          choice->kind = ParticleKind::kChoice;
          choice->occurrence = Occurrence::kZeroOrMore;
          for (auto& child : model->children) {
            if (child->kind == ParticleKind::kElement) {
              choice->children.push_back(std::move(child));
            }
          }
          element.model = std::move(choice);
        } else {
          element.content_kind = ContentKind::kChildren;
          element.model = std::move(model);
        }
      } else {
        return cur.Error("bad content spec for element '" + name + "'");
      }
      cur.SkipWhitespace();
      if (!cur.Consume('>')) {
        return cur.Error("expected '>' after ELEMENT " + name);
      }
      auto [it, inserted] =
          dtd.elements_.emplace(name, std::move(element));
      if (!inserted) {
        return Status::ParseError("DTD: duplicate element '" + name + "'");
      }
      if (dtd.root_name_.empty()) dtd.root_name_ = name;
      continue;
    }
    if (cur.ConsumeLiteral("<!ATTLIST")) {
      MRX_RETURN_IF_ERROR(ParseAttlistDecl(&cur, &dtd.elements_));
      continue;
    }
    return cur.Error("unrecognized declaration");
  }
  if (dtd.elements_.empty()) {
    return Status::ParseError("DTD: no element declarations");
  }
  return dtd;
}

namespace {

Status ParseAttlistDecl(
    Cursor* cur, std::map<std::string, DtdElement, std::less<>>* elements) {
  cur->SkipWhitespace();
  std::string element_name = cur->ReadName();
  if (element_name.empty()) return cur->Error("ATTLIST without element name");
  auto it = elements->find(element_name);

  std::vector<DtdAttribute> attrs;
  while (true) {
    cur->SkipWhitespace();
    if (cur->Consume('>')) break;
    DtdAttribute attr;
    attr.name = cur->ReadName();
    if (attr.name.empty()) return cur->Error("attribute without a name");
    cur->SkipWhitespace();
    if (cur->ConsumeLiteral("CDATA")) {
      attr.type = AttributeType::kCdata;
    } else if (cur->ConsumeLiteral("IDREFS")) {
      attr.type = AttributeType::kIdrefs;
    } else if (cur->ConsumeLiteral("IDREF")) {
      attr.type = AttributeType::kIdref;
    } else if (cur->ConsumeLiteral("ID")) {
      attr.type = AttributeType::kId;
    } else if (cur->ConsumeLiteral("NMTOKENS")) {
      attr.type = AttributeType::kNmtoken;
    } else if (cur->ConsumeLiteral("NMTOKEN")) {
      attr.type = AttributeType::kNmtoken;
    } else if (cur->ConsumeLiteral("ENTITY") ||
               cur->ConsumeLiteral("ENTITIES")) {
      attr.type = AttributeType::kCdata;
    } else if (cur->Consume('(')) {
      attr.type = AttributeType::kEnumeration;
      while (true) {
        cur->SkipWhitespace();
        std::string value = cur->ReadName();
        if (value.empty()) return cur->Error("empty enumeration value");
        attr.enum_values.push_back(std::move(value));
        cur->SkipWhitespace();
        if (cur->Consume('|')) continue;
        if (cur->Consume(')')) break;
        return cur->Error("expected '|' or ')' in enumeration");
      }
    } else {
      return cur->Error("unsupported attribute type for '" + attr.name +
                        "'");
    }
    cur->SkipWhitespace();
    if (cur->ConsumeLiteral("#REQUIRED")) {
      attr.presence = AttributePresence::kRequired;
    } else if (cur->ConsumeLiteral("#IMPLIED")) {
      attr.presence = AttributePresence::kImplied;
    } else if (cur->ConsumeLiteral("#FIXED")) {
      attr.presence = AttributePresence::kFixed;
      cur->SkipWhitespace();
      char quote = cur->Peek();
      if (quote != '"' && quote != '\'') {
        return cur->Error("expected quoted #FIXED value");
      }
      cur->Advance();
      while (!cur->AtEnd() && cur->Peek() != quote) {
        attr.default_value += cur->Peek();
        cur->Advance();
      }
      if (!cur->Consume(quote)) return cur->Error("unterminated value");
    } else if (cur->Peek() == '"' || cur->Peek() == '\'') {
      attr.presence = AttributePresence::kDefault;
      char quote = cur->Peek();
      cur->Advance();
      while (!cur->AtEnd() && cur->Peek() != quote) {
        attr.default_value += cur->Peek();
        cur->Advance();
      }
      if (!cur->Consume(quote)) return cur->Error("unterminated value");
    } else {
      return cur->Error("bad default spec for attribute '" + attr.name +
                        "'");
    }
    attrs.push_back(std::move(attr));
  }

  if (it != elements->end()) {
    for (auto& attr : attrs) it->second.attributes.push_back(std::move(attr));
  }
  // ATTLIST for an undeclared element is legal XML; we ignore it.
  return Status::Ok();
}

}  // namespace
}  // namespace mrx::datagen
