#include "exp/compare/json.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dmp::exp {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
      if (s_[i] == '\n') ++line;
    }
    throw std::runtime_error{"json: " + message + " (line " +
                             std::to_string(line) + ")"};
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    if (depth_ > 128) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          v.boolean = true;
          return v;
        }
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) {
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          v.boolean = false;
          return v;
        }
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    ++depth_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    ++depth_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Our writers only escape control characters; render anything in
          // the Latin-1 range directly and pass the rest through as '?'.
          if (code < 0x80) out += static_cast<char>(code);
          else out += '?';
          break;
        }
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = s_.substr(start, pos_ - start);
    char* end = nullptr;
    v.number = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size()) fail("bad number");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// One CSV cell becomes a number exactly when the whole cell parses as one.
JsonValue cell_value(const std::string& cell) {
  JsonValue v;
  if (!cell.empty()) {
    char* end = nullptr;
    const double d = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) {
      v.kind = JsonValue::Kind::kNumber;
      v.number = d;
      v.text = cell;
      return v;
    }
  }
  v.kind = JsonValue::Kind::kString;
  v.text = cell;
  return v;
}

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::brief() const {
  // Built by appending, not `"[" + std::to_string(n)`: GCC 12 flags that
  // with a false -Wrestrict in Release builds.
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return boolean ? "true" : "false";
    case Kind::kNumber: return text;
    case Kind::kString: return std::string{"\""}.append(text).append("\"");
    case Kind::kArray:
      return std::string{"["}.append(std::to_string(array.size())).append(
          " items]");
    case Kind::kObject:
      return std::string{"{"}.append(std::to_string(object.size())).append(
          " keys}");
  }
  return "?";
}

std::string JsonValue::to_json() const {
  std::string out;
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return boolean ? "true" : "false";
    case Kind::kNumber: return text;
    case Kind::kString:
      append_quoted(out, text);
      return out;
    case Kind::kArray:
      out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i) out += ", ";
        out += array[i].to_json();
      }
      return out + "]";
    case Kind::kObject:
      out = "{";
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i) out += ", ";
        append_quoted(out, object[i].first);
        out += ": ";
        out += object[i].second.to_json();
      }
      return out + "}";
  }
  return "null";
}

JsonValue parse_json(const std::string& text) {
  return Parser{text}.parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    throw std::runtime_error{path + " is empty"};
  }
  try {
    return parse_json(text);
  } catch (const std::exception& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

JsonValue csv_to_json(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error{"csv: empty file"};
  }
  const auto columns = split_csv_row(line);
  JsonValue doc;
  doc.kind = JsonValue::Kind::kObject;
  JsonValue cols;
  cols.kind = JsonValue::Kind::kArray;
  for (const auto& c : columns) {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.text = c;
    cols.array.push_back(std::move(v));
  }
  JsonValue rows;
  rows.kind = JsonValue::Kind::kArray;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_csv_row(line);
    if (cells.size() != columns.size()) {
      throw std::runtime_error{"csv: row " + std::to_string(line_no) + " has " +
                               std::to_string(cells.size()) + " cells, header " +
                               std::to_string(columns.size())};
    }
    JsonValue row;
    row.kind = JsonValue::Kind::kObject;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      row.object.emplace_back(columns[i], cell_value(cells[i]));
    }
    rows.array.push_back(std::move(row));
  }
  doc.object.emplace_back("columns", std::move(cols));
  doc.object.emplace_back("rows", std::move(rows));
  return doc;
}

JsonValue csv_file_to_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error{"cannot open " + path};
  try {
    return csv_to_json(in);
  } catch (const std::exception& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

const JsonValue* resolve_path(const JsonValue& root, const std::string& path) {
  const JsonValue* at = &root;
  std::size_t start = 0;
  while (start <= path.size()) {
    const auto dot = path.find('.', start);
    const std::string seg = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    if (seg.empty()) return nullptr;
    if (at->is_object()) {
      at = at->find(seg);
      if (at == nullptr) return nullptr;
    } else if (at->is_array()) {
      bool digits = true;
      for (char c : seg) {
        if (!std::isdigit(static_cast<unsigned char>(c))) digits = false;
      }
      if (digits) {
        const std::size_t idx = std::strtoull(seg.c_str(), nullptr, 10);
        if (idx >= at->array.size()) return nullptr;
        at = &at->array[idx];
      } else {
        const JsonValue* hit = nullptr;
        for (const auto& elem : at->array) {
          const JsonValue* name = elem.find("name");
          if (name != nullptr && name->kind == JsonValue::Kind::kString &&
              name->text == seg) {
            hit = &elem;
            break;
          }
        }
        if (hit == nullptr) return nullptr;
        at = hit;
      }
    } else {
      return nullptr;
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return at;
}

}  // namespace dmp::exp
