#include "src/serve/protocol.hpp"

#include <cctype>
#include <limits>
#include <sstream>

#include "src/support/check.hpp"
#include "src/support/json.hpp"

namespace rbpeb::serve {

// ---- Json readers ---------------------------------------------------------

const Json* Json::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

const std::string& Json::as_string(const std::string& where) const {
  RBPEB_REQUIRE(type == Type::String, where + ": expected a JSON string");
  return text;
}

bool Json::as_bool(const std::string& where) const {
  RBPEB_REQUIRE(type == Type::Bool, where + ": expected a JSON bool");
  return boolean;
}

std::uint64_t Json::as_u64(const std::string& where) const {
  RBPEB_REQUIRE(type == Type::Number, where + ": expected a JSON number");
  RBPEB_REQUIRE(!text.empty() &&
                    text.find_first_not_of("0123456789") == std::string::npos,
                where + ": expected a non-negative integer, got '" + text +
                    "'");
  try {
    return std::stoull(text);
  } catch (const std::out_of_range&) {
    throw PreconditionError(where + ": integer out of range: '" + text + "'");
  }
}

std::int64_t Json::as_i64(const std::string& where) const {
  RBPEB_REQUIRE(type == Type::Number, where + ": expected a JSON number");
  std::string digits = text;
  const bool negative = !digits.empty() && digits[0] == '-';
  if (negative) digits.erase(0, 1);
  RBPEB_REQUIRE(!digits.empty() &&
                    digits.find_first_not_of("0123456789") == std::string::npos,
                where + ": expected an integer, got '" + text + "'");
  try {
    return std::stoll(text);
  } catch (const std::out_of_range&) {
    throw PreconditionError(where + ": integer out of range: '" + text + "'");
  }
}

// ---- parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    RBPEB_REQUIRE(pos_ == text_.size(),
                  error("trailing characters after the JSON document"));
    return value;
  }

 private:
  std::string error(const std::string& what) const {
    return "json: " + what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    RBPEB_REQUIRE(pos_ < text_.size(), error("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    RBPEB_REQUIRE(peek() == c,
                  error(std::string("expected '") + c + "', got '" +
                        text_[pos_] + "'"));
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Json parse_value() {
    Json value;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        value.type = Json::Type::String;
        value.text = parse_string();
        return value;
      case 't':
        RBPEB_REQUIRE(consume_literal("true"), error("bad literal"));
        value.type = Json::Type::Bool;
        value.boolean = true;
        return value;
      case 'f':
        RBPEB_REQUIRE(consume_literal("false"), error("bad literal"));
        value.type = Json::Type::Bool;
        value.boolean = false;
        return value;
      case 'n':
        RBPEB_REQUIRE(consume_literal("null"), error("bad literal"));
        value.type = Json::Type::Null;
        return value;
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    Json value;
    value.type = Json::Type::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      RBPEB_REQUIRE(peek() == '"', error("expected an object key"));
      std::string key = parse_string();
      expect(':');
      value.object[std::move(key)] = parse_value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  Json parse_array() {
    Json value;
    value.type = Json::Type::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      RBPEB_REQUIRE(pos_ < text_.size(), error("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      RBPEB_REQUIRE(pos_ < text_.size(), error("unterminated escape"));
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The protocol is ASCII (DAG text, trace text, option strings);
          // \u escapes outside ASCII have no field to land in. Decode the
          // ASCII range, reject the rest loudly.
          RBPEB_REQUIRE(pos_ + 4 <= text_.size(), error("truncated \\u"));
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else throw PreconditionError(error("bad \\u escape"));
          }
          RBPEB_REQUIRE(code < 0x80, error("non-ASCII \\u escape"));
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          throw PreconditionError(error("unknown escape"));
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    RBPEB_REQUIRE(pos_ > start, error("expected a value"));
    Json value;
    value.type = Json::Type::Number;
    value.text = text_.substr(start, pos_ - start);
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

// ---- request --------------------------------------------------------------

RequestMessage parse_request(const std::string& line) {
  const Json doc = json_parse(line);
  RBPEB_REQUIRE(doc.type == Json::Type::Object,
                "request: expected a JSON object");
  // Unknown keys fail loudly — the same rule solver options follow, so a
  // typo like "buget" cannot silently run defaults.
  static const char* kKnown[] = {"id",           "dag",        "dag_file",
                                 "dag_format",   "r",          "model",
                                 "solver",       "options",    "sources_blue",
                                 "sinks_blue",   "budget"};
  for (const auto& [key, value] : doc.object) {
    bool known = false;
    for (const char* k : kKnown) known |= (key == k);
    RBPEB_REQUIRE(known, "request: unknown field '" + key + "'");
  }

  RequestMessage request;
  if (const Json* id = doc.find("id")) request.id = id->as_string("id");
  const Json* dag = doc.find("dag");
  const Json* dag_file = doc.find("dag_file");
  RBPEB_REQUIRE(dag != nullptr || dag_file != nullptr,
                "request: missing required field 'dag' (or 'dag_file')");
  RBPEB_REQUIRE(dag == nullptr || dag_file == nullptr,
                "request: 'dag' and 'dag_file' are mutually exclusive");
  if (dag != nullptr) request.dag_text = dag->as_string("dag");
  if (dag_file != nullptr) request.dag_file = dag_file->as_string("dag_file");
  if (const Json* format = doc.find("dag_format")) {
    RBPEB_REQUIRE(dag_file != nullptr,
                  "request: 'dag_format' needs 'dag_file'");
    request.dag_format = format->as_string("dag_format");
    RBPEB_REQUIRE(request.dag_format == "auto" ||
                      request.dag_format == "text" ||
                      request.dag_format == "rbg",
                  "request: 'dag_format' must be auto, text, or rbg");
  }
  const Json* r = doc.find("r");
  RBPEB_REQUIRE(r != nullptr, "request: missing required field 'r'");
  request.red_limit = static_cast<std::size_t>(r->as_u64("r"));
  if (const Json* model = doc.find("model")) {
    request.model = model->as_string("model");
  }
  if (const Json* solver = doc.find("solver")) {
    request.solver = solver->as_string("solver");
  }
  if (const Json* flag = doc.find("sources_blue")) {
    request.sources_blue = flag->as_bool("sources_blue");
  }
  if (const Json* flag = doc.find("sinks_blue")) {
    request.sinks_blue = flag->as_bool("sinks_blue");
  }
  if (const Json* options = doc.find("options")) {
    RBPEB_REQUIRE(options->type == Json::Type::Object,
                  "request: 'options' must be an object of string values");
    for (const auto& [key, value] : options->object) {
      request.options[key] = value.as_string("options." + key);
    }
  }
  if (const Json* budget = doc.find("budget")) {
    RBPEB_REQUIRE(budget->type == Json::Type::Object,
                  "request: 'budget' must be an object");
    for (const auto& [key, value] : budget->object) {
      const std::string where = "budget." + key;
      if (key == "states") {
        request.budget_states = static_cast<std::size_t>(value.as_u64(where));
      } else if (key == "iterations") {
        request.budget_iterations =
            static_cast<std::size_t>(value.as_u64(where));
      } else if (key == "ms") {
        request.budget_ms = value.as_i64(where);
      } else if (key == "threads") {
        request.budget_threads = static_cast<std::size_t>(value.as_u64(where));
      } else if (key == "memory") {
        request.budget_memory = static_cast<std::size_t>(value.as_u64(where));
      } else if (key == "disk") {
        request.budget_disk = static_cast<std::size_t>(value.as_u64(where));
      } else {
        throw PreconditionError("request: unknown budget field '" + key + "'");
      }
    }
  }
  return request;
}

// ---- response -------------------------------------------------------------

std::string ResponseMessage::to_json() const {
  std::ostringstream os;
  os << '{' << "\"id\":" << json_quote(id)
     << ",\"status\":" << json_quote(status)
     << ",\"cache\":" << json_quote(cache);
  if (!solver.empty()) os << ",\"solver\":" << json_quote(solver);
  if (!cost.empty()) os << ",\"cost\":" << json_quote(cost);
  if (!trace_text.empty()) os << ",\"trace\":" << json_quote(trace_text);
  if (!epsilon.empty()) os << ",\"epsilon\":" << json_quote(epsilon);
  if (!lower_bound.empty()) {
    os << ",\"lower_bound\":" << json_quote(lower_bound);
  }
  if (!detail.empty()) os << ",\"detail\":" << json_quote(detail);
  os << ",\"queue_us\":" << queue_us << ",\"solve_us\":" << solve_us;
  if (!stats.empty()) {
    os << ",\"stats\":{";
    bool first = true;
    for (const auto& [key, value] : stats) {
      if (!first) os << ',';
      first = false;
      os << json_quote(key) << ':' << json_quote(value);
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

}  // namespace rbpeb::serve
