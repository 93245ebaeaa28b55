#include "obs/trace_event.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/parse.hpp"

namespace gcaching::obs {

std::uint32_t TraceLog::tid_locked(std::thread::id id) {
  const auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const auto tid = static_cast<std::uint32_t>(tids_.size());
  tids_.emplace(id, tid);
  return tid;
}

void TraceLog::complete(std::string name, std::string cat,
                        std::int64_t start_ns, std::int64_t end_ns,
                        std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'X';
  e.ts_ns = start_ns;
  e.dur_ns = std::max<std::int64_t>(0, end_ns - start_ns);
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  e.tid = tid_locked(std::this_thread::get_id());
  events_.push_back(std::move(e));
}

void TraceLog::set_thread_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t tid = tid_locked(std::this_thread::get_id());
  auto& current = thread_names_[tid];
  if (current == name) return;
  current = name;
  TraceEvent e;
  e.name = "thread_name";
  e.ph = 'M';
  e.tid = tid;
  e.args.emplace_back("name", name);
  events_.push_back(std::move(e));
}

std::size_t TraceLog::size() const {
  // GCLINT-ALLOW(hot-path): unqualified-name collision — hot regions call vector::size/flags_.size(), never TraceLog::size; the trace log is collect-time only
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\": ";
  write_json_string(os, e.name);
  os << ", \"ph\": \"" << e.ph << '"';
  if (!e.cat.empty()) {
    os << ", \"cat\": ";
    write_json_string(os, e.cat);
  }
  // Chrome timestamps are microseconds; keep nanosecond resolution as a
  // fraction.
  os << ", \"ts\": " << static_cast<double>(e.ts_ns) / 1000.0;
  if (e.ph == 'X')
    os << ", \"dur\": " << static_cast<double>(e.dur_ns) / 1000.0;
  os << ", \"pid\": 1, \"tid\": " << e.tid;
  if (!e.args.empty()) {
    os << ", \"args\": {";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i > 0) os << ", ";
      write_json_string(os, e.args[i].first);
      os << ": ";
      write_json_string(os, e.args[i].second);
    }
    os << '}';
  }
  os << '}';
}

}  // namespace

void TraceLog::write_chrome_trace(std::ostream& os) const {
  std::vector<TraceEvent> sorted = events();
  // Start-time order with longer (enclosing) spans first on ties: makes
  // per-thread timestamps monotonic in the file and nesting unambiguous.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.dur_ns > b.dur_ns;
                   });
  const auto precision = os.precision(3);
  const auto flags = os.setf(std::ios::fixed, std::ios::floatfield);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    os << "  ";
    write_event(os, sorted[i]);
    os << (i + 1 < sorted.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  os.precision(precision);
  os.flags(flags);
}

void TraceLog::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  write_chrome_trace(out);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---- Schema validation ------------------------------------------------------
// A deliberately tiny JSON reader: just enough structure to check the traces
// this module writes (and to reject hand-broken ones in tests). Not a
// general-purpose parser; numbers are doubles, no \uXXXX decoding beyond
// skipping.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole input; on failure `error()` is non-empty.
  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (error_.empty() && pos_ != text_.size()) fail("trailing content");
    return v;
  }

  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string_value();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    consume('{');
    if (consume('}')) return v;
    do {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return v;
      }
      std::string key = parse_raw_string();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return v;
      }
      v.object.emplace_back(std::move(key), parse_value());
      if (!error_.empty()) return v;
    } while (consume(','));
    if (!consume('}')) fail("expected '}' or ','");
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    consume('[');
    if (consume(']')) return v;
    do {
      v.array.push_back(parse_value());
      if (!error_.empty()) return v;
    } while (consume(','));
    if (!consume(']')) fail("expected ']' or ','");
    return v;
  }

  std::string parse_raw_string() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        switch (text_[pos_]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': pos_ += std::min<std::size_t>(4, text_.size() - pos_ - 1);
                    out += '?';
                    break;
          default: out += text_[pos_];
        }
      } else {
        out += text_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.string = parse_raw_string();
    return v;
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("malformed literal");
    }
    return v;
  }

  JsonValue parse_null() {
    JsonValue v;
    if (text_.compare(pos_, 4, "null") == 0)
      pos_ += 4;
    else
      fail("malformed literal");
    return v;
  }

  JsonValue parse_number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) {
      fail("malformed value");
      return v;
    }
    const std::optional<double> number = ::gcaching::parse_number<double>(
        std::string_view(text_).substr(start, pos_ - start));
    if (!number) {
      fail("malformed number");
      return v;
    }
    v.number = *number;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool get_number(const JsonValue& event, const char* key, double& out) {
  const JsonValue* v = event.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
  out = v->number;
  return true;
}

}  // namespace

std::string validate_chrome_trace(const std::string& json) {
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  if (!parser.error().empty()) return "not valid JSON: " + parser.error();
  if (root.kind != JsonValue::Kind::kObject)
    return "top-level value is not an object";
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray)
    return "missing \"traceEvents\" array";

  struct ThreadState {
    double last_ts = -1.0;
    std::vector<double> open_ends;           // X nesting (end timestamps)
    std::vector<std::string> open_begins;    // B/E matching (names)
  };
  std::map<double, ThreadState> threads;

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "event " + std::to_string(i);
    if (e.kind != JsonValue::Kind::kObject) return at + ": not an object";
    const JsonValue* name = e.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString)
      return at + ": missing \"name\"";
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->string.size() != 1)
      return at + ": missing one-character \"ph\"";
    double ts = 0.0, pid = 0.0, tid = 0.0;
    if (!get_number(e, "ts", ts) || ts < 0.0)
      return at + ": missing non-negative \"ts\"";
    if (!get_number(e, "pid", pid)) return at + ": missing \"pid\"";
    if (!get_number(e, "tid", tid)) return at + ": missing \"tid\"";
    const char kind = ph->string[0];
    if (kind == 'M') continue;  // metadata: no ordering constraints
    if (kind != 'X' && kind != 'B' && kind != 'E')
      return at + ": unsupported ph \"" + ph->string + '"';

    ThreadState& t = threads[tid];
    if (ts < t.last_ts)
      return at + ": ts is not monotonic within tid " + std::to_string(tid);
    t.last_ts = ts;
    if (kind == 'X') {
      double dur = 0.0;
      if (!get_number(e, "dur", dur) || dur < 0.0)
        return at + ": X event missing non-negative \"dur\"";
      const double end = ts + dur;
      // Sub-nanosecond slack (timestamps are microseconds): endpoint sums of
      // parsed doubles may disagree by an ulp even for perfectly nested
      // spans; a real overlap is at least a full nanosecond.
      constexpr double kSlackUs = 1e-3;
      while (!t.open_ends.empty() && t.open_ends.back() <= ts + kSlackUs)
        t.open_ends.pop_back();
      if (!t.open_ends.empty() && end > t.open_ends.back() + kSlackUs)
        return at + ": X event overlaps an enclosing span without nesting";
      t.open_ends.push_back(end);
    } else if (kind == 'B') {
      t.open_begins.push_back(name->string);
    } else {  // 'E'
      if (t.open_begins.empty())
        return at + ": E event without a matching B";
      t.open_begins.pop_back();
    }
  }
  for (const auto& [tid, t] : threads)
    if (!t.open_begins.empty())
      return "unclosed B event on tid " + std::to_string(tid);
  return "";
}

}  // namespace gcaching::obs
