// Minimal JSON emission and parsing for the observability layer.
//
// The writer produces compact single-line JSON (the shape JSON Lines wants);
// the parser is a strict recursive-descent reader used by the serve job
// protocol, tests, and tools. The writer passes UTF-8 through unescaped; the
// parser additionally decodes arbitrary \uXXXX escapes (including surrogate
// pairs) to UTF-8, so records written by other tools round-trip. Nesting is
// capped at 256 levels so hostile input fails a CKP_CHECK instead of
// overflowing the stack. Neither aims to be a general-purpose JSON library —
// no streaming — just enough for run records, metrics snapshots, Chrome
// trace events, and serve job lines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ckp {

// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
std::string json_escape(const std::string& s);

// Formats a double the way JSON expects: shortest round-trippable decimal,
// with non-finite values (which JSON cannot represent) emitted as null.
std::string json_number(double v);

// Incremental writer for one JSON value tree. Container state is tracked on
// a stack so commas and closers are always syntactically correct; misuse
// (e.g. a value where a key is required) fails a CKP_CHECK.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Object member key; must be followed by exactly one value/container.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& s);
  JsonWriter& value(const char* s);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  // Splices a pre-serialized JSON fragment in value position verbatim.
  JsonWriter& raw(const std::string& fragment);

  // The serialized document; only valid once every container is closed.
  const std::string& str() const;

 private:
  void before_value();
  JsonWriter& raw_value(const std::string& token);

  std::string out_;
  // One frame per open container: '{' or '[', plus whether a member/element
  // has already been emitted (for comma placement) and, for objects, whether
  // a key is pending.
  struct Frame {
    char kind;
    bool has_elements = false;
    bool key_pending = false;
  };
  std::vector<Frame> stack_;
  bool done_ = false;
};

// A parsed JSON value (small DOM). Object member order is preserved.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::Null; }
  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& name) const;

  // Checked accessors: CKP_CHECK the type, then return the member. `at`
  // additionally checks presence.
  const JsonValue& at(const std::string& name) const;
  double as_number() const;
  const std::string& as_string() const;
};

// Parses exactly one JSON document (leading/trailing whitespace allowed);
// throws CheckFailure on malformed input or trailing garbage.
JsonValue json_parse(std::string_view text);

}  // namespace ckp
