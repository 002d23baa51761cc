#pragma once
// Minimal JSON value + recursive-descent parser. Just enough for the
// repo's own machine-readable artifacts — trace JSONL lines
// (tests/test_trace.cpp) and the netlist_lint diagnostics rendering
// (tests/test_analysis.cpp) — with no external dependency. Objects preserve
// insertion order; numbers are doubles (exact for integers < 2^53).

#include <string>
#include <utility>
#include <vector>

#include "util/expected.hpp"

namespace autockt::util {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::Object; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }

  double as_number(double fallback = 0.0) const {
    return type_ == Type::Number ? number_ : fallback;
  }
  bool as_bool(bool fallback = false) const {
    return type_ == Type::Bool ? bool_ : fallback;
  }
  const std::string& as_string() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object lookup; null when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : members_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Parse one JSON document (the whole string must be consumed, modulo
  /// trailing whitespace).
  static Expected<JsonValue> parse(const std::string& text);

 private:
  friend class JsonParser;
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                            // Array
  std::vector<std::pair<std::string, JsonValue>> members_;  // Object
};

}  // namespace autockt::util
