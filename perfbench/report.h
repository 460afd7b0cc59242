// Named metrics and a minimal JSON writer for the benchmark's output.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Builds one JSON object, keys in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.10g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.Dump());
  }
  JsonObject& Null(const std::string& key) { return Raw(key, "null"); }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  /// Appends every field of `other`.
  JsonObject& Merge(const JsonObject& other) {
    fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
    return *this;
  }

  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); i++) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// {"<name>": {"value": v, "unit": u}, ...}
inline JsonObject MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    out.Obj(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit));
  }
  return out;
}

}  // namespace perfbench
