// Flat JSON object writer for the runner's one-line results.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, uint64_t v) { return raw(key, std::to_string(v)); }
  JsonObject& num(const std::string& key, int64_t v) { return raw(key, std::to_string(v)); }
  JsonObject& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  /// `json` must already be a complete JSON value.
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out.push_back(c);
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace perfbench
