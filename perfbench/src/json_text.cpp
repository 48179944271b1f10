#include "json_text.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("json scan: " + what);
}

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r')) {
    ++i;
  }
  return i;
}

/// Index one past the string literal starting at \p i (s[i] == '"').
std::size_t skip_string(std::string_view s, std::size_t i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  bad("unterminated string");
}

/// Index one past the value starting at \p i.
std::size_t skip_value(std::string_view s, std::size_t i) {
  i = skip_ws(s, i);
  if (i >= s.size()) bad("missing value");
  if (s[i] == '"') return skip_string(s, i);
  if (s[i] == '{' || s[i] == '[') {
    int depth = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        i = skip_string(s, i);
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        if (--depth == 0) return i + 1;
      }
      ++i;
    }
    bad("unbalanced brackets");
  }
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         s[i] != ' ' && s[i] != '\n') {
    ++i;
  }
  return i;
}

}  // namespace

std::string raw_member(std::string_view doc, std::string_view key) {
  std::size_t i = skip_ws(doc, 0);
  if (i >= doc.size() || doc[i] != '{') bad("not an object");
  i = skip_ws(doc, i + 1);
  while (i < doc.size() && doc[i] != '}') {
    if (doc[i] != '"') bad("expected a member name");
    const std::size_t name_end = skip_string(doc, i);
    const std::string_view name = doc.substr(i + 1, name_end - i - 2);
    i = skip_ws(doc, name_end);
    if (i >= doc.size() || doc[i] != ':') bad("expected ':'");
    const std::size_t value_begin = skip_ws(doc, i + 1);
    const std::size_t value_end = skip_value(doc, value_begin);
    if (name == key) {
      return std::string(doc.substr(value_begin, value_end - value_begin));
    }
    i = skip_ws(doc, value_end);
    if (i < doc.size() && doc[i] == ',') i = skip_ws(doc, i + 1);
  }
  bad("no member '" + std::string(key) + "'");
}

std::vector<std::string> split_array(std::string_view doc) {
  std::size_t i = skip_ws(doc, 0);
  if (i >= doc.size() || doc[i] != '[') bad("not an array");
  std::vector<std::string> out;
  i = skip_ws(doc, i + 1);
  while (i < doc.size() && doc[i] != ']') {
    const std::size_t end = skip_value(doc, i);
    out.emplace_back(doc.substr(i, end - i));
    i = skip_ws(doc, end);
    if (i < doc.size() && doc[i] == ',') i = skip_ws(doc, i + 1);
  }
  if (i >= doc.size()) bad("unterminated array");
  return out;
}

std::string zero_wall_fields(std::string_view doc) {
  std::string out;
  out.reserve(doc.size());
  std::size_t i = 0;
  while (i < doc.size()) {
    if (doc[i] != '"') {
      out += doc[i++];
      continue;
    }
    const std::size_t end = skip_string(doc, i);
    const std::string_view lit = doc.substr(i, end - i);
    out += lit;
    i = end;
    if (lit != "\"wall_s\"" && lit != "\"search_wall_s\"") continue;
    const std::size_t colon = skip_ws(doc, i);
    if (colon >= doc.size() || doc[colon] != ':') continue;
    out += ':';
    i = skip_value(doc, colon + 1);
    out += '0';
  }
  return out;
}

bool scale_first_number(std::string& doc, std::string_view key,
                        double factor) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = doc.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = skip_value(doc, begin);
  const double v = std::strtod(doc.c_str() + begin, nullptr);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v * factor);
  doc.replace(begin, end - begin, buf);
  return true;
}

}  // namespace perfbench
