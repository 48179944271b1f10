/// \file registry.cpp
/// Registry-drift rules: the hand-maintained identifier registries —
/// lint rule ids, verifier rule ids, tce-check's own rule ids, CLI exit
/// codes, obs metric names, and `tce-*/N` schema strings — are
/// extracted from the code and cross-checked three ways: present in
/// their docs table, referenced by at least one test, and free of
/// duplicates.  The reverse direction is checked too: a docs table may
/// not list an identifier the code does not define (the stale-row /
/// typo class).

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tce/check/internal.hpp"

namespace tce::check::internal {

namespace {

/// One extracted identifier with its defining site.
struct Item {
  std::string id;
  std::string file;
  int line = 0;
};

/// One markdown table cell (first data row cells only carry ids; the
/// extractor skips header rows, separator rows, and `<placeholder>`
/// cells).
struct Cell {
  std::string text;
  int line = 0;
  std::size_t col = 0;
};

void add(std::vector<Finding>& findings, std::string file, int line,
         std::string rule, std::string message) {
  Finding out;
  out.severity = Severity::kError;
  out.file = std::move(file);
  out.line = line;
  out.rule = std::move(rule);
  out.message = std::move(message);
  findings.push_back(std::move(out));
}

std::string trim(std::string s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  s = s.substr(b, e - b);
  if (s.size() >= 2 && s.front() == '`' && s.back() == '`') {
    s = s.substr(1, s.size() - 2);
  }
  return s;
}

bool separator_row(const std::string& line) {
  bool dash = false;
  for (char c : line) {
    if (c == '-') {
      dash = true;
    } else if (c != '|' && c != ':' && c != ' ' && c != '\t' && c != '\r') {
      return false;
    }
  }
  return dash;
}

/// Extracts every data-row cell from every markdown table in \p text.
/// A table row starts with '|'; the row preceding a separator row is a
/// header and is skipped along with the separator itself.
std::vector<Cell> table_cells(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = (eol == std::string::npos) ? text.size() : eol;
    lines.push_back(text.substr(pos, end - pos));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  std::vector<Cell> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string row = lines[i];
    std::size_t b = row.find_first_not_of(" \t");
    if (b == std::string::npos || row[b] != '|') continue;
    if (separator_row(row)) continue;
    if (i + 1 < lines.size() && separator_row(lines[i + 1])) continue;  // header
    // Split on '|'; the leading '|' yields an empty first piece.
    std::vector<std::string> cells;
    std::size_t start = b + 1;
    while (start <= row.size()) {
      const std::size_t bar = row.find('|', start);
      const std::size_t end = (bar == std::string::npos) ? row.size() : bar;
      cells.push_back(trim(row.substr(start, end - start)));
      if (bar == std::string::npos) break;
      start = bar + 1;
    }
    if (!cells.empty() && cells.back().empty()) cells.pop_back();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].empty()) continue;
      if (cells[c].find('<') != std::string::npos) continue;  // placeholder
      Cell cell;
      cell.text = cells[c];
      cell.line = static_cast<int>(i + 1);
      cell.col = c;
      out.push_back(std::move(cell));
    }
  }
  return out;
}

const std::string* find_text(
    const std::vector<std::pair<std::string, std::string>>& files,
    std::string_view path) {
  for (const auto& [p, text] : files) {
    if (p == path) return &text;
  }
  return nullptr;
}

bool tests_reference(const Tree& tree, std::string_view id) {
  for (const auto& [path, text] : tree.tests) {
    (void)path;
    if (text.find(id) != std::string::npos) return true;
  }
  return false;
}

bool family_match(std::string_view id,
                  const std::vector<std::string_view>& families) {
  const std::size_t dot = id.find('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view head = id.substr(0, dot);
  for (std::string_view f : families) {
    if (f == head) return true;
  }
  return false;
}

/// Dotted string literals from sources under \p dir whose first segment
/// is one of \p families, deduplicated to their first occurrence (files
/// are already sorted, so "first" is deterministic).
std::vector<Item> ids_in_dir(const Tree& tree, std::string_view dir,
                             const std::vector<std::string_view>& families) {
  std::vector<Item> out;
  std::set<std::string> seen;
  for (const SourceFile& f : tree.sources) {
    if (f.path.rfind(dir, 0) != 0) continue;
    for (const auto& [id, line] : dotted_literals(f)) {
      if (!family_match(id, families)) continue;
      if (!seen.insert(id).second) continue;
      out.push_back(Item{id, f.path, line});
    }
  }
  return out;
}

/// Metric names: first-argument string literals of `obs::count(`,
/// `obs::gauge(`, `obs::observe(`, `obs::observe_many(` calls.  Dynamically composed names
/// (`"verify.rule." + id`) are skipped: the literal is not a dotted id
/// and the following token is not ',' or ')'.
std::vector<Item> metric_ids(const Tree& tree) {
  std::vector<Item> out;
  std::set<std::string> seen;
  for (const SourceFile& f : tree.sources) {
    const std::vector<Token>& ts = f.tokens;
    for (std::size_t i = 0; i + 5 < ts.size(); ++i) {
      if (!(ts[i].kind == Tok::kIdent && ts[i].text == "obs")) continue;
      if (!(ts[i + 1].kind == Tok::kPunct && ts[i + 1].text == ":")) continue;
      if (!(ts[i + 2].kind == Tok::kPunct && ts[i + 2].text == ":")) continue;
      const Token& fn = ts[i + 3];
      if (fn.kind != Tok::kIdent ||
          (fn.text != "count" && fn.text != "gauge" && fn.text != "observe" &&
           fn.text != "observe_many")) {
        continue;
      }
      if (!(ts[i + 4].kind == Tok::kPunct && ts[i + 4].text == "(")) continue;
      const Token& name = ts[i + 5];
      if (name.kind != Tok::kString || !is_dotted_id(name.text)) continue;
      if (i + 6 < ts.size() && ts[i + 6].kind == Tok::kPunct &&
          (ts[i + 6].text == "," || ts[i + 6].text == ")")) {
        if (seen.insert(name.text).second) {
          out.push_back(Item{name.text, f.path, name.line});
        }
      }
    }
  }
  return out;
}

/// `tce-<name>/<digits>` schema strings found inside \p text, with the
/// line of each first occurrence.
std::vector<Item> schema_scan(const std::string& text, const std::string& file,
                              std::set<std::string>& seen) {
  std::vector<Item> out;
  int line = 1;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      continue;
    }
    if (text.compare(i, 4, "tce-") != 0) continue;
    std::size_t j = i + 4;
    while (j < text.size() && text[j] >= 'a' && text[j] <= 'z') ++j;
    if (j == i + 4 || j >= text.size() || text[j] != '/') continue;
    std::size_t k = j + 1;
    while (k < text.size() && text[k] >= '0' && text[k] <= '9') ++k;
    if (k == j + 1) continue;
    const std::string id = text.substr(i, k - i);
    if (seen.insert(id).second) out.push_back(Item{id, file, line});
    i = k - 1;
  }
  return out;
}

std::vector<Item> schema_ids_in_sources(const Tree& tree) {
  std::vector<Item> out;
  std::set<std::string> seen;
  for (const SourceFile& f : tree.sources) {
    for (const Token& t : f.tokens) {
      if (t.kind != Tok::kString) continue;
      for (Item& it : schema_scan(t.text, f.path, seen)) {
        it.line = t.line;  // the literal's line, not an offset into it
        out.push_back(std::move(it));
      }
    }
  }
  return out;
}

/// CLI exit codes: parses `enum ExitCode { kExitOk = 0, ... }` from
/// src/tce/cli/cli.hpp at the token level.  Returns (name, value)
/// items; value collisions raise check.registry.duplicate.
std::vector<Item> exit_code_ids(const Tree& tree,
                                std::vector<Finding>& findings) {
  std::vector<Item> out;
  const std::string path = "src/tce/cli/cli.hpp";
  const SourceFile* file = nullptr;
  for (const SourceFile& f : tree.sources) {
    if (f.path == path) file = &f;
  }
  if (file == nullptr) return out;
  const std::vector<Token>& ts = file->tokens;
  std::size_t i = 0;
  for (; i + 1 < ts.size(); ++i) {
    if (ts[i].kind == Tok::kIdent && ts[i].text == "enum" &&
        ((ts[i + 1].kind == Tok::kIdent && ts[i + 1].text == "ExitCode") ||
         (i + 2 < ts.size() && ts[i + 1].kind == Tok::kIdent &&
          ts[i + 1].text == "class" && ts[i + 2].kind == Tok::kIdent &&
          ts[i + 2].text == "ExitCode"))) {
      break;
    }
  }
  while (i < ts.size() && !(ts[i].kind == Tok::kPunct && ts[i].text == "{")) {
    ++i;
  }
  if (i >= ts.size()) return out;
  ++i;
  long next_value = 0;
  std::map<long, std::string> by_value;
  while (i < ts.size() && !(ts[i].kind == Tok::kPunct && ts[i].text == "}")) {
    if (ts[i].kind != Tok::kIdent) {
      ++i;
      continue;
    }
    const std::string name = ts[i].text;
    const int line = ts[i].line;
    long value = next_value;
    if (i + 2 < ts.size() && ts[i + 1].kind == Tok::kPunct &&
        ts[i + 1].text == "=" && ts[i + 2].kind == Tok::kNumber) {
      value = 0;
      for (char c : ts[i + 2].text) {
        if (c >= '0' && c <= '9') value = value * 10 + (c - '0');
      }
      i += 2;
    }
    next_value = value + 1;
    const auto [it, fresh] = by_value.emplace(value, name);
    if (!fresh) {
      add(findings, path, line, "check.registry.duplicate",
          "exit-code enumerators " + it->second + " and " + name +
              " share value " + std::to_string(value));
    }
    out.push_back(Item{name, path, line});
    ++i;
    while (i < ts.size() && !(ts[i].kind == Tok::kPunct && ts[i].text == ",") &&
           !(ts[i].kind == Tok::kPunct && ts[i].text == "}")) {
      ++i;
    }
    if (i < ts.size() && ts[i].kind == Tok::kPunct && ts[i].text == ",") ++i;
  }
  return out;
}

/// One registry cross-check specification.
struct Spec {
  std::string what;                        ///< e.g. "lint rule id".
  std::vector<Item> code;                  ///< Extracted from sources.
  std::vector<std::string> doc_paths;      ///< Id must appear in each.
  std::vector<std::string_view> families;  ///< Filter for doc-side ids.
  bool doc_cells_first_only = true;   ///< Ids live in first table cells.
  bool doc_substring = false;         ///< Presence = substring of doc text
                                      ///< (schema strings in prose).
  bool kexit_cells = false;           ///< Doc ids are `kExit*` cells.
};

bool is_kexit(std::string_view s) {
  if (s.rfind("kExit", 0) != 0 || s.size() <= 5) return false;
  for (char c : s.substr(5)) {
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))) return false;
  }
  return true;
}

void run_spec(const Tree& tree, const Spec& spec,
              std::vector<Finding>& findings, std::uint64_t& rules_checked) {
  std::set<std::string> code_ids;
  for (const Item& it : spec.code) code_ids.insert(it.id);

  for (const std::string& doc_path : spec.doc_paths) {
    const std::string* text = find_text(tree.docs, doc_path);
    if (text == nullptr) {
      add(findings, doc_path, 0, "check.registry.undocumented",
          "registry doc for " + spec.what + " is missing entirely");
      ++rules_checked;
      continue;
    }
    if (spec.doc_substring) {
      for (const Item& it : spec.code) {
        ++rules_checked;
        if (text->find(it.id) == std::string::npos) {
          add(findings, it.file, it.line, "check.registry.undocumented",
              spec.what + " `" + it.id + "` is not described in " + doc_path);
        }
      }
      // Reverse direction: schema-shaped strings in the doc must exist
      // in code.
      std::set<std::string> seen;
      for (const Item& doc_id : schema_scan(*text, doc_path, seen)) {
        ++rules_checked;
        if (code_ids.find(doc_id.id) == code_ids.end()) {
          add(findings, doc_path, doc_id.line, "check.registry.unknown-doc",
              doc_path + " mentions " + spec.what + " `" + doc_id.id +
                  "` which the code does not define");
        }
      }
      continue;
    }
    // Table-based registries.
    std::vector<Cell> doc_ids;
    std::set<std::string> doc_set;
    for (Cell& cell : table_cells(*text)) {
      if (spec.doc_cells_first_only && cell.col != 0) continue;
      const bool match =
          spec.kexit_cells
              ? is_kexit(cell.text)
              : (is_dotted_id(cell.text) &&
                 (spec.families.empty() ||
                  family_match(cell.text, spec.families)));
      if (!match) continue;
      ++rules_checked;
      if (!doc_set.insert(cell.text).second) {
        add(findings, doc_path, cell.line, "check.registry.duplicate",
            doc_path + " lists " + spec.what + " `" + cell.text + "` twice");
      }
      doc_ids.push_back(std::move(cell));
    }
    for (const Item& it : spec.code) {
      ++rules_checked;
      if (doc_set.find(it.id) == doc_set.end()) {
        add(findings, it.file, it.line, "check.registry.undocumented",
            spec.what + " `" + it.id + "` is missing from the " + doc_path +
                " table");
      }
    }
    for (const Cell& cell : doc_ids) {
      ++rules_checked;
      if (code_ids.find(cell.text) == code_ids.end()) {
        add(findings, doc_path, cell.line, "check.registry.unknown-doc",
            doc_path + " lists " + spec.what + " `" + cell.text +
                "` which the code does not define");
      }
    }
  }

  for (const Item& it : spec.code) {
    ++rules_checked;
    if (!tests_reference(tree, it.id)) {
      add(findings, it.file, it.line, "check.registry.untested",
          spec.what + " `" + it.id + "` is referenced by no test under tests/");
    }
  }
}

}  // namespace

void run_registry_rules(const Tree& tree, std::vector<Finding>& findings,
                        std::uint64_t& rules_checked) {
  {
    Spec lint;
    lint.what = "lint rule id";
    lint.families = {"expr", "tree", "model", "mem", "comm"};
    lint.code = ids_in_dir(tree, "src/tce/lint/", lint.families);
    lint.doc_paths = {"docs/LINT.md"};
    run_spec(tree, lint, findings, rules_checked);
  }
  {
    Spec verify;
    verify.what = "verifier rule id";
    verify.families = {"structure", "cannon", "repl", "fusion",
                       "dist",      "reduce", "cost", "mem"};
    verify.code = ids_in_dir(tree, "src/tce/verify/", verify.families);
    verify.doc_paths = {"docs/VERIFIER.md"};
    run_spec(tree, verify, findings, rules_checked);
  }
  {
    // Self-check: tce-check's own rule ids are a registry too.
    Spec self;
    self.what = "check rule id";
    self.families = {"check"};
    self.code = ids_in_dir(tree, "src/tce/check/", self.families);
    self.doc_paths = {"docs/STATIC_ANALYSIS.md", "docs/FORMATS.md"};
    run_spec(tree, self, findings, rules_checked);
  }
  {
    Spec exits;
    exits.what = "exit-code enumerator";
    exits.code = exit_code_ids(tree, findings);
    exits.doc_paths = {"docs/FORMATS.md"};
    exits.doc_cells_first_only = false;
    exits.kexit_cells = true;
    run_spec(tree, exits, findings, rules_checked);
  }
  {
    Spec metrics;
    metrics.what = "metric name";
    metrics.code = metric_ids(tree);
    metrics.doc_paths = {"docs/OBSERVABILITY.md"};
    // Empty family filter: any dotted first cell in OBSERVABILITY.md
    // tables is a claimed metric name, so a stale row whose whole
    // family was renamed away still trips check.registry.unknown-doc.
    run_spec(tree, metrics, findings, rules_checked);
  }
  {
    Spec schemas;
    schemas.what = "schema string";
    schemas.code = schema_ids_in_sources(tree);
    schemas.doc_paths = {"docs/FORMATS.md"};
    schemas.doc_substring = true;
    run_spec(tree, schemas, findings, rules_checked);
  }
}

}  // namespace tce::check::internal
