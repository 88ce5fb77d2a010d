#include "source.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace predis::lint {
namespace {

void harvest_pragma(const std::string& comment, std::size_t line,
                    SourceFile& out) {
  static const std::string kTag = "predis-lint:";
  const auto tag = comment.find(kTag);
  if (tag == std::string::npos) return;
  std::string rest = comment.substr(tag + kTag.size());
  const bool whole_file = rest.find("allow-file(") != std::string::npos;
  const auto open = rest.find('(');
  if (open == std::string::npos) return;
  const auto close = rest.find(')', open);
  if (close == std::string::npos) return;
  std::string rules = rest.substr(open + 1, close - open - 1);
  std::string token;
  std::istringstream split(rules);
  while (std::getline(split, token, ',')) {
    const auto b = token.find_first_not_of(" \t");
    const auto e = token.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    token = token.substr(b, e - b + 1);
    if (whole_file) {
      out.file_allows.insert(token);
    } else {
      out.line_allows[line].insert(token);
    }
    out.pragmas.push_back({line, token, whole_file});
  }
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return ident_start(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

SourceFile load_source(const std::string& path) {
  SourceFile out;
  out.path = path;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("predis-lint: cannot open " + path);
  std::string line;
  while (std::getline(in, line)) out.raw.push_back(line);

  bool in_block_comment = false;
  std::string raw_end;  // non-empty while inside a raw string literal
  for (std::size_t li = 0; li < out.raw.size(); ++li) {
    const std::string& src = out.raw[li];
    std::string code(src.size(), ' ');
    std::size_t i = 0;
    while (i < src.size()) {
      if (!raw_end.empty()) {
        const auto end = src.find(raw_end, i);
        if (end == std::string::npos) {
          i = src.size();
        } else {
          i = end + raw_end.size();
          raw_end.clear();
        }
        continue;
      }
      if (in_block_comment) {
        const auto end = src.find("*/", i);
        const std::size_t stop = end == std::string::npos ? src.size() : end;
        harvest_pragma(src.substr(i, stop - i), li + 1, out);
        if (end == std::string::npos) {
          i = src.size();
        } else {
          in_block_comment = false;
          i = end + 2;
        }
        continue;
      }
      const char c = src[i];
      if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
        harvest_pragma(src.substr(i + 2), li + 1, out);
        break;  // rest of line is comment
      }
      if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      // Raw string literal: blank everything (possibly across lines)
      // up to the matching )delim" — embedded code in test snippets
      // must not reach the token stream.
      if (c == '"' && i > 0 && src[i - 1] == 'R') {
        const auto open = src.find('(', i + 1);
        if (open != std::string::npos) {
          raw_end.assign(1, ')');
          raw_end.append(src, i + 1, open - i - 1);
          raw_end.push_back('"');
          i = open + 1;
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        code[i] = quote;
        ++i;
        while (i < src.size()) {
          if (src[i] == '\\') {
            i += 2;
            continue;
          }
          if (src[i] == quote) {
            code[i] = quote;
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      code[i] = c;
      ++i;
    }
    out.code.push_back(code);
  }
  return out;
}

std::vector<Token> tokenize(const SourceFile& file) {
  std::vector<Token> tokens;
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& s = file.code[li];
    std::size_t i = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (ident_start(c)) {
        std::size_t j = i + 1;
        while (j < s.size() && ident_char(s[j])) ++j;
        tokens.push_back({s.substr(i, j - i), li + 1, true});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i + 1;
        while (j < s.size() &&
               (ident_char(s[j]) || s[j] == '.' || s[j] == '\'')) {
          ++j;
        }
        tokens.push_back({s.substr(i, j - i), li + 1, false});
        i = j;
        continue;
      }
      // Two-character operators the rules care about.
      if (i + 1 < s.size()) {
        const std::string two = s.substr(i, 2);
        if (two == "::" || two == "->" || two == "&&" || two == "||" ||
            two == "==" || two == "!=" || two == ">=" || two == "<=") {
          tokens.push_back({two, li + 1, false});
          i += 2;
          continue;
        }
      }
      tokens.push_back({std::string(1, c), li + 1, false});
      ++i;
    }
  }
  return tokens;
}

std::size_t match_forward(const std::vector<Token>& t, std::size_t open) {
  const std::string& o = t[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

std::size_t match_backward(const std::vector<Token>& t, std::size_t close) {
  const std::string& c = t[close].text;
  const std::string o = c == ")" ? "(" : c == "]" ? "[" : "{";
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].text == c) ++depth;
    if (t[i].text == o && --depth == 0) return i;
  }
  return t.size();
}

std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
  if (i >= t.size() || t[i].text != "<") return i;
  int depth = 0;
  std::size_t j = i;
  // Bound the scan: a genuine template argument list in this codebase
  // never spans more than a few lines.
  const std::size_t limit = std::min(t.size(), i + 256);
  while (j < limit) {
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">" && --depth == 0) return j + 1;
    if (t[j].text == ";") return i;  // statement ended: was a comparison
    ++j;
  }
  return i;
}

std::string chain_starting_at(const std::vector<Token>& t, std::size_t i,
                              std::size_t limit) {
  std::string chain = t[i].text;
  std::size_t j = i;
  while (j + 2 < limit &&
         (t[j + 1].text == "." || t[j + 1].text == "->" ||
          t[j + 1].text == "::") &&
         t[j + 2].ident) {
    chain += t[j + 1].text + t[j + 2].text;
    j += 2;
  }
  return chain;
}

std::size_t chain_end_index(const std::vector<Token>& t, std::size_t i,
                            std::size_t limit) {
  std::size_t j = i;
  while (j + 2 < limit &&
         (t[j + 1].text == "." || t[j + 1].text == "->" ||
          t[j + 1].text == "::") &&
         t[j + 2].ident) {
    j += 2;
  }
  return j + 1;
}

ChainBack chain_ending_at(const std::vector<Token>& t, std::size_t i) {
  ChainBack out;
  out.root = t[i].text;
  std::vector<std::string> parts;
  std::size_t j = i;
  while (j >= 2 &&
         (t[j - 1].text == "." || t[j - 1].text == "->" ||
          t[j - 1].text == "::")) {
    if (t[j - 2].ident) {
      parts.push_back(t[j - 2].text);
      out.root = t[j - 2].text;
      j -= 2;
      continue;
    }
    if (t[j - 2].text == ")" || t[j - 2].text == "]") {
      // Prefix routes through a call or subscript: keep walking past
      // the balanced group so the root stays meaningful, but mark the
      // prefix complex (textual comparison is no longer exact).
      out.complex = true;
      const std::size_t open = match_backward(t, j - 2);
      if (open >= t.size() || open == 0 || !t[open - 1].ident) break;
      parts.push_back(t[open - 1].text);
      out.root = t[open - 1].text;
      j = open - 1;
      continue;
    }
    break;
  }
  for (std::size_t k = parts.size(); k-- > 0;) {
    if (!out.prefix.empty()) out.prefix += ".";
    out.prefix += parts[k];
  }
  return out;
}

}  // namespace predis::lint
