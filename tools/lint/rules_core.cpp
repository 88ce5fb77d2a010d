#include <filesystem>

#include "rules.hpp"

namespace predis::lint {
namespace {
namespace fs = std::filesystem;

bool basename_starts_with_any(const std::string& path,
                              const std::vector<std::string>& prefixes) {
  const std::string base = fs::path(path).filename().string();
  for (const std::string& p : prefixes) {
    if (base.rfind(p, 0) == 0) return true;
  }
  return false;
}

// --- D1 helpers -----------------------------------------------------------

bool is_protocol_sink(const std::string& ident) {
  static const std::set<std::string> kExact = {
      "send",  "broadcast", "multicast",  "zone_multicast", "Sha256",
      "sha256", "hash",     "hash_pair",  "digest",         "Writer",
      "Merkle", "MerkleTree", "prove",    "prove_into",     "update"};
  if (kExact.count(ident) != 0) return true;
  return ident.rfind("record", 0) == 0 || ident.rfind("fold", 0) == 0 ||
         ident.rfind("serialize", 0) == 0 || ident.rfind("encode", 0) == 0 ||
         ident.rfind("emit", 0) == 0;
}

}  // namespace

void emit(Context& ctx, std::size_t line, const std::string& rule,
          std::string message) {
  ctx.out.push_back({ctx.file.path, line, rule, std::move(message)});
}

// --- D1: unordered iteration in protocol-visible code ---------------------

void run_d1(Context& ctx) {
  const std::vector<Token>& t = ctx.tokens;
  for (const Function& fn : ctx.functions) {
    // Does this function feed protocol-visible bytes at all?
    std::string sink;
    for (std::size_t i = fn.body_open; i <= fn.body_close; ++i) {
      if (t[i].ident && is_protocol_sink(t[i].text)) {
        sink = t[i].text;
        break;
      }
    }
    if (sink.empty()) continue;
    for (std::size_t i = fn.body_open; i < fn.body_close; ++i) {
      if (t[i].text != "for" || t[i + 1].text != "(") continue;
      const std::size_t close = match_forward(t, i + 1);
      if (close >= t.size()) continue;
      std::string iterated;
      // Range-for: single ":" at paren depth 1.
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (t[j].text == ":" && depth == 1 && j + 1 < close && t[j + 1].ident) {
          const std::string chain = chain_starting_at(t, j + 1, close);
          const auto last = chain.find_last_of(">.:");
          const std::string leaf =
              last == std::string::npos ? chain : chain.substr(last + 1);
          if (ctx.symbols.unordered_vars.count(leaf) != 0) iterated = chain;
          break;
        }
      }
      // Iterator loop: `for (auto it = container.begin(); ...`.
      if (iterated.empty()) {
        for (std::size_t j = i + 2; j + 2 < close; ++j) {
          if (t[j].ident && ctx.symbols.unordered_vars.count(t[j].text) != 0 &&
              (t[j + 1].text == "." || t[j + 1].text == "->") &&
              t[j + 2].text == "begin") {
            iterated = t[j].text;
            break;
          }
          if (t[j].text == ";") break;  // only the init clause
        }
      }
      if (iterated.empty()) continue;
      emit(ctx, t[i].line, "D1",
           "iteration over unordered container '" + iterated +
               "' in protocol-visible code (function '" + fn.name +
               "' also reaches '" + sink +
               "'): iteration order leaks into emitted bytes; use std::map "
               "or sort before emitting");
    }
  }
}

// --- D2: wall clock / global RNG outside the seeded Rng --------------------

void run_d2(Context& ctx) {
  if (basename_starts_with_any(ctx.file.path, {"rng."})) return;

  static const std::set<std::string> kBanned = {
      "srand",        "random_device", "mt19937",
      "mt19937_64",   "default_random_engine", "minstd_rand",
      "minstd_rand0", "system_clock",  "steady_clock",
      "high_resolution_clock", "gettimeofday", "clock_gettime",
      "timespec_get", "localtime",     "gmtime", "mktime"};
  const std::vector<Token>& t = ctx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident) continue;
    if (kBanned.count(t[i].text) != 0) {
      emit(ctx, t[i].line, "D2",
           "'" + t[i].text +
               "' outside the seeded Rng: all time must flow through "
               "Runtime::now() and all randomness through the seeded Rng");
      continue;
    }
    if ((t[i].text == "rand" || t[i].text == "clock" ||
         t[i].text == "time") &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      // `rand()` / `clock()` / `time(nullptr)` — require a call so that
      // variables named `time` in other positions stay legal.
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
      if (t[i].text == "time") {
        const std::string& arg = i + 2 < t.size() ? t[i + 2].text : "";
        if (arg != "nullptr" && arg != "NULL" && arg != "0") continue;
      }
      emit(ctx, t[i].line, "D2",
           "'" + t[i].text +
               "()' outside the seeded Rng: wall-clock time and the C RNG "
               "break seeded replay");
    }
  }
}

// --- D3: nodiscard on Expected / try_* APIs, no discarded results ---------

void collect_and_check_declarations(Context& ctx, MustCheck& must_check,
                                    bool emit_diagnostics) {
  if (!is_header(ctx.file.path)) return;
  const std::vector<Token>& t = ctx.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i + 1].text != "(") continue;
    const std::string& name = t[i].text;
    const bool try_name =
        name.rfind("try_", 0) == 0 && std_try_names().count(name) == 0;
    if (!try_name) continue;
    const auto span = decl_span_before(t, i);
    if (!span) continue;              // expression/call site
    if (span->empty()) continue;      // no return type: a call statement
    if (span_has(*span, "void") && !span_has(*span, "*")) continue;
    if (span_has(*span, "using") || span_has(*span, "typedef")) continue;
    must_check.insert(name);
    if (emit_diagnostics && !span_has(*span, "nodiscard")) {
      emit(ctx, t[i].line, "D3",
           "non-void '" + name +
               "' must be [[nodiscard]]: try_* results carry the only "
               "failure signal");
    }
  }
  // Expected<...>-returning declarations, whatever their name.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "Expected" || t[i + 1].text != "<") continue;
    const std::size_t after = skip_template_args(t, i + 1);
    if (after == i + 1 || after + 1 >= t.size()) continue;
    if (!t[after].ident || t[after + 1].text != "(") continue;
    const auto span = decl_span_before(t, i);
    if (!span) continue;
    must_check.insert(t[after].text);
    // try_* names were already checked (and reported) by the pass above.
    if (t[after].text.rfind("try_", 0) == 0) continue;
    if (emit_diagnostics && !span_has(*span, "nodiscard")) {
      emit(ctx, t[after].line, "D3",
           "'" + t[after].text +
               "' returns Expected<T> and must be [[nodiscard]]");
    }
  }
}

void run_d3_call_sites(Context& ctx) {
  const std::vector<Token>& t = ctx.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i + 1].text != "(") continue;
    if (ctx.must_check.count(t[i].text) == 0) continue;
    const std::size_t close = match_forward(t, i + 1);
    if (close + 1 >= t.size() || t[close + 1].text != ";") continue;
    // Walk back over the object chain to the statement start.
    std::size_t j = i;
    while (j >= 2 && (t[j - 1].text == "." || t[j - 1].text == "->")) {
      if (t[j - 2].text == ")") {  // chained call result: f().try_x()
        int depth = 0;
        std::size_t k = j - 2;
        while (k > 0) {
          if (t[k].text == ")") ++depth;
          if (t[k].text == "(" && --depth == 0) break;
          --k;
        }
        if (k == 0 || !t[k - 1].ident) break;
        j = k - 1;
        continue;
      }
      if (!t[j - 2].ident) break;
      j -= 2;
    }
    if (j == 0) continue;
    const std::string& before = t[j - 1].text;
    if (before == ";" || before == "{" || before == "}") {
      emit(ctx, t[i].line, "D3",
           "result of '" + t[i].text +
               "()' is discarded: the Expected<T>/try_* contract requires "
               "checking the outcome (cast to void to discard on purpose)");
    }
  }
}

// --- D4: sender bounds/ban checks in on_* handlers ------------------------
// Message-carried indices are D9's job now — the taint walker follows
// them through assignments, range-fors and guards. D4 keeps only the
// sender id, which never flows (handlers use it directly).

void run_d4(Context& ctx) {
  const std::vector<Token>& t = ctx.tokens;
  for (const Function& fn : ctx.functions) {
    if (fn.name.rfind("on_", 0) != 0) continue;
    const HandlerSig sig = handler_signature(t, fn);
    const std::string& sender = sig.sender;
    if (sig.msg_param.empty()) continue;  // not a network message handler
    if (sender.empty()) continue;

    // An `if (...)`/assert mentioning the sender marks it checked from
    // that point on.
    bool checked = false;
    for (std::size_t i = fn.body_open + 1; i < fn.body_close; ++i) {
      const std::string& x = t[i].text;
      // Guards: if (... from ...) or assert(... from ...).
      if ((x == "if" || x == "assert") && i + 1 < fn.body_close &&
          t[i + 1].text == "(") {
        const std::size_t close = match_forward(t, i + 1);
        for (std::size_t j = i + 2; j < close; ++j) {
          if (t[j].ident && t[j].text == sender) checked = true;
        }
        i = close;
        continue;
      }
      // Subscript of a per-node vector by the raw sender id.
      if (t[i].ident && ctx.symbols.vector_vars.count(x) != 0 &&
          i + 1 < fn.body_close && t[i + 1].text == "[") {
        const std::size_t close = match_forward(t, i + 1);
        for (std::size_t j = i + 2; j < close; ++j) {
          if (!t[j].ident || t[j].text != sender) continue;
          if (!checked) {
            emit(ctx, t[j].line, "D4",
                 "handler '" + fn.name + "' indexes vector '" + x +
                     "' with unchecked sender '" + sender +
                     "': bounds/ban-check the sender id before touching "
                     "per-node state");
            checked = true;  // one report per handler
          }
        }
      }
    }
  }
}

// --- D5: reinterpret_cast / const_cast fenced into approved TUs -----------

void run_d5(Context& ctx) {
  if (basename_starts_with_any(ctx.file.path, {"gf256", "sha256", "bytes"})) {
    return;
  }
  for (const Token& tok : ctx.tokens) {
    if (tok.text == "reinterpret_cast" || tok.text == "const_cast") {
      emit(ctx, tok.line, "D5",
           "'" + tok.text +
               "' outside the approved low-level TUs (gf256*, sha256*, "
               "bytes*): route byte reinterpretation through common/bytes "
               "helpers");
    }
  }
}

}  // namespace predis::lint
