// predis-lint analysis core, stage 4: the rules.
//
// Each rule consumes the per-file token stream, the pre-segmented
// function list and the pair-level symbol table, and appends
// diagnostics to the per-file output vector (so files can be analyzed
// in parallel and merged deterministically). D7 additionally emits
// lock-order edges which the driver folds into a global graph.
#pragma once

#include "dataflow.hpp"
#include "linter.hpp"

namespace predis::lint {

struct Context {
  const SourceFile& file;
  const std::vector<Token>& tokens;
  const std::vector<Function>& functions;
  const Symbols& symbols;
  const MustCheck& must_check;
  std::string pair;  ///< Pair key (path minus extension).
  std::vector<Diagnostic>& out;
  std::vector<LockEdge>& edges;
};

void emit(Context& ctx, std::size_t line, const std::string& rule,
          std::string message);

// Core (token-level) rules.
void run_d1(Context& ctx);  ///< No unordered iteration feeding protocol bytes.
void run_d2(Context& ctx);  ///< No ambient clock/RNG outside rng.*.
void run_d3_call_sites(Context& ctx);  ///< No discarded Expected/try_*.
void run_d4(Context& ctx);  ///< Handler sender/index bounds checks.
void run_d5(Context& ctx);  ///< Casts fenced into low-level TUs.

/// Header pass for D3: record must-check names, optionally reporting
/// missing [[nodiscard]].
void collect_and_check_declarations(Context& ctx, MustCheck& must_check,
                                    bool emit_diagnostics);

// Flow (dataflow-backed) rules.
void run_d7(Context& ctx);  ///< Guarded-field lock discipline + order edges.
void run_d8(Context& ctx);  ///< Timer-handle lifecycle.
void run_d9(Context& ctx);  ///< Message-taint dataflow.

}  // namespace predis::lint
