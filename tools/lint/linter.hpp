// predis-lint: project-specific determinism & protocol-safety checks.
//
// The repo's correctness story leans on two runtime mechanisms — the
// swarm harness's bit-for-bit seed replay and the protocol hygiene
// rules (tip-list cuts, conflict evidence, Expected<T> codec results).
// This linter pins the preconditions for both down *statically*:
//
//   D1  no iteration over std::unordered_map / std::unordered_set in
//       code that emits messages, hashes, folds metrics or builds
//       Merkle/digest inputs (iteration order leaks into
//       protocol-visible bytes and breaks replay determinism)
//   D2  no wall clock / std::rand / global RNG outside the seeded rng
//       implementation (all time must flow through Runtime::now() and
//       all randomness through Rng)
//   D3  every Expected<T>-returning and non-void try_* API is declared
//       [[nodiscard]], and no call site silently discards the result
//   D4  message handlers (on_* methods taking a sender id and a *Msg
//       parameter) bounds/ban-check the sender and message-carried
//       indices before using them to subscript per-node vectors
//   D5  reinterpret_cast / const_cast only in the approved low-level
//       TUs (gf256*, sha256*, bytes*)
//   D7  fields annotated PREDIS_GUARDED_BY(mu) are only touched while
//       `mu` is held, and the global lock-acquisition order is acyclic
//   D8  every Runtime::schedule()/after() TimerHandle is stored and
//       cancelled on teardown/restart, or explicitly discarded with
//       PREDIS_FIRE_AND_FORGET
//   D9  taint from message fields (and PREDIS_MSG_DERIVED members)
//       propagates through assignments/aliases/loops until a kMax*
//       clamp, modulo or dominating bounds check sanitizes it; tainted
//       values must not index containers, size allocations, bound
//       relational loops, or be stored into unannotated members
//   S1  suppression pragmas that no longer match any finding are
//       reported stale (warnings; errors under --strict)
//
// The analysis core lives in source.hpp (tokens), parser.hpp
// (declarations, functions, statement trees) and dataflow.hpp (lock-set
// and taint walkers); the rules sit on top in rules_core.cpp /
// rules_flow.cpp. It is a heuristic analyzer, not a compiler plugin —
// false positives are silenced with the allow pragmas documented in
// docs/static_analysis.md (an allow covers its own line and the next;
// allow-file covers the whole file; S1 keeps both honest).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace predis::lint {

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;  ///< "D1".."D9", "S1".
  std::string message;
};

struct Options {
  /// Scan directories named lint_fixtures too (self-test only — the
  /// fixtures contain intentional violations).
  bool include_fixtures = false;
  /// Treat stale suppressions (S1) as errors.
  bool strict = false;
  /// Worker threads for the per-file phases; 0 = pick automatically.
  /// Output is deterministic and path-ordered regardless.
  unsigned jobs = 0;
};

/// Expand files and directories into the sorted .hpp/.cpp source list.
/// Directories named build*, .git and (by default) lint_fixtures are
/// skipped.
std::vector<std::string> collect_sources(const std::vector<std::string>& roots,
                                         const Options& options);

/// Full result of a tree scan.
struct Report {
  /// Rule findings, sorted by (file, line, rule), allowlist applied.
  std::vector<Diagnostic> diagnostics;
  /// Stale suppressions (rule "S1"), same ordering. Advisory unless
  /// Options::strict.
  std::vector<Diagnostic> stale_suppressions;
  /// Finding count per rule family (S1 included), zero entries present
  /// for every known rule so the JSON schema is stable.
  std::map<std::string, std::size_t> rule_counts;
  std::size_t files_scanned = 0;
};

/// Run every rule over the given source files.
Report lint_tree(const std::vector<std::string>& files,
                 const Options& options);

/// Back-compat wrapper: diagnostics only, default options.
std::vector<Diagnostic> lint_files(const std::vector<std::string>& files);

/// Render diagnostics as a JSON array (stable field order, one object
/// per diagnostic).
std::string to_json(const std::vector<Diagnostic>& diagnostics);

/// Render a full report as the versioned "predis-lint/2" JSON object.
std::string to_json(const Report& report);

/// Human-readable rule catalogue for --list-rules.
const char* rule_catalogue();

}  // namespace predis::lint
