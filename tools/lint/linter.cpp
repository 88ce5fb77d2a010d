// predis-lint driver: four phases over the file set.
//
//   1. (parallel) load + tokenize + segment each file
//   2. (serial)   merge pair-level symbol tables, collect must-check
//                 names and header declaration diagnostics
//   3. (parallel) run every rule per file into per-file result slots
//   4. (serial)   fold lock-order edges into the global cycle check,
//                 apply suppression pragmas, compute stale ones, sort
//
// Parallelism never changes the output: results land in indexed slots
// and every cross-file structure is folded in path order.
#include "linter.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "rules.hpp"

namespace predis::lint {
namespace {

namespace fs = std::filesystem;

std::string pair_key(const std::string& path) {
  const fs::path p(path);
  return (p.parent_path() / p.stem()).string();
}

bool allowed(const SourceFile& file, const Diagnostic& d) {
  if (file.file_allows.count(d.rule) != 0) return true;
  for (std::size_t line : {d.line, d.line == 0 ? d.line : d.line - 1}) {
    const auto it = file.line_allows.find(line);
    if (it != file.line_allows.end() && it->second.count(d.rule) != 0) {
      return true;
    }
  }
  return false;
}

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  unsigned workers = jobs != 0 ? jobs
                               : std::max(1u, std::min(
                                     8u, std::thread::hardware_concurrency()));
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, n == 0 ? 1 : n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::string error;
  std::mutex error_m;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        if (failed.load()) return;
        try {
          fn(i);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> g(error_m);
          if (!failed.exchange(true)) error = e.what();
          return;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (failed.load()) throw std::runtime_error(error);
}

struct FileUnit {
  SourceFile src;
  std::vector<Token> tokens;
  std::vector<Function> functions;
  std::vector<Diagnostic> diags;  ///< Raw (pre-allowlist) diagnostics.
  std::vector<LockEdge> edges;
};

/// Deterministic lock-order cycle check: for every edge a->b, search
/// for a path b ~> a over the (sorted, deduplicated) edge set; each
/// distinct cycle is reported once, anchored at its lexicographically
/// first edge.
std::vector<Diagnostic> check_lock_order(std::vector<LockEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const LockEdge& a, const LockEdge& b) {
              return std::tie(a.from, a.to, a.file, a.line) <
                     std::tie(b.from, b.to, b.file, b.line);
            });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const LockEdge& a, const LockEdge& b) {
                            return a.from == b.from && a.to == b.to;
                          }),
              edges.end());
  std::map<std::string, std::vector<std::string>> adj;
  for (const LockEdge& e : edges) adj[e.from].push_back(e.to);

  std::vector<Diagnostic> out;
  std::set<std::string> seen_cycles;
  for (const LockEdge& e : edges) {
    // BFS from e.to back to e.from.
    std::map<std::string, std::string> parent;
    std::vector<std::string> queue{e.to};
    parent[e.to] = "";
    bool found = e.to == e.from;
    for (std::size_t qi = 0; qi < queue.size() && !found; ++qi) {
      const auto it = adj.find(queue[qi]);
      if (it == adj.end()) continue;
      for (const std::string& nxt : it->second) {
        if (parent.count(nxt) != 0) continue;
        parent[nxt] = queue[qi];
        if (nxt == e.from) {
          found = true;
          break;
        }
        queue.push_back(nxt);
      }
    }
    if (!found) continue;
    // Reconstruct the cycle e.from -> e.to ~> e.from.
    std::vector<std::string> path{e.from};
    for (std::string n = e.from; !n.empty() && n != e.to;) {
      n = parent.count(n) != 0 ? parent[n] : std::string();
      if (!n.empty()) path.push_back(n);
    }
    path.push_back(e.from);
    std::reverse(path.begin() + 1, path.end() - 1);
    std::vector<std::string> key_nodes(path.begin(), path.end() - 1);
    std::sort(key_nodes.begin(), key_nodes.end());
    std::string key;
    for (const std::string& n : key_nodes) key += n + "|";
    if (!seen_cycles.insert(key).second) continue;
    std::string chain = path[0];
    for (std::size_t i = 1; i < path.size(); ++i) chain += " -> " + path[i];
    out.push_back({e.file, e.line, "D7",
                   "lock-order cycle: " + chain +
                       ": nested acquisitions must follow one global "
                       "order or this can deadlock"});
  }
  return out;
}

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "D1", "D2", "D3", "D4", "D5", "D7", "D8", "D9", "S1"};
  return kRules;
}

void append_json_diag(std::ostringstream& os, const Diagnostic& d,
                      bool last) {
  const auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out;
  };
  os << "  {\"file\": \"" << escape(d.file) << "\", \"line\": " << d.line
     << ", \"rule\": \"" << d.rule << "\", \"message\": \""
     << escape(d.message) << "\"}";
  os << (last ? "\n" : ",\n");
}

}  // namespace

std::vector<std::string> collect_sources(const std::vector<std::string>& roots,
                                         const Options& options) {
  static const std::set<std::string> kExts = {".cpp", ".hpp", ".h", ".cc",
                                              ".hh"};
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (fs::is_regular_file(p)) {
      files.push_back(p.string());
      continue;
    }
    if (!fs::is_directory(p)) {
      throw std::runtime_error("predis-lint: no such file or directory: " +
                               root);
    }
    fs::recursive_directory_iterator it(p), end;
    while (it != end) {
      const fs::path& entry = it->path();
      const std::string name = entry.filename().string();
      if (it->is_directory()) {
        const bool skip = name.rfind("build", 0) == 0 || name[0] == '.' ||
                          (!options.include_fixtures &&
                           name == "lint_fixtures");
        if (skip) {
          it.disable_recursion_pending();
          ++it;
          continue;
        }
      } else if (kExts.count(entry.extension().string()) != 0) {
        files.push_back(entry.string());
      }
      ++it;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

Report lint_tree(const std::vector<std::string>& files,
                 const Options& options) {
  const std::size_t n = files.size();
  std::vector<FileUnit> units(n);

  // Phase 1 (parallel): load, tokenize, segment.
  parallel_for(n, options.jobs, [&](std::size_t i) {
    units[i].src = load_source(files[i]);
    units[i].tokens = tokenize(units[i].src);
    units[i].functions = segment_functions(units[i].tokens);
  });

  // Phase 2 (serial): pair symbols, must-check names, header decls.
  std::map<std::string, Symbols> pair_symbols;
  for (std::size_t i = 0; i < n; ++i) {
    collect_symbols(units[i].tokens, units[i].src.path,
                    pair_symbols[pair_key(units[i].src.path)]);
  }
  MustCheck must_check;
  for (std::size_t i = 0; i < n; ++i) {
    const Symbols& sym = pair_symbols[pair_key(units[i].src.path)];
    Context ctx{units[i].src,   units[i].tokens, units[i].functions,
                sym,            must_check,      pair_key(units[i].src.path),
                units[i].diags, units[i].edges};
    collect_and_check_declarations(ctx, must_check, /*emit_diagnostics=*/true);
  }

  // Phase 3 (parallel): per-file rules.
  parallel_for(n, options.jobs, [&](std::size_t i) {
    const Symbols& sym = pair_symbols.at(pair_key(units[i].src.path));
    Context ctx{units[i].src,   units[i].tokens, units[i].functions,
                sym,            must_check,      pair_key(units[i].src.path),
                units[i].diags, units[i].edges};
    run_d1(ctx);
    run_d2(ctx);
    run_d3_call_sites(ctx);
    run_d4(ctx);
    run_d5(ctx);
    run_d7(ctx);
    run_d8(ctx);
    run_d9(ctx);
  });

  // Phase 4 (serial): lock-order cycles, suppression filter, stale
  // suppression accounting, ordering.
  std::vector<LockEdge> all_edges;
  for (const FileUnit& u : units) {
    all_edges.insert(all_edges.end(), u.edges.begin(), u.edges.end());
  }
  {
    std::vector<Diagnostic> cycles = check_lock_order(std::move(all_edges));
    // Attach cycle diagnostics to their anchoring file's unit so the
    // allowlist applies uniformly.
    for (Diagnostic& d : cycles) {
      for (FileUnit& u : units) {
        if (u.src.path == d.file) {
          u.diags.push_back(std::move(d));
          break;
        }
      }
    }
  }

  Report report;
  report.files_scanned = n;
  for (FileUnit& u : units) {
    // A pragma is "used" when a raw finding of its rule lands on its
    // line or the line below (line pragmas), or anywhere in the file
    // (allow-file). Computed before filtering, so a suppressed finding
    // still justifies its pragma.
    std::set<std::string> file_rules_hit;
    std::map<std::size_t, std::set<std::string>> line_rules_hit;
    for (const Diagnostic& d : u.diags) {
      file_rules_hit.insert(d.rule);
      line_rules_hit[d.line].insert(d.rule);
    }
    for (const Diagnostic& d : u.diags) {
      if (!allowed(u.src, d)) report.diagnostics.push_back(d);
    }
    for (const Pragma& p : u.src.pragmas) {
      bool used = false;
      if (p.whole_file) {
        used = file_rules_hit.count(p.rule) != 0;
      } else {
        for (std::size_t line : {p.line, p.line + 1}) {
          const auto it = line_rules_hit.find(line);
          if (it != line_rules_hit.end() && it->second.count(p.rule) != 0) {
            used = true;
          }
        }
      }
      if (used) continue;
      report.stale_suppressions.push_back(
          {u.src.path, p.line, "S1",
           std::string(p.whole_file ? "allow-file(" : "allow(") + p.rule +
               ") matches no " + p.rule +
               " finding: the suppression is stale, remove it"});
    }
  }

  const auto order = [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  };
  std::sort(report.diagnostics.begin(), report.diagnostics.end(), order);
  std::sort(report.stale_suppressions.begin(),
            report.stale_suppressions.end(), order);

  for (const std::string& r : known_rules()) report.rule_counts[r] = 0;
  for (const Diagnostic& d : report.diagnostics) {
    ++report.rule_counts[d.rule];
  }
  report.rule_counts["S1"] = report.stale_suppressions.size();
  return report;
}

std::vector<Diagnostic> lint_files(const std::vector<std::string>& files) {
  return lint_tree(files, Options{}).diagnostics;
}

std::string to_json(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    append_json_diag(os, diagnostics[i], i + 1 == diagnostics.size());
  }
  os << "]\n";
  return os.str();
}

std::string to_json(const Report& report) {
  std::ostringstream os;
  os << "{\n";
  os << "\"schema\": \"predis-lint/2\",\n";
  os << "\"files\": " << report.files_scanned << ",\n";
  os << "\"rule_counts\": {";
  bool first = true;
  for (const auto& [rule, count] : report.rule_counts) {
    os << (first ? "" : ", ") << "\"" << rule << "\": " << count;
    first = false;
  }
  os << "},\n";
  os << "\"findings\": [\n";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    append_json_diag(os, report.diagnostics[i],
                     i + 1 == report.diagnostics.size());
  }
  os << "],\n";
  os << "\"stale_suppressions\": [\n";
  for (std::size_t i = 0; i < report.stale_suppressions.size(); ++i) {
    append_json_diag(os, report.stale_suppressions[i],
                     i + 1 == report.stale_suppressions.size());
  }
  os << "]\n";
  os << "}\n";
  return os.str();
}

const char* rule_catalogue() {
  return
      "D1  no unordered_map/unordered_set iteration in protocol-visible\n"
      "    code (send/hash/digest/fold/serialize reachability)\n"
      "D2  no wall clock, std::rand or global RNG outside the seeded\n"
      "    rng implementation\n"
      "D3  Expected<T>-returning and non-void try_* APIs are\n"
      "    [[nodiscard]] and their results are never discarded\n"
      "D4  on_* message handlers bounds/ban-check the sender and\n"
      "    message-carried indices before subscripting per-node vectors\n"
      "D5  reinterpret_cast/const_cast only in gf256*, sha256*, bytes*\n"
      "D7  fields annotated PREDIS_GUARDED_BY(mu) are only accessed\n"
      "    with `mu` held (lock_guard/scoped_lock/unique_lock/manual\n"
      "    lock tracking), and nested acquisitions keep one global\n"
      "    acyclic lock order\n"
      "D8  every Runtime::schedule()/after() TimerHandle is stored and\n"
      "    cancelled on teardown/restart, or explicitly discarded with\n"
      "    PREDIS_FIRE_AND_FORGET (self-guarded tick chains)\n"
      "D9  message-derived values (including PREDIS_MSG_DERIVED member\n"
      "    reads) stay tainted through assignments/aliases/loops until\n"
      "    a kMax* clamp, modulo or dominating bounds check; tainted\n"
      "    values must not index containers, size allocations, bound\n"
      "    relational loops, or be stored into unannotated members\n"
      "S1  every suppression pragma must still match a finding\n"
      "    (stale suppressions are warnings, errors under --strict)\n"
      "\n"
      "Suppressions: an allow(RULE) comment pragma covers its own line\n"
      "and the next; allow-file(RULE) covers the whole file. Syntax and\n"
      "hygiene policy: docs/static_analysis.md.\n";
}

}  // namespace predis::lint
