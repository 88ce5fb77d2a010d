// predis-lint CLI: walk the given files/directories and report every
// determinism / protocol-safety rule violation (see linter.hpp for the
// rule catalogue). Exit code 0 = clean, 1 = findings (or stale
// suppressions under --strict), 2 = usage error.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "../report.hpp"
#include "linter.hpp"

namespace {

constexpr const char* kUsage =
    "usage: predis-lint [options] <path>...\n"
    "\n"
    "Walks .cpp/.hpp files under each path and enforces the project\n"
    "determinism & protocol-safety rules (D1-D9, S1).\n"
    "\n"
    "options:\n"
    "  --json              emit the versioned predis-lint/2 report\n"
    "  --strict            stale suppressions (S1) become errors\n"
    "  --jobs N            worker threads (0 = auto); output is\n"
    "                      deterministic either way\n"
    "  --list-rules        print the rule catalogue and exit\n"
    "  --include-fixtures  also scan lint_fixtures directories\n"
    "                      (self-test; they contain intentional\n"
    "                      violations)\n"
    "  -h, --help          this text\n";

}  // namespace

int main(int argc, char** argv) {
  const predis::tools::Args args = predis::tools::parse_args(
      argc, argv, 1,
      {"json", "strict", "jobs=", "list-rules", "include-fixtures"}, kUsage,
      /*takes_paths=*/true);
  if (args.flag("list-rules")) {
    std::fputs(predis::lint::rule_catalogue(), stdout);
    return 0;
  }
  const bool json = args.flag("json");
  predis::lint::Options options;
  options.strict = args.flag("strict");
  options.jobs = static_cast<unsigned>(args.num("jobs", 0));
  options.include_fixtures = args.flag("include-fixtures");
  const std::vector<std::string>& roots = args.paths;
  if (roots.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    const auto files = predis::lint::collect_sources(roots, options);
    const auto report = predis::lint::lint_tree(files, options);
    if (json) {
      std::fputs(predis::lint::to_json(report).c_str(), stdout);
    } else {
      for (const auto& d : report.diagnostics) {
        std::printf("%s:%zu: [%s] %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.message.c_str());
      }
      for (const auto& d : report.stale_suppressions) {
        std::printf("%s:%zu: [%s] %s%s\n", d.file.c_str(), d.line,
                    d.rule.c_str(),
                    options.strict ? "" : "warning: ", d.message.c_str());
      }
      std::printf("predis-lint: %zu file(s), %zu finding(s), %zu stale "
                  "suppression(s)\n",
                  report.files_scanned, report.diagnostics.size(),
                  report.stale_suppressions.size());
    }
    if (!report.diagnostics.empty()) return 1;
    if (options.strict && !report.stale_suppressions.empty()) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
