// Plumbing shared by the command-line tools: option parsing, the JSON
// writer behind the BENCH_*.json reports, and checked report output.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace predis::tools {

/// Parsed `--name value` and `--flag` options, plus the plain words of
/// a tool that takes paths.
struct Args {
  std::map<std::string, std::string> named;
  std::vector<std::string> paths;
  const char* usage = "";

  bool flag(const std::string& name) const { return named.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : it->second;
  }
  /// The value of `--name`, or `fallback` when it was not given. A
  /// value that is not wholly a finite number fails, so "--nodes abc"
  /// never runs as 0 nodes.
  double num(const std::string& name, double fallback) const {
    const auto it = named.find(name);
    if (it == named.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value)) {
      fail("bad value for --" + name + ": " + it->second);
    }
    return value;
  }
  /// The value of `--name` as a whole number in [lo, hi], or `fallback`
  /// when it was not given. A fraction or an out-of-range value fails,
  /// so "--seed -1" never wraps around to a huge unsigned number.
  std::uint64_t whole(const std::string& name, std::uint64_t fallback,
                      std::uint64_t lo, std::uint64_t hi) const {
    const double n = num(name, static_cast<double>(fallback));
    if (n < static_cast<double>(lo) || n > static_cast<double>(hi) ||
        n != std::floor(n)) {
      fail("--" + name + " must be a whole number in [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return static_cast<std::uint64_t>(n);
  }
  /// A count the runners divide by or loop on: zero crashes or hangs.
  std::uint64_t count(const std::string& name, std::uint64_t fallback) const {
    return whole(name, fallback, 1, 999'999'999);
  }
  /// A seed: any whole number a double holds exactly.
  std::uint64_t seed(const std::string& name, std::uint64_t fallback) const {
    return whole(name, fallback, 0, std::uint64_t{1} << 53);
  }
  /// Prints `why` and the usage to stderr and exits 2.
  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s\n\n%s", why.c_str(), usage);
    std::exit(2);
  }
};

/// Parses argv[first..argc) against the options a tool takes, named
/// without their dashes; a trailing '=' marks one that takes a value
/// ("out-dir="). Plain words are `paths` when `takes_paths`. An
/// unlisted option, a missing value, any other word or an `--out-dir`
/// that is not an existing directory prints `usage` to stderr and exits
/// 2, so a mistyped command never runs the defaults. `-h`/`--help`
/// prints `usage` to stdout and exits 0.
inline Args parse_args(int argc, char** argv, int first,
                       std::initializer_list<const char*> options,
                       const char* usage, bool takes_paths = false) {
  Args args;
  args.usage = usage;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(usage, stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      if (!takes_paths || arg.rfind('-', 0) == 0) {
        args.fail("unexpected argument: " + arg);
      }
      args.paths.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(2);
    bool known = false;
    bool takes_value = false;
    for (const std::string option : options) {
      takes_value = option == name + "=";
      known = takes_value || option == name;
      if (known) break;
    }
    if (!known) args.fail("unknown option: " + arg);
    if (!takes_value) {
      args.named[name].assign(1, '1');
    } else if (i + 1 < argc) {
      args.named[name] = argv[++i];
    } else {
      args.fail("missing value for " + arg);
    }
  }
  if (args.flag("out-dir") &&
      !std::filesystem::is_directory(args.get("out-dir", ""))) {
    args.fail("--out-dir " + args.get("out-dir", "") + " is not a directory");
  }
  return args;
}

/// Writes `content` to `path` and reports it on stdout. Returns 0, or
/// 1 after naming `tool` and the path on stderr if the write failed.
inline int write_file(const char* tool, const std::string& path,
                      const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// A latency figure for JSON: null when the run recorded no samples.
inline std::string json_ms(double ms, std::uint64_t samples, int precision) {
  if (samples == 0) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, ms);
  return buf;
}

/// A latency figure of run `r` for a text table: "n/a" when the run
/// recorded no samples.
template <typename Report>
std::string table_ms(const Report& r, double ms) {
  return r.latency_samples == 0 ? "n/a" : json_ms(ms, r.latency_samples, 1);
}

/// Appends `"key": value, ` pairs (the last of an object passes
/// comma = false) to the report being built in `buf`.
struct JsonWriter {
  std::string buf;
  void raw(const std::string& s) { buf += s; }
  void kv(const char* key, double v, bool comma = true) {
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp), "\"%s\": %.3f%s", key, v,
                  comma ? ", " : "");
    buf += tmp;
  }
  void kv(const char* key, std::size_t v, bool comma = true) {
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp), "\"%s\": %zu%s", key, v,
                  comma ? ", " : "");
    buf += tmp;
  }
  void kv(const char* key, const char* v, bool comma = true) {
    buf += std::string("\"") + key + "\": \"" + v + "\"" +
           (comma ? ", " : "");
  }
  void kv(const char* key, bool v, bool comma = true) {
    buf += std::string("\"") + key + "\": " + (v ? "true" : "false") +
           (comma ? ", " : "");
  }
};

}  // namespace predis::tools
