// predis-lint self-tests: every rule has a fixture that must fail and
// one that must pass, plus allowlist-pragma and JSON-shape coverage.
// The fixtures live in tests/lint_fixtures (skipped by the default
// tree scan precisely because they violate the rules on purpose).
#include "linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

namespace predis::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(PREDIS_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Diagnostic> lint_fixture(const std::string& name) {
  return lint_files({fixture(name)});
}

std::size_t count_rule(const std::vector<Diagnostic>& diags,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

TEST(PredisLint, D1FailsOnUnorderedIterationThatEmits) {
  const auto diags = lint_fixture("d1_unordered_emit_fail.cpp");
  ASSERT_EQ(count_rule(diags, "D1"), 1u);
  EXPECT_EQ(diags[0].line, 13u);
  EXPECT_NE(diags[0].message.find("credits_"), std::string::npos);
}

TEST(PredisLint, D1PassesOnLookupsAndSinkFreeIteration) {
  EXPECT_TRUE(lint_fixture("d1_unordered_lookup_pass.cpp").empty());
}

TEST(PredisLint, D2FailsOnWallClockAndCRng) {
  const auto diags = lint_fixture("d2_wall_clock_fail.cpp");
  EXPECT_EQ(count_rule(diags, "D2"), 2u);
}

TEST(PredisLint, D2PassesOnSeededRngAndSimClock) {
  EXPECT_TRUE(lint_fixture("d2_seeded_rng_pass.cpp").empty());
}

TEST(PredisLint, D3FailsOnMissingNodiscardAndDiscardedResult) {
  const auto diags = lint_fixture("d3_missing_nodiscard_fail.hpp");
  ASSERT_EQ(count_rule(diags, "D3"), 3u);
  // Two declaration findings, one discarded-call finding.
  const auto discarded = std::count_if(
      diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.message.find("discarded") != std::string::npos;
      });
  EXPECT_EQ(discarded, 1);
}

TEST(PredisLint, D3PassesWhenAnnotatedAndConsumed) {
  EXPECT_TRUE(lint_fixture("d3_nodiscard_pass.hpp").empty());
}

TEST(PredisLint, D4FailsOnUncheckedSenderAndMessageIndex) {
  // The raw sender subscript is D4's; the laundered lane index is
  // caught by the D9 taint walker.
  const auto diags = lint_fixture("d4_unchecked_sender_fail.cpp");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(count_rule(diags, "D4"), 1u);
  EXPECT_EQ(count_rule(diags, "D9"), 1u);
  EXPECT_NE(diags[0].message.find("from"), std::string::npos);
  EXPECT_NE(diags[1].message.find("lane"), std::string::npos);
}

TEST(PredisLint, D4PassesWithGuards) {
  EXPECT_TRUE(lint_fixture("d4_checked_sender_pass.cpp").empty());
}

TEST(PredisLint, D9FailsOnUnboundedSpanWalk) {
  const auto diags = lint_fixture("d9_unbounded_span_fail.cpp");
  ASSERT_EQ(count_rule(diags, "D9"), 2u);
  EXPECT_NE(diags[0].message.find("kMax"), std::string::npos);
  EXPECT_NE(diags[1].message.find("span"), std::string::npos);
}

TEST(PredisLint, D9PassesWithSpanClamp) {
  EXPECT_TRUE(lint_fixture("d9_bounded_span_pass.cpp").empty());
}

TEST(PredisLint, D7FailsOnUnlockedGuardedAccess) {
  const auto diags = lint_fixture("d7_guarded_access_fail.cpp");
  ASSERT_EQ(count_rule(diags, "D7"), 2u);
  EXPECT_EQ(diags[0].line, 16u);
  EXPECT_NE(diags[0].message.find("credits_"), std::string::npos);
  EXPECT_EQ(diags[1].line, 23u);
  EXPECT_NE(diags[1].message.find("last_spent_"), std::string::npos);
}

TEST(PredisLint, D7PassesUnderEveryGuardShape) {
  EXPECT_TRUE(lint_fixture("d7_guarded_access_pass.cpp").empty());
}

TEST(PredisLint, D7FailsOnLockOrderCycle) {
  const auto diags = lint_fixture("d7_lock_order_fail.cpp");
  ASSERT_EQ(count_rule(diags, "D7"), 1u);
  EXPECT_NE(diags[0].message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(diags[0].message.find("a_"), std::string::npos);
  EXPECT_NE(diags[0].message.find("b_"), std::string::npos);
}

TEST(PredisLint, D8FailsOnLeakedHandles) {
  const auto diags = lint_fixture("d8_leaked_handle_fail.cpp");
  ASSERT_EQ(count_rule(diags, "D8"), 3u);
  EXPECT_NE(diags[0].message.find("discarded"), std::string::npos);
  EXPECT_NE(diags[1].message.find("never used"), std::string::npos);
  EXPECT_NE(diags[2].message.find("never cancelled"), std::string::npos);
  EXPECT_NE(diags[2].message.find("retry_timer_"), std::string::npos);
}

TEST(PredisLint, D8PassesWithCancelAndFireAndForget) {
  EXPECT_TRUE(lint_fixture("d8_handle_pass.cpp").empty());
}

TEST(PredisLint, D9FailsOnLaunderedTaint) {
  const auto diags = lint_fixture("d9_laundered_taint_fail.cpp");
  ASSERT_EQ(count_rule(diags, "D9"), 4u);
  EXPECT_NE(diags[0].message.find("resize"), std::string::npos);
  EXPECT_NE(diags[1].message.find("lanes_"), std::string::npos);
  EXPECT_NE(diags[2].message.find("span"), std::string::npos);
  EXPECT_NE(diags[3].message.find("highest_"), std::string::npos);
}

TEST(PredisLint, D9PassesWhenEverySinkIsSanitized) {
  EXPECT_TRUE(lint_fixture("d9_clamped_taint_pass.cpp").empty());
}

TEST(PredisLint, S1ReportsStaleSuppressions) {
  const auto report =
      lint_tree({fixture("s1_stale_suppression_fail.cpp")}, Options{});
  EXPECT_TRUE(report.diagnostics.empty());
  ASSERT_EQ(report.stale_suppressions.size(), 2u);
  EXPECT_EQ(report.stale_suppressions[0].rule, "S1");
  EXPECT_NE(report.stale_suppressions[0].message.find("allow-file(D5)"),
            std::string::npos);
  EXPECT_NE(report.stale_suppressions[1].message.find("allow(D2)"),
            std::string::npos);
  EXPECT_EQ(report.rule_counts.at("S1"), 2u);
}

TEST(PredisLint, LivePragmasAreNotStale) {
  const auto report = lint_tree(
      {fixture("allow_line_pass.cpp"), fixture("allow_file_pass.cpp")},
      Options{});
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_TRUE(report.stale_suppressions.empty());
}

TEST(PredisLint, ReportCountsEveryRuleFamily) {
  const auto report = lint_tree({fixture("d7_guarded_access_fail.cpp"),
                                 fixture("d9_laundered_taint_fail.cpp")},
                                Options{});
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_EQ(report.rule_counts.at("D7"), 2u);
  EXPECT_EQ(report.rule_counts.at("D9"), 4u);
  // Zero entries exist for untriggered rules so the schema is stable.
  EXPECT_EQ(report.rule_counts.at("D1"), 0u);
  EXPECT_EQ(report.rule_counts.at("S1"), 0u);
  EXPECT_EQ(report.rule_counts.size(), 9u);  // D1-D5, D7-D9, S1.
}

TEST(PredisLint, ParallelScanMatchesSerialScan) {
  const auto files = collect_sources({PREDIS_LINT_FIXTURE_DIR}, Options{});
  Options serial;
  serial.jobs = 1;
  Options wide;
  wide.jobs = 8;
  const auto a = lint_tree(files, serial);
  const auto b = lint_tree(files, wide);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].file, b.diagnostics[i].file);
    EXPECT_EQ(a.diagnostics[i].line, b.diagnostics[i].line);
    EXPECT_EQ(a.diagnostics[i].rule, b.diagnostics[i].rule);
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
  }
  EXPECT_EQ(a.stale_suppressions.size(), b.stale_suppressions.size());
}

TEST(PredisLint, ReportJsonIsVersioned) {
  const auto report =
      lint_tree({fixture("d5_cast_fail.cpp")}, Options{});
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"schema\": \"predis-lint/2\""), std::string::npos);
  EXPECT_NE(json.find("\"rule_counts\""), std::string::npos);
  EXPECT_NE(json.find("\"D5\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"stale_suppressions\""), std::string::npos);
}

TEST(PredisLint, D5FailsOutsideApprovedTus) {
  const auto diags = lint_fixture("d5_cast_fail.cpp");
  ASSERT_EQ(count_rule(diags, "D5"), 1u);
}

TEST(PredisLint, D5PassesInApprovedTu) {
  EXPECT_TRUE(lint_fixture("bytes_cast_pass.cpp").empty());
}

TEST(PredisLint, LinePragmaSuppressesNextLine) {
  EXPECT_TRUE(lint_fixture("allow_line_pass.cpp").empty());
}

TEST(PredisLint, FilePragmaSuppressesWholeFile) {
  EXPECT_TRUE(lint_fixture("allow_file_pass.cpp").empty());
}

TEST(PredisLint, CollectSourcesSkipsFixturesByDefault) {
  // Walking the parent tree must skip lint_fixtures unless opted in;
  // naming the fixture directory explicitly always scans it.
  const std::string parent =
      std::filesystem::path(PREDIS_LINT_FIXTURE_DIR).parent_path().string();
  const auto contains_fixture = [](const std::vector<std::string>& files) {
    return std::any_of(files.begin(), files.end(), [](const std::string& f) {
      return f.find("lint_fixtures") != std::string::npos;
    });
  };
  Options options;
  EXPECT_FALSE(contains_fixture(collect_sources({parent}, options)));
  options.include_fixtures = true;
  EXPECT_TRUE(contains_fixture(collect_sources({parent}, options)));

  const auto direct = collect_sources({PREDIS_LINT_FIXTURE_DIR}, Options{});
  EXPECT_GE(direct.size(), 12u);
  EXPECT_TRUE(std::is_sorted(direct.begin(), direct.end()));
}

TEST(PredisLint, JsonOutputIsWellFormedAndStable) {
  const auto diags = lint_fixture("d5_cast_fail.cpp");
  ASSERT_FALSE(diags.empty());
  const std::string json = to_json(diags);
  EXPECT_NE(json.find("\"rule\": \"D5\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": "), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            static_cast<std::ptrdiff_t>(diags.size()));
  EXPECT_EQ(to_json(std::vector<Diagnostic>{}), "[\n]\n");
}

TEST(PredisLint, DiagnosticsAreSortedByFileLineRule) {
  const auto diags = lint_files({fixture("d2_wall_clock_fail.cpp"),
                                 fixture("d5_cast_fail.cpp"),
                                 fixture("d1_unordered_emit_fail.cpp")});
  ASSERT_GE(diags.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
        return std::tie(a.file, a.line, a.rule) <
               std::tie(b.file, b.line, b.rule);
      }));
}

}  // namespace
}  // namespace predis::lint
