// Fixture tests for the cgraf_lint engine (rules CL001-CL011).
//
// Each rule has a bad fixture that must fire it and a good fixture that
// must stay clean; fixtures live in tests/verify/fixtures/cl/ (excluded
// from the whole-tree lint walk, since the bad halves contain findings on
// purpose) and are linted under virtual paths so the path-scoped rules see
// the directory they police.
#include "code_lint.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "verify/code_rules.h"

namespace cgraf::lint {
namespace {

using verify::LintReport;
using verify::Severity;

std::string fixture(const std::string& name) {
  const std::string path = std::string(CGRAF_CL_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int count_rule(const LintReport& r, const std::string& id) {
  int n = 0;
  for (const auto& f : r.findings) n += f.rule == id ? 1 : 0;
  return n;
}

// Lints one fixture under a virtual path, restricted to a single rule.
LintReport lint_rule(const std::string& id, const std::string& vpath,
                     const std::string& name) {
  CodeLintOptions opts;
  opts.rules = {id};
  opts.stats_structs = {"FixtureStats"};
  return lint_sources({{vpath, fixture(name)}}, opts);
}

TEST(CodeLint, Cl001FiresOnRawStdSync) {
  const LintReport r =
      lint_rule("CL001", "src/core/locks.cpp", "cl001_bad.cpp");
  EXPECT_GE(count_rule(r, "CL001"), 3);  // mutex, lock_guard, cv, flag
  EXPECT_FALSE(r.clean());
}

TEST(CodeLint, Cl001CleanOnSyncLayer) {
  const LintReport r =
      lint_rule("CL001", "src/core/locks.cpp", "cl001_good.cpp");
  EXPECT_EQ(count_rule(r, "CL001"), 0);
  // The sync layer itself is the one place raw primitives are legal.
  CodeLintOptions opts;
  opts.rules = {"CL001"};
  const LintReport sync =
      lint_sources({{"src/util/sync.h", fixture("cl001_bad.cpp")}}, opts);
  EXPECT_EQ(count_rule(sync, "CL001"), 0);
}

TEST(CodeLint, Cl002FiresOnUnregisteredMutex) {
  const LintReport r =
      lint_rule("CL002", "src/core/widget.h", "cl002_bad.h");
  // Two findings: no CGRAF_GUARDED_BY user, no lock_rank registration.
  EXPECT_EQ(count_rule(r, "CL002"), 2);
}

TEST(CodeLint, Cl002CleanOnRegisteredGuardedMutex) {
  const LintReport r =
      lint_rule("CL002", "src/core/widget.h", "cl002_good.h");
  EXPECT_EQ(count_rule(r, "CL002"), 0);
}

TEST(CodeLint, Cl002FindsRankInSiblingFile) {
  // Declaration in the header, lock_rank registration in the .cpp: the
  // sibling-stem lookup must connect them.
  CodeLintOptions opts;
  opts.rules = {"CL002"};
  const LintReport r = lint_sources(
      {{"src/core/widget.h",
        "struct W { int v CGRAF_GUARDED_BY(mu_) = 0; Mutex mu_; };\n"},
       {"src/core/widget.cpp",
        "W::W() : mu_(\"w.mu\", lock_rank::kBnbShared) {}\n"}},
      opts);
  EXPECT_EQ(count_rule(r, "CL002"), 0);
}

TEST(CodeLint, Cl003FiresOnNonzeroFloatLiteralCompare) {
  const LintReport r =
      lint_rule("CL003", "src/milp/kernel.cpp", "cl003_bad.cpp");
  EXPECT_EQ(count_rule(r, "CL003"), 3);
}

TEST(CodeLint, Cl003CleanOnToleranceAndSanctionedPatterns) {
  const LintReport r =
      lint_rule("CL003", "src/milp/kernel.cpp", "cl003_good.cpp");
  EXPECT_EQ(count_rule(r, "CL003"), 0);
}

TEST(CodeLint, Cl003ScopedToNumericsDirectories) {
  // The same bad content outside the numerics directories is not CL003's
  // business (tools/ parses text, compares floats for CLI purposes, etc.).
  CodeLintOptions opts;
  opts.rules = {"CL003"};
  const LintReport r = lint_sources(
      {{"tools/plot/render.cpp", fixture("cl003_bad.cpp")}}, opts);
  EXPECT_EQ(count_rule(r, "CL003"), 0);
}

TEST(CodeLint, Cl004FiresOnStdoutFromLibraryCode) {
  const LintReport r =
      lint_rule("CL004", "src/core/noise.cpp", "cl004_bad.cpp");
  EXPECT_EQ(count_rule(r, "CL004"), 3);  // printf, fprintf(stdout), cout
}

TEST(CodeLint, Cl004CleanOnStderrAndTools) {
  const LintReport r =
      lint_rule("CL004", "src/core/noise.cpp", "cl004_good.cpp");
  EXPECT_EQ(count_rule(r, "CL004"), 0);
  // CLIs own stdout; the rule only polices src/ (minus src/obs).
  CodeLintOptions opts;
  opts.rules = {"CL004"};
  const LintReport cli =
      lint_sources({{"tools/cgraf_cli.cpp", fixture("cl004_bad.cpp")}}, opts);
  EXPECT_EQ(count_rule(cli, "CL004"), 0);
}

TEST(CodeLint, Cl005FiresOnUnguardedOptionalPointerDeref) {
  const LintReport r =
      lint_rule("CL005", "src/core/solve.cpp", "cl005_bad.cpp");
  EXPECT_EQ(count_rule(r, "CL005"), 2);  // tracer-> and hooks.events->
}

TEST(CodeLint, Cl005CleanOnGuardedDerefs) {
  const LintReport r =
      lint_rule("CL005", "src/core/solve.cpp", "cl005_good.cpp");
  EXPECT_EQ(count_rule(r, "CL005"), 0);
}

TEST(CodeLint, Cl006FiresOnLaxCParsers) {
  const LintReport r =
      lint_rule("CL006", "src/cgrra/io.cpp", "cl006_bad.cpp");
  EXPECT_EQ(count_rule(r, "CL006"), 4);  // atoi, atof, strtok x2
}

TEST(CodeLint, Cl006CleanOnStrictParsers) {
  const LintReport r =
      lint_rule("CL006", "src/cgrra/io.cpp", "cl006_good.cpp");
  EXPECT_EQ(count_rule(r, "CL006"), 0);
}

TEST(CodeLint, Cl007FiresOnFieldDroppedByAggregation) {
  const LintReport r =
      lint_rule("CL007", "src/core/stats.h", "cl007_bad.h");
  ASSERT_EQ(count_rule(r, "CL007"), 1);
  EXPECT_NE(r.findings[0].message.find("nodes"), std::string::npos);
}

TEST(CodeLint, Cl007CleanWhenAddAndPlusEqualsCoverAllFields) {
  const LintReport r =
      lint_rule("CL007", "src/core/stats.h", "cl007_good.h");
  EXPECT_EQ(count_rule(r, "CL007"), 0);
}

TEST(CodeLint, Cl008FiresOnFieldMissingFromJsonSites) {
  CodeLintOptions opts;
  opts.rules = {"CL008"};
  opts.stats_structs = {"FixtureStats"};
  const LintReport r = lint_sources(
      {{"src/core/stats.h", fixture("cl008_stats.h")},
       {"src/core/emit.cpp", fixture("cl008_site_partial.cpp")}},
      opts);
  ASSERT_EQ(count_rule(r, "CL008"), 1);
  EXPECT_NE(r.findings[0].message.find("nodes"), std::string::npos);
}

TEST(CodeLint, Cl008CleanWhenEveryFieldIsEmitted) {
  CodeLintOptions opts;
  opts.rules = {"CL008"};
  opts.stats_structs = {"FixtureStats"};
  const LintReport r = lint_sources(
      {{"src/core/stats.h", fixture("cl008_stats.h")},
       {"src/core/emit.cpp", fixture("cl008_site_full.cpp")}},
      opts);
  EXPECT_EQ(count_rule(r, "CL008"), 0);
}

TEST(CodeLint, Cl009FiresOnRuleIdWithNoTestReference) {
  CodeLintOptions opts;
  opts.rules = {"CL009"};
  const LintReport r = lint_sources(
      {{"src/verify/fixture_rules.cpp", fixture("cl009_rules.cpp")},
       {"tests/verify/fixture_test.cpp",
        fixture("cl009_test_without_ref.cpp")}},
      opts);
  ASSERT_EQ(count_rule(r, "CL009"), 1);
  EXPECT_NE(r.findings[0].message.find("ML901"), std::string::npos);
}

TEST(CodeLint, Cl009CleanWhenTestsReferenceEveryRuleId) {
  CodeLintOptions opts;
  opts.rules = {"CL009"};
  const LintReport r = lint_sources(
      {{"src/verify/fixture_rules.cpp", fixture("cl009_rules.cpp")},
       {"tests/verify/fixture_test.cpp",
        fixture("cl009_test_with_ref.cpp")}},
      opts);
  EXPECT_EQ(count_rule(r, "CL009"), 0);
}

TEST(CodeLint, Cl010FiresOnAllThreeHygieneFailures) {
  // Full rule set so unused-suppression detection is active.
  CodeLintOptions opts;
  const LintReport r =
      lint_sources({{"src/core/sup.cpp", fixture("cl010_bad.cpp")}}, opts);
  EXPECT_EQ(count_rule(r, "CL010"), 3);
}

TEST(CodeLint, Cl010CleanAndSuppressionAbsorbsFinding) {
  CodeLintOptions opts;
  const LintReport r =
      lint_sources({{"src/core/sup.cpp", fixture("cl010_good.cpp")}}, opts);
  EXPECT_EQ(count_rule(r, "CL010"), 0);
  EXPECT_EQ(count_rule(r, "CL006"), 0);  // absorbed by the ALLOW
  EXPECT_TRUE(r.clean());
}

TEST(CodeLint, Cl011FiresOnAdHocStrategyNameParsing) {
  const LintReport r =
      lint_rule("CL011", "src/core/dispatch.cpp", "cl011_bad.cpp");
  ASSERT_EQ(count_rule(r, "CL011"), 1);  // one finding per file, not per hit
  EXPECT_NE(r.findings[0].message.find("'dive'"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("'portfolio'"), std::string::npos);
}

TEST(CodeLint, Cl011CleanOnSingleNameAndTableUse) {
  const LintReport r =
      lint_rule("CL011", "src/obs/postmortem.cpp", "cl011_good.cpp");
  EXPECT_EQ(count_rule(r, "CL011"), 0);
}

TEST(CodeLint, Cl011ExemptsTheStrategyTableItself) {
  // The table's own parser/printer is the one sanctioned home for the
  // canonical spellings.
  CodeLintOptions opts;
  opts.rules = {"CL011"};
  const LintReport r = lint_sources(
      {{"src/core/strategy.cpp", fixture("cl011_bad.cpp")}}, opts);
  EXPECT_EQ(count_rule(r, "CL011"), 0);
}

TEST(CodeLint, SuppressionOnSameLineAlsoWorks) {
  CodeLintOptions opts;
  const LintReport r = lint_sources(
      {{"src/core/sup.cpp",
        "int p(const char* s) {\n"
        "  return atoi(s);  // CGRAF_LINT_ALLOW(CL006): same-line form\n"
        "}\n"}},
      opts);
  EXPECT_EQ(count_rule(r, "CL006"), 0);
  EXPECT_EQ(count_rule(r, "CL010"), 0);
}

TEST(CodeLint, FindingsCarryFileAndLine) {
  const LintReport r =
      lint_rule("CL006", "src/cgrra/io.cpp", "cl006_bad.cpp");
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].file, "src/cgrra/io.cpp");
  EXPECT_GT(r.findings[0].line, 0);
  EXPECT_EQ(r.findings[0].severity, Severity::kError);
  // The serialized forms carry the location too.
  EXPECT_NE(r.to_json().find("\"file\""), std::string::npos);
  EXPECT_NE(r.to_text().find("src/cgrra/io.cpp:"), std::string::npos);
}

TEST(CodeLint, ExtraFindingsMergeUnderSuppressions) {
  // AST-frontend extras obey the same CGRAF_LINT_ALLOW machinery.
  CodeLintOptions opts;
  std::vector<RawFinding> extra;
  extra.push_back(RawFinding{
      "CL003", "src/milp/kernel.cpp", 2, "typed float compare"});
  const LintReport r = lint_sources(
      {{"src/milp/kernel.cpp",
        "// CGRAF_LINT_ALLOW(CL003): probing a representable sentinel\n"
        "bool probe(double x) { return x == x; }\n"}},
      opts, std::move(extra));
  EXPECT_EQ(count_rule(r, "CL003"), 0);
  EXPECT_EQ(count_rule(r, "CL010"), 0);  // the suppression counts as used
}

TEST(CodeLint, RuleCatalogIsCompleteAndQueryable) {
  const auto& rules = verify::code_rules();
  ASSERT_EQ(rules.size(), 11u);
  for (int i = 1; i <= 11; ++i) {
    const std::string id = "CL00" + std::to_string(i);
    const std::string norm = i >= 10 ? "CL0" + std::to_string(i) : id;
    const verify::CodeRuleInfo* info = verify::find_code_rule(norm);
    ASSERT_NE(info, nullptr) << norm;
    EXPECT_EQ(info->severity, Severity::kError);
  }
  EXPECT_EQ(verify::find_code_rule("CL099"), nullptr);
  EXPECT_EQ(verify::find_code_rule("ML001"), nullptr);
}

TEST(CodeLint, InDirMatchesAtAnyDepthOnBoundaries) {
  EXPECT_TRUE(in_dir("src/milp/lu.cpp", "src/milp"));
  EXPECT_TRUE(in_dir("repo/src/milp/lu.cpp", "src/milp"));
  EXPECT_FALSE(in_dir("src/milpx/lu.cpp", "src/milp"));
  EXPECT_FALSE(in_dir("asrc/milp/lu.cpp", "src/milp"));
  EXPECT_FALSE(in_dir("src/milp", "src/milp"));  // the dir itself, no file
}

}  // namespace
}  // namespace cgraf::lint
