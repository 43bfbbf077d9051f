// Tests for the tracing subsystem, the report exporters, and the CLI
// argument parser.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "tools/args.hpp"
#include "trace/tracer.hpp"
#include "workloads/micro.hpp"

namespace glocks {
namespace {

TEST(Tracer, RecordsAndExports) {
  trace::Tracer tr;
  tr.complete(3, 100, 150, "acquire L0");
  tr.instant(1, 120, "mark");
  ASSERT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.events()[0].end - tr.events()[0].begin, 50u);

  std::ostringstream json;
  tr.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"name\":\"acquire L0\""), std::string::npos);
  EXPECT_NE(json.str().find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.str().find("\"tid\":3"), std::string::npos);

  std::ostringstream text;
  tr.write_text(text);
  EXPECT_NE(text.str().find("[100..150] t3 acquire L0"), std::string::npos);
  EXPECT_NE(text.str().find("[120] t1 mark"), std::string::npos);
}

TEST(Tracer, CapacityBoundsAndDropCounting) {
  trace::Tracer tr(2);
  tr.instant(0, 1, "a");
  tr.instant(0, 2, "b");
  tr.instant(0, 3, "c");
  EXPECT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.dropped(), 1u);
}

TEST(Tracer, EscapesJsonSpecials) {
  trace::Tracer tr;
  tr.instant(0, 1, "quote\" slash\\ nl\n");
  std::ostringstream json;
  tr.write_chrome_json(json);
  EXPECT_NE(json.str().find("quote\\\" slash\\\\ nl\\n"),
            std::string::npos);
}

TEST(Tracer, LockEventsAppearDuringARun) {
  workloads::MicroParams p;
  p.total_iterations = 30;
  workloads::SingleCounter wl(p);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 4;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  trace::Tracer tr;
  cfg.tracer = &tr;
  harness::run_workload(wl, cfg);
  // 30 acquires + 30 releases.
  EXPECT_EQ(tr.events().size(), 60u);
  int acquires = 0;
  for (const auto& e : tr.events()) {
    if (e.name.rfind("acquire", 0) == 0) ++acquires;
    EXPECT_LE(e.begin, e.end);
  }
  EXPECT_EQ(acquires, 30);
}

TEST(Report, AllFormatsContainTheHeadlineNumbers) {
  workloads::MicroParams p;
  p.total_iterations = 40;
  workloads::SingleCounter wl(p);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 4;
  const auto r = harness::run_workload(wl, cfg);

  const std::string text = harness::summary_text(r);
  EXPECT_NE(text.find("workload SCTR"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(r.cycles)), std::string::npos);
  EXPECT_NE(text.find("SCTR-L0"), std::string::npos);

  std::ostringstream csv;
  harness::write_csv_header(csv);
  harness::write_csv_row(r, csv);
  // Header columns == row columns.
  const std::string s = csv.str();
  const auto header_commas =
      std::count(s.begin(), s.begin() + static_cast<long>(s.find('\n')),
                 ',');
  const auto row_commas =
      std::count(s.begin() + static_cast<long>(s.find('\n')), s.end(), ',');
  EXPECT_EQ(header_commas, row_commas);

  std::ostringstream json;
  harness::write_json(r, json);
  EXPECT_NE(json.str().find("\"workload\": \"SCTR\""), std::string::npos);
  EXPECT_NE(json.str().find("\"census\": ["), std::string::npos);
}

const std::vector<std::string> kBools = {"csv", "json"};
const std::vector<std::string> kValues = {"workload", "cores", "scale"};

TEST(Args, ParsesFlagsAndValues) {
  const char* argv[] = {"prog",    "--workload", "SCTR",  "--cores",
                        "16",      "--csv",      "--scale", "0.5"};
  tools::Args args(8, argv, kBools, kValues);
  EXPECT_EQ(args.get("workload"), "SCTR");
  EXPECT_EQ(args.get_u64("cores", 32), 16u);
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("json"));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get("absent", "dflt"), "dflt");
  EXPECT_EQ(args.get_u64("absent", 7), 7u);
}

TEST(Args, RejectsMalformedInput) {
  const char* stray[] = {"prog", "stray"};
  EXPECT_THROW(tools::Args(2, stray, kBools, kValues), tools::UsageError);
  const char* no_value[] = {"prog", "--cores"};
  EXPECT_THROW(tools::Args(2, no_value, kBools, kValues), tools::UsageError);
}

TEST(Args, RejectsUnknownFlags) {
  // A flag the tool does not know — a typo, or one that was removed —
  // is an error, never silently ignored together with its value.
  const char* unknown[] = {"prog", "--bogus", "3"};
  EXPECT_THROW(tools::Args(3, unknown, kBools, kValues), tools::UsageError);
  const char* other_tool[] = {"prog", "--workload", "SCTR", "--jobs", "4"};
  try {
    tools::Args(5, other_tool, kBools, kValues);
    FAIL() << "--jobs was accepted";
  } catch (const tools::UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag: --jobs");
  }
}

TEST(Args, RejectsNonNumericValues) {
  const char* argv[] = {"prog", "--cores", "abc", "--scale", "0.5x"};
  const tools::Args args(5, argv, kBools, kValues);
  EXPECT_THROW(args.get_u64("cores", 32), tools::UsageError);
  EXPECT_THROW(args.get_double("scale", 1.0), tools::UsageError);
  EXPECT_THROW(tools::Args::parse_u64("cores", "-1"), tools::UsageError);
  EXPECT_THROW(tools::Args::parse_u64("cores", ""), tools::UsageError);
  EXPECT_THROW(tools::Args::parse_u64("seeds", "99999999999999999999999"),
               tools::UsageError);
  EXPECT_EQ(tools::Args::parse_u64("seeds", "42"), 42u);
}

}  // namespace
}  // namespace glocks
