// The tentpole exactness contract: `cgraf_cli analyze` must reproduce the
// in-process solver statistics (nodes, LP iterations, warm hits) from the
// event stream alone, and its Chrome trace view must show the same run.
// These tests run real solves against an in-memory EventLog and diff the
// analyzer's totals and the exported spans against the returned stats.
//
// Suites: Postmortem (analyzer totals), Metrics (percentiles and the lock
// table the analyzer derives), Trace (the Chrome trace exporter) and
// PipelineTrace (the exporter on logs of real remaps and parallel solves).
#include "obs/postmortem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "core/remapper.h"
#include "core/st_target.h"
#include "json_check.h"
#include "milp/branch_and_bound.h"
#include "milp/model.h"
#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "util/rng.h"
#include "util/sync.h"
#include "workloads/suite.h"

namespace cgraf::obs {
namespace {

PostmortemReport analyze_ok(const std::string& jsonl) {
  PostmortemReport report;
  std::string error;
  EXPECT_TRUE(analyze_events(jsonl, &report, &error)) << error;
  return report;
}

milp::Model coupled_binary_model(std::uint64_t seed, int n) {
  Rng rng(seed);
  milp::Model m;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i)
    vars.push_back(m.add_binary(0.5 + rng.next_double()));
  for (int i = 0; i + 2 < n; ++i) {
    m.add_le({{vars[static_cast<std::size_t>(i)], 1.0},
              {vars[static_cast<std::size_t>(i + 1)], 1.0},
              {vars[static_cast<std::size_t>(i + 2)], 1.0}},
             2.0);
  }
  return m;
}

// A small ops x pes assignment MILP (the shape the floorplanner emits).
milp::Model assignment_model(int ops, int pes, std::uint64_t seed) {
  Rng rng(seed);
  milp::Model m;
  std::vector<std::vector<int>> vars(static_cast<size_t>(ops));
  std::vector<double> stress(static_cast<size_t>(ops));
  double total = 0.0;
  for (int j = 0; j < ops; ++j) {
    stress[static_cast<size_t>(j)] = 0.2 + 0.6 * rng.next_double();
    total += stress[static_cast<size_t>(j)];
    std::vector<std::pair<int, double>> row;
    for (int k = 0; k < pes; ++k) {
      const int v = m.add_binary(rng.next_double());
      vars[static_cast<size_t>(j)].push_back(v);
      row.emplace_back(v, 1.0);
    }
    m.add_eq(std::move(row), 1.0);
  }
  const double cap = std::max(1.3 * total / pes, 0.85);
  for (int k = 0; k < pes; ++k) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < ops; ++j)
      row.emplace_back(vars[static_cast<size_t>(j)][static_cast<size_t>(k)],
                       stress[static_cast<size_t>(j)]);
    m.add_le(std::move(row), cap);
  }
  return m;
}

// The Chrome trace view of `jsonl`, parsed back. Checks that the document
// is valid JSON and that every span ends at its record's stamp (the record
// rides along as the span's args).
std::vector<JsonValue> trace_events(const std::string& jsonl) {
  const std::string trace = chrome_trace(jsonl);
  std::string why;
  EXPECT_TRUE(test::JsonChecker::valid(trace, &why)) << why;
  JsonValue doc;
  EXPECT_TRUE(parse_json(trace, &doc, &why)) << why;
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    ADD_FAILURE() << "no traceEvents array";
    return {};
  }
  for (const JsonValue& ev : events->arr) {
    if (ev.str_or("ph", "") != "X") continue;
    const JsonValue* args = ev.find("args");
    if (args == nullptr) {
      ADD_FAILURE() << "span without args";
      continue;
    }
    EXPECT_NEAR(ev.num_or("ts", 0.0) + ev.num_or("dur", 0.0),
                args->num_or("t", -1.0), 1.0)
        << ev.str_or("name", "");
  }
  return events->arr;
}

// Remaps the first Table-I benchmark with `log` plumbed in. The log stays
// open so the caller can append records before closing it.
core::RemapResult traced_remap(EventLog* log) {
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  core::RemapOptions opts;
  opts.solver.events = log;
  return aging_aware_remap(bench.design, bench.baseline, opts);
}

TEST(Postmortem, BnbTotalsMatchMipResultExactly) {
  EventLog log;
  log.open_memory();
  const milp::Model m = coupled_binary_model(11, 16);
  milp::MipOptions opts;
  opts.events = &log;
  opts.num_threads = 1;
  const milp::MipResult res = milp::solve_milp(m, opts);
  ASSERT_TRUE(res.has_solution());
  log.close();

  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.bnb_solves, 1);
  EXPECT_EQ(report.bnb_nodes, res.nodes);
  EXPECT_EQ(report.bnb_node_lp_iters, res.lp_iterations);
  // Every LP in a pure solve_milp run is a node LP, so the lp.solve family
  // must agree with the per-node sum.
  EXPECT_EQ(report.lp_iterations, res.lp_iterations);
  EXPECT_EQ(report.lp_solves, report.bnb_nodes);
  // Depth table covers every node exactly once.
  long depth_nodes = 0, depth_iters = 0;
  for (const auto& [depth, row] : report.by_depth) {
    EXPECT_GE(depth, 0);
    depth_nodes += row.nodes;
    depth_iters += row.lp_iters;
  }
  EXPECT_EQ(depth_nodes, res.nodes);
  EXPECT_EQ(depth_iters, res.lp_iterations);
  // An optimal run on this model finds at least one incumbent.
  EXPECT_GE(static_cast<long>(report.incumbents.size()), 1);
}

TEST(Postmortem, BnbTotalsMatchUnderParallelWorkers) {
  struct Input {
    milp::Model model;
    int threads;
  };
  const Input inputs[] = {{coupled_binary_model(23, 18), 4},
                          {assignment_model(14, 6, 3), 2}};
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.threads);
    EventLog log;
    log.open_memory();
    milp::MipOptions opts;
    opts.events = &log;
    opts.num_threads = in.threads;
    const milp::MipResult res = milp::solve_milp(in.model, opts);
    ASSERT_TRUE(res.has_solution());
    log.close();

    const PostmortemReport report = analyze_ok(log.memory_contents());
    EXPECT_EQ(report.bnb_nodes, res.nodes);
    EXPECT_EQ(report.bnb_node_lp_iters, res.lp_iterations);
    EXPECT_EQ(report.lp_iterations, res.lp_iterations);
    EXPECT_EQ(report.node_lp_iters.count, res.nodes);
  }
}

TEST(Postmortem, StSearchProbeTotalsMatchResultExactly) {
  EventLog log;
  log.open_memory();
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  core::StTargetOptions opts;
  opts.solver.events = &log;
  const core::StTargetResult r =
      find_st_target(bench.design, bench.baseline, opts);
  ASSERT_TRUE(r.ok);
  log.close();

  // Step 1 is closed-form: one search, no probe and no LP.
  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.st_searches, 1);
  EXPECT_EQ(report.probes, 0);
  EXPECT_EQ(report.lp_solves, 0);
  EXPECT_TRUE(report.probe_chain.empty());
}

TEST(Postmortem, RemapRunReconstructsPipeline) {
  EventLog log;
  log.open_memory();
  const core::RemapResult res = traced_remap(&log);
  Mutex mu("test.postmortem.lock", 99);
  { MutexLock lk(&mu); }
  log_mutex_stats(&log);
  log.close();

  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.remap_runs, 1);
  EXPECT_EQ(report.remap_attempts, static_cast<long>(res.outer_iterations));
  EXPECT_GE(report.st_searches, 1);
  EXPECT_GT(report.lp_solves, 0);
  EXPECT_GT(report.probes, 0);
  // The probe chain reconstructs in emission order with sane timestamps.
  ASSERT_EQ(static_cast<long>(report.probe_chain.size()), report.probes);
  double last_t = -1.0;
  for (const auto& probe : report.probe_chain) {
    EXPECT_GE(probe.t_us, last_t);
    last_t = probe.t_us;
  }
  EXPECT_EQ(report.floorplan_rejections, res.certify_rejections);
  EXPECT_GE(report.dive_rounds.count, 1);
  // One attempt entry per Delta-loop attempt, certificate rejections
  // included. The returned target is the last one that passed the STA
  // re-check (JsonWriter prints %.12g).
  ASSERT_EQ(static_cast<long>(report.attempts.size()),
            static_cast<long>(res.outer_iterations));
  if (res.improved) {
    const auto last_ok =
        std::find_if(report.attempts.rbegin(), report.attempts.rend(),
                     [](const PostmortemReport::Attempt& a) { return a.cpd_ok; });
    ASSERT_NE(last_ok, report.attempts.rend());
    EXPECT_NEAR(last_ok->st_target, res.st_target_final,
                1e-11 * std::abs(res.st_target_final));
  }
  // The sync.mutex snapshot folds into the lock table unchanged.
  const MutexStats lock = mu.stats();
  ASSERT_EQ(report.locks.count("test.postmortem.lock"), 1u);
  EXPECT_EQ(report.locks.at("test.postmortem.lock").acquisitions,
            lock.acquisitions);
  EXPECT_EQ(report.locks.at("test.postmortem.lock").contended,
            lock.contended);
  EXPECT_EQ(report.locks.at("test.postmortem.lock").wait_seconds,
            lock.wait_seconds);

  // Both render paths hold together on a real stream.
  const std::string text = report.to_text();
  EXPECT_NE(text.find("post-mortem"), std::string::npos);
  const std::string json = report.to_json();
  std::string why;
  EXPECT_TRUE(test::JsonChecker::valid(json, &why)) << why;
}

TEST(Postmortem, HeaderIsParsed) {
  EventLog log;
  log.open_memory();
  log.close();
  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_TRUE(report.have_header);
  EXPECT_EQ(report.schema, kEventLogSchemaVersion);
  EXPECT_FALSE(report.compiler.empty());
}

TEST(Postmortem, EmptyStreamFails) {
  PostmortemReport report;
  std::string error;
  EXPECT_FALSE(analyze_events("", &report, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Postmortem, NewerSchemaIsRejected) {
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":" +
      std::to_string(kEventLogSchemaVersion + 1) + "}\n";
  PostmortemReport report;
  std::string error;
  EXPECT_FALSE(analyze_events(jsonl, &report, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(Postmortem, MalformedLinesAreCollectedNotFatal) {
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n"
      "this is not json\n"
      "{\"type\":\"lp.solve\",\"t\":1,\"tid\":0,\"iterations\":5}\n";
  const PostmortemReport report = analyze_ok(jsonl);
  ASSERT_EQ(report.parse_errors.size(), 1u);
  EXPECT_EQ(report.parse_errors[0].first, 2);  // 1-based line number
  EXPECT_EQ(report.lp_solves, 1);
  EXPECT_EQ(report.lp_iterations, 5);
}

TEST(Postmortem, UnknownRecordTypesAreCountedAndSkipped) {
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n"
      "{\"type\":\"future.record\",\"t\":1,\"tid\":0,\"shiny\":true}\n";
  const PostmortemReport report = analyze_ok(jsonl);
  EXPECT_EQ(report.total_records, 2);
  EXPECT_EQ(report.records_by_type.at("future.record"), 1);
}

TEST(Postmortem, FoldsRejectionsPercentilesAndLockSnapshots) {
  std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n";
  for (int i = 1; i <= 10; ++i) {
    jsonl += "{\"type\":\"bnb.node\",\"t\":1,\"tid\":0,\"lp_iters\":" +
             std::to_string(i) + "}\n";
  }
  jsonl +=
      // Only solves that dived count toward the dive-round percentiles.
      "{\"type\":\"twostep.solve\",\"t\":2,\"tid\":0,\"dive_rounds\":0,"
      "\"certify_rejected\":true,\"seconds\":null}\n"
      "{\"type\":\"twostep.solve\",\"t\":3,\"tid\":0,\"dive_rounds\":7,"
      "\"certify_rejected\":false,\"seconds\":0.000001}\n"
      "{\"type\":\"probe.solve\",\"t\":4,\"tid\":0,"
      "\"certify_rejected\":true}\n"
      "{\"type\":\"remap.end\",\"t\":6,\"tid\":0,"
      "\"certify_rejections\":2}\n"
      // Snapshots are cumulative: the later record for a name wins.
      "{\"type\":\"sync.mutex\",\"t\":7,\"tid\":0,\"name\":\"m\","
      "\"acquisitions\":3,\"contended\":1,\"wait_seconds\":0.5}\n"
      "{\"type\":\"sync.mutex\",\"t\":8,\"tid\":0,\"name\":\"m\","
      "\"acquisitions\":9,\"contended\":2,\"wait_seconds\":0.75}\n";
  const PostmortemReport report = analyze_ok(jsonl);
  EXPECT_EQ(report.solution_rejections, 2);
  EXPECT_EQ(report.floorplan_rejections, 2);
  // Nearest rank over 1..10.
  EXPECT_EQ(report.node_lp_iters.count, 10);
  EXPECT_EQ(report.node_lp_iters.p50, 5);
  EXPECT_EQ(report.node_lp_iters.p90, 9);
  EXPECT_EQ(report.node_lp_iters.p99, 10);
  EXPECT_EQ(report.dive_rounds.count, 1);
  EXPECT_EQ(report.dive_rounds.p99, 7);
  ASSERT_EQ(report.locks.size(), 1u);
  EXPECT_EQ(report.locks.at("m").acquisitions, 9);
  EXPECT_EQ(report.locks.at("m").contended, 2);
  EXPECT_EQ(report.locks.at("m").wait_seconds, 0.75);

  // A null `seconds` leaves the record an instant; a number makes a span.
  long spans = 0, instants = 0;
  for (const JsonValue& ev : trace_events(jsonl)) {
    if (ev.str_or("name", "") != "twostep.solve") continue;
    if (ev.str_or("ph", "") == "X") {
      ++spans;
      EXPECT_NEAR(ev.num_or("dur", 0.0), 1.0, 1e-9);
    } else {
      ++instants;
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
}

TEST(Postmortem, FoldsRemapAttempts) {
  // A cpd-ok, a failed and a certificate-rejected attempt, in emission
  // order; only the rejected one carries the optional certify_error.
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n"
      "{\"type\":\"remap.attempt\",\"t\":1000,\"tid\":0,\"iter\":1,"
      "\"st_target\":1.25,\"status\":\"optimal\",\"strategy\":\"dive\","
      "\"cpd_ok\":true,\"vars\":12,\"seconds\":0.5}\n"
      "{\"type\":\"remap.attempt\",\"t\":2000,\"tid\":0,\"iter\":2,"
      "\"st_target\":0.75,\"status\":\"node-limit\",\"strategy\":\"dive\","
      "\"cpd_ok\":false,\"vars\":12,\"seconds\":0.25}\n"
      "{\"type\":\"remap.attempt\",\"t\":3000,\"tid\":0,\"iter\":3,"
      "\"st_target\":1,\"status\":\"optimal\",\"strategy\":\"dive\","
      "\"cpd_ok\":false,\"vars\":12,\"seconds\":0.125,"
      "\"certify_error\":\"stress: PE 3 carries 1.5 > 1\"}\n";
  const PostmortemReport report = analyze_ok(jsonl);
  EXPECT_EQ(report.remap_attempts, 3);
  EXPECT_EQ(report.remap_attempts_cpd_ok, 1);
  EXPECT_EQ(report.remap_attempt_ok_seconds, 0.5);
  EXPECT_EQ(report.remap_attempt_failed_seconds, 0.375);
  ASSERT_EQ(report.attempts.size(), 3u);
  const PostmortemReport::Attempt& ok = report.attempts[0];
  EXPECT_EQ(ok.t_us, 1000.0);
  EXPECT_EQ(ok.iter, 1);
  EXPECT_EQ(ok.st_target, 1.25);
  EXPECT_EQ(ok.strategy, "dive");
  EXPECT_EQ(ok.status, "optimal");
  EXPECT_TRUE(ok.cpd_ok);
  EXPECT_EQ(ok.seconds, 0.5);
  EXPECT_TRUE(ok.certify_error.empty());
  EXPECT_EQ(report.attempts[1].iter, 2);
  EXPECT_EQ(report.attempts[1].status, "node-limit");
  EXPECT_FALSE(report.attempts[1].cpd_ok);
  EXPECT_TRUE(report.attempts[1].certify_error.empty());
  EXPECT_EQ(report.attempts[2].iter, 3);
  EXPECT_FALSE(report.attempts[2].cpd_ok);
  EXPECT_EQ(report.attempts[2].certify_error, "stress: PE 3 carries 1.5 > 1");

  const std::string text = report.to_text();
  EXPECT_NE(text.find("--- remap attempts (1 of 3 cpd-ok) ---"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("node-limit"), std::string::npos) << text;
  EXPECT_NE(text.find("iter 3 rejected by certification: stress: PE 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("seconds: 0.5000 in cpd-ok attempts, 0.3750 in the "
                      "others"),
            std::string::npos)
      << text;
  // The table rows come in emission order.
  EXPECT_LT(text.find("| 1.2500"), text.find("| 0.7500"));
  EXPECT_LT(text.find("| 0.7500"), text.find("| 1.0000"));

  const std::string json = report.to_json();
  std::string why;
  ASSERT_TRUE(test::JsonChecker::valid(json, &why)) << why << "\n" << json;
  JsonValue doc;
  ASSERT_TRUE(parse_json(json, &doc, &why)) << why;
  const JsonValue* attempts = doc.find("attempts");
  ASSERT_TRUE(attempts != nullptr && attempts->is_array());
  ASSERT_EQ(attempts->arr.size(), 3u);
  EXPECT_EQ(attempts->arr[0].num_or("st_target", -1.0), 1.25);
  EXPECT_TRUE(attempts->arr[0].bool_or("cpd_ok", false));
  EXPECT_EQ(attempts->arr[1].str_or("status", ""), "node-limit");
  EXPECT_EQ(attempts->arr[2].int_or("iter", -1), 3);
  EXPECT_EQ(attempts->arr[2].num_or("seconds", -1.0), 0.125);
  EXPECT_EQ(attempts->arr[0].find("certify_error"), nullptr);
  EXPECT_EQ(attempts->arr[1].find("certify_error"), nullptr);
  EXPECT_EQ(attempts->arr[2].str_or("certify_error", ""),
            "stress: PE 3 carries 1.5 > 1");
  const JsonValue* pipeline = doc.find("pipeline");
  ASSERT_NE(pipeline, nullptr);
  EXPECT_EQ(pipeline->num_or("remap_attempt_ok_seconds", -1.0), 0.5);
  EXPECT_EQ(pipeline->num_or("remap_attempt_failed_seconds", -1.0), 0.375);
}

TEST(Postmortem, FoldsLpKernelSeconds) {
  // Kernel seconds are optional lp.solve fields: a record without them (an
  // older log) folds as zero, and the unattributed row is seconds minus the
  // kernel sum.
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n"
      "{\"type\":\"lp.solve\",\"t\":1,\"tid\":0,\"iterations\":4,"
      "\"seconds\":2,\"factor_s\":0.5,\"ftran_s\":0.25,\"btran_s\":0.125,"
      "\"pricing_s\":0.0625,\"dse_s\":0.03125}\n"
      "{\"type\":\"lp.solve\",\"t\":2,\"tid\":0,\"iterations\":1,"
      "\"seconds\":1,\"factor_s\":0.5,\"ftran_s\":0.25,\"btran_s\":0.125,"
      "\"pricing_s\":0.0625,\"dse_s\":0.03125}\n"
      "{\"type\":\"lp.solve\",\"t\":3,\"tid\":0,\"iterations\":2,"
      "\"seconds\":1}\n";
  const PostmortemReport report = analyze_ok(jsonl);
  EXPECT_EQ(report.lp_solves, 3);
  EXPECT_EQ(report.lp_seconds, 4.0);
  EXPECT_EQ(report.lp_factor_seconds, 1.0);
  EXPECT_EQ(report.lp_ftran_seconds, 0.5);
  EXPECT_EQ(report.lp_btran_seconds, 0.25);
  EXPECT_EQ(report.lp_pricing_seconds, 0.125);
  EXPECT_EQ(report.lp_dse_seconds, 0.0625);
  EXPECT_EQ(report.lp_unattributed_seconds(), 2.0625);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("factor seconds"), std::string::npos) << text;
  EXPECT_NE(text.find("unattributed seconds"), std::string::npos) << text;
  JsonValue json;
  std::string error;
  ASSERT_TRUE(parse_json(report.to_json(), &json, &error)) << error;
  const JsonValue* lp = json.find("lp");
  ASSERT_NE(lp, nullptr);
  EXPECT_EQ(lp->num_or("factor_seconds", -1.0), 1.0);
  EXPECT_EQ(lp->num_or("unattributed_seconds", -1.0), 2.0625);

  // On a real solve the fold matches the solver's own stage stats.
  EventLog log;
  log.open_memory();
  milp::MipOptions opts;
  opts.events = &log;
  opts.num_threads = 1;
  const milp::MipResult res =
      milp::solve_milp(coupled_binary_model(11, 16), opts);
  log.close();
  const PostmortemReport real = analyze_ok(log.memory_contents());
  const milp::LpStageStats& st = res.lp_stats;
  const auto near = [](double got, double want) {
    EXPECT_NEAR(got, want, 1e-9 * (1.0 + want));
  };
  near(real.lp_factor_seconds, st.factor_seconds);
  near(real.lp_ftran_seconds, st.ftran_seconds);
  near(real.lp_btran_seconds, st.btran_seconds);
  near(real.lp_pricing_seconds, st.pricing_seconds);
  near(real.lp_dse_seconds, st.dse_seconds);
  EXPECT_GT(real.lp_factor_seconds, 0.0);
  EXPECT_GE(real.lp_unattributed_seconds(), -1e-9);
}

TEST(Metrics, JsonDumpCarriesPercentiles) {
  std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n";
  for (int i = 1; i <= 100; ++i) {
    jsonl += "{\"type\":\"bnb.node\",\"t\":1,\"tid\":0,\"lp_iters\":" +
             std::to_string(i) + "}\n";
  }
  const std::string json = analyze_ok(jsonl).to_json();
  std::string why;
  EXPECT_TRUE(test::JsonChecker::valid(json, &why)) << why << "\n" << json;
  JsonValue doc;
  ASSERT_TRUE(parse_json(json, &doc, &why)) << why;
  const JsonValue* percentiles = doc.find("percentiles");
  ASSERT_NE(percentiles, nullptr);
  const JsonValue* lp_iters = percentiles->find("bnb.node.lp_iters");
  ASSERT_NE(lp_iters, nullptr);
  EXPECT_EQ(lp_iters->int_or("count", -1), 100);
  EXPECT_EQ(lp_iters->int_or("p50", -1), 50);
  EXPECT_EQ(lp_iters->int_or("p90", -1), 90);
  EXPECT_EQ(lp_iters->int_or("p99", -1), 99);
  // A field without samples keeps its row, with a zero count.
  const JsonValue* dives = percentiles->find("twostep.solve.dive_rounds");
  ASSERT_NE(dives, nullptr);
  EXPECT_EQ(dives->int_or("count", -1), 0);
}

TEST(Metrics, SyncContentionExportIsIdempotent) {
  EventLog log;
  log.open_memory();
  Mutex mu("test.metrics.export", 99);
  { MutexLock lk(&mu); }
  { MutexLock lk(&mu); }
  log_mutex_stats(&log);
  log_mutex_stats(&log);  // a second snapshot replaces the first
  log.close();
  EXPECT_EQ(mu.stats().acquisitions, 2);

  const PostmortemReport report = analyze_ok(log.memory_contents());
  const MutexStats live = sync_mutex_stats().at("test.metrics.export");
  ASSERT_EQ(report.locks.count("test.metrics.export"), 1u);
  const MutexStats& folded = report.locks.at("test.metrics.export");
  EXPECT_EQ(folded.acquisitions, live.acquisitions);
  EXPECT_EQ(folded.contended, live.contended);
  EXPECT_EQ(folded.wait_seconds, live.wait_seconds);
  const std::string json = report.to_json();
  JsonValue doc;
  std::string why;
  ASSERT_TRUE(parse_json(json, &doc, &why)) << why;
  const JsonValue* locks = doc.find("locks");
  ASSERT_NE(locks, nullptr);
  const JsonValue* lock = locks->find("test.metrics.export");
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->int_or("acquisitions", -1), live.acquisitions);
  EXPECT_NE(lock->find("wait_seconds"), nullptr);
}

TEST(Trace, ExportIsValidChromeTraceJson) {
  EventLog log;
  log.open_memory();
  Event(&log, "a").arg("seconds", 2e-6).arg("note",
                                             "quote\" and \\backslash");
  Event(&log, "marker");
  log.close();
  // The exporter skips what it cannot parse; the analyzer reports it.
  const std::string jsonl = log.memory_contents() + "not json\n";
  const std::string json = chrome_trace(jsonl);
  std::string why;
  EXPECT_TRUE(test::JsonChecker::valid(json, &why)) << why << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);

  const std::vector<JsonValue> events = trace_events(jsonl);
  ASSERT_EQ(events.size(), 3u);  // log.header, a, marker
  EXPECT_EQ(events[0].str_or("name", ""), "log.header");
  EXPECT_EQ(events[1].str_or("name", ""), "a");
  EXPECT_EQ(events[1].str_or("ph", ""), "X");
  EXPECT_NEAR(events[1].num_or("dur", 0.0), 2.0, 1e-9);
  EXPECT_EQ(events[2].str_or("name", ""), "marker");
  EXPECT_EQ(events[2].str_or("ph", ""), "i");
}

TEST(Trace, ArgsRenderAsJsonObjectBody) {
  EventLog log;
  log.open_memory();
  Event(&log, "annotated")
      .arg("d", 1.5)
      .arg("l", 7L)
      .arg("b", true)
      .arg("s", "x\"y");
  log.close();
  const JsonValue* args = nullptr;
  const std::vector<JsonValue> events = trace_events(log.memory_contents());
  for (const JsonValue& ev : events) {
    if (ev.str_or("name", "") == "annotated") args = ev.find("args");
  }
  ASSERT_NE(args, nullptr);
  ASSERT_TRUE(args->is_object());
  // The whole record rides along: its stamp and every field, typed.
  EXPECT_EQ(args->str_or("type", ""), "annotated");
  EXPECT_NE(args->find("t"), nullptr);
  EXPECT_NE(args->find("tid"), nullptr);
  EXPECT_EQ(args->num_or("d", 0.0), 1.5);
  EXPECT_EQ(args->int_or("l", 0), 7);
  EXPECT_TRUE(args->bool_or("b", false));
  EXPECT_EQ(args->str_or("s", ""), "x\"y");
}

TEST(Trace, ThreadsGetSeparateTracks) {
  EventLog log;
  log.open_memory();
  auto work = [&log] { Event(&log, "worker").arg("seconds", 1e-6); };
  std::thread a(work), b(work);
  a.join();
  b.join();
  Event(&log, "main").arg("seconds", 1e-6);
  log.close();

  std::set<long> worker_tids;
  std::set<long> main_tids;
  for (const JsonValue& ev : trace_events(log.memory_contents())) {
    const std::string name = ev.str_or("name", "");
    if (name == "worker") worker_tids.insert(ev.int_or("tid", -1));
    if (name == "main") main_tids.insert(ev.int_or("tid", -1));
  }
  EXPECT_EQ(worker_tids.size(), 2u);
  ASSERT_EQ(main_tids.size(), 1u);
  EXPECT_EQ(worker_tids.count(*main_tids.begin()), 0u);
}

TEST(PipelineTrace, RemapEmitsPromisedSpans) {
  EventLog log;
  log.open_memory();
  const core::RemapResult res = traced_remap(&log);
  log.close();
  const std::string jsonl = log.memory_contents();
  const PostmortemReport report = analyze_ok(jsonl);

  // The Chrome view shows the remap, its attempts, Step 1, the two-step
  // solves and every LP as spans.
  std::map<std::string, long> spans;
  bool saw_end = false;
  for (const JsonValue& ev : trace_events(jsonl)) {
    if (ev.str_or("ph", "") != "X") continue;
    const std::string name = ev.str_or("name", "");
    ++spans[name];
    const JsonValue& args = *ev.find("args");  // checked by trace_events
    if (name == "remap.attempt") {
      EXPECT_NE(args.find("st_target"), nullptr);
      EXPECT_NE(args.find("status"), nullptr);
      EXPECT_NE(args.find("cpd_ok"), nullptr);
    } else if (name == "remap.end") {
      saw_end = true;
      // JsonWriter prints %.12g.
      EXPECT_NEAR(args.num_or("mttf_gain", 0.0), res.mttf_gain,
                  1e-11 * std::abs(res.mttf_gain));
      EXPECT_EQ(args.int_or("certify_rejections", -1),
                res.certify_rejections);
    }
  }
  EXPECT_TRUE(saw_end);
  EXPECT_EQ(spans["remap.end"], 1);
  EXPECT_EQ(spans["remap.attempt"], report.remap_attempts);
  EXPECT_EQ(spans["st.search_end"], report.st_searches);
  EXPECT_EQ(spans["st.probe"], 0);  // Step 1 is closed-form
  EXPECT_EQ(spans["twostep.solve"], report.twostep_solves);
  EXPECT_GE(spans["twostep.solve"], 1);
  EXPECT_EQ(spans["lp.solve"], report.lp_solves);
}

TEST(PipelineTrace, ParallelBnbWorkersGetSeparateLanes) {
  EventLog log;
  log.open_memory();
  milp::MipOptions opts;
  opts.events = &log;
  opts.num_threads = 2;
  const milp::MipResult res =
      milp::solve_milp(assignment_model(14, 6, 3), opts);
  ASSERT_TRUE(res.has_solution());
  log.close();

  // Each worker emits its node LPs on its own thread, so the trace has
  // exactly one lp.solve lane per worker that expanded a node. How many
  // did is up to the scheduler (often just one on this model); the lane
  // count must match it exactly.
  std::set<long> lanes;
  for (const JsonValue& ev : trace_events(log.memory_contents())) {
    if (ev.str_or("name", "") == "lp.solve" && ev.str_or("ph", "") == "X")
      lanes.insert(ev.int_or("tid", -1));
  }
  const long busy = std::count_if(res.nodes_per_thread.begin(),
                                  res.nodes_per_thread.end(),
                                  [](long n) { return n > 0; });
  EXPECT_GE(busy, 1);
  EXPECT_EQ(static_cast<long>(lanes.size()), busy);
}

}  // namespace
}  // namespace cgraf::obs
