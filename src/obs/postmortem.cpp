#include "obs/postmortem.h"

#include <algorithm>
#include <string_view>

#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "util/ascii.h"

namespace cgraf::obs {

namespace {

using ParseErrors = std::vector<std::pair<long, std::string>>;

// The one line-splitting loop behind analyze_events and chrome_trace: calls
// fn(line, rec) for every non-blank line that parses as a JSON object and
// records the others in *errors (when non-null) by 1-based line number.
// Returns whether the stream held any non-blank line.
template <typename Fn>
bool for_each_record(const std::string& jsonl, ParseErrors* errors,
                     const Fn& fn) {
  std::size_t pos = 0;
  long line_no = 0;
  bool any = false;
  while (pos < jsonl.size()) {
    std::size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    ++line_no;
    const std::string_view line(jsonl.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    any = true;
    JsonValue rec;
    std::string perr;
    if (!parse_json(line, &rec, &perr) || !rec.is_object()) {
      if (errors != nullptr)
        errors->emplace_back(line_no, perr.empty() ? "not an object" : perr);
      continue;
    }
    fn(line, rec);
  }
  return any;
}

// Per-record samples behind the exact percentiles.
struct Samples {
  std::vector<long> node_lp_iters;
  std::vector<long> dive_rounds;
};

PostmortemReport::Percentiles percentiles(std::vector<long>& v) {
  PostmortemReport::Percentiles p;
  p.count = static_cast<long>(v.size());
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least pct% of them at or
  // below it (integer arithmetic, so the rank is exact).
  const auto rank = [&](std::size_t pct) {
    return v[std::max<std::size_t>(1, (pct * v.size() + 99) / 100) - 1];
  };
  p.p50 = rank(50);
  p.p90 = rank(90);
  p.p99 = rank(99);
  return p;
}

void fold_record(const JsonValue& rec, PostmortemReport& r, Samples& s) {
  const std::string type = rec.str_or("type", "");
  ++r.records_by_type[type];
  const double t_us = rec.num_or("t", 0.0);

  if (type == "log.header") {
    r.have_header = true;
    r.schema = rec.int_or("schema", 0);
    r.git_sha = rec.str_or("git_sha", "");
    r.compiler = rec.str_or("compiler", "");
    return;
  }
  if (type == "lp.solve") {
    ++r.lp_solves;
    r.lp_iterations += rec.int_or("iterations", 0);
    r.lp_phase1_iterations += rec.int_or("phase1_iterations", 0);
    r.lp_dual_iterations += rec.int_or("dual_iterations", 0);
    r.lp_bound_flips += rec.int_or("bound_flips", 0);
    r.lp_refactorizations += rec.int_or("refactorizations", 0);
    r.lp_dual_fallbacks += rec.int_or("dual_fallbacks", 0);
    if (rec.bool_or("warm_used", false)) ++r.lp_warm_used;
    if (rec.bool_or("dual_used", false)) ++r.lp_dual_used;
    r.lp_seconds += rec.num_or("seconds", 0.0);
    r.lp_factor_seconds += rec.num_or("factor_s", 0.0);
    r.lp_ftran_seconds += rec.num_or("ftran_s", 0.0);
    r.lp_btran_seconds += rec.num_or("btran_s", 0.0);
    r.lp_pricing_seconds += rec.num_or("pricing_s", 0.0);
    r.lp_dse_seconds += rec.num_or("dse_s", 0.0);
    return;
  }
  if (type == "bnb.begin") {
    ++r.bnb_solves;
    return;
  }
  if (type == "bnb.node") {
    ++r.bnb_nodes;
    const long iters = rec.int_or("lp_iters", 0);
    r.bnb_node_lp_iters += iters;
    s.node_lp_iters.push_back(iters);
    const int depth = static_cast<int>(rec.int_or("depth", 0));
    const std::string action = rec.str_or("action", "?");
    ++r.node_actions[action];
    PostmortemReport::DepthRow& row = r.by_depth[depth];
    ++row.nodes;
    row.lp_iters += iters;
    if (action == "branch") ++row.branches;
    else if (action == "prune") ++row.prunes;
    else if (action == "integral" || action == "stop") ++row.integrals;
    else if (action == "infeasible") ++row.infeasibles;
    return;
  }
  if (type == "bnb.incumbent") {
    r.incumbents.push_back({t_us, rec.int_or("seq", 0),
                            rec.num_or("obj", 0.0)});
    return;
  }
  if (type == "bnb.pool_prune") {
    ++r.bnb_pool_prunes;
    r.bnb_pool_dropped += rec.int_or("dropped", 0);
    return;
  }
  if (type == "probe.solve") {
    ++r.probes;
    PostmortemReport::Probe p;
    p.t_us = t_us;
    p.target = rec.num_or("target", 0.0);
    p.mode = rec.str_or("mode", "?");
    p.status = rec.str_or("status", "?");
    p.warm_hit = rec.bool_or("warm_hit", false);
    p.fallback = rec.bool_or("fallback", false);
    p.lp_iterations = rec.int_or("lp_iterations", 0);
    p.seconds = rec.num_or("seconds", 0.0);
    if (p.warm_hit) ++r.probe_warm_hits;
    if (p.fallback) ++r.probe_fallbacks;
    if (rec.bool_or("rebuild", false)) ++r.probe_rebuilds;
    if (rec.bool_or("patch", false)) ++r.probe_patches;
    if (rec.bool_or("certify_rejected", false)) ++r.solution_rejections;
    r.probe_chain.push_back(std::move(p));
    return;
  }
  if (type == "st.search_end") {
    ++r.st_searches;
    return;
  }
  if (type == "twostep.solve") {
    ++r.twostep_solves;
    if (rec.bool_or("certify_rejected", false)) ++r.solution_rejections;
    const long rounds = rec.int_or("dive_rounds", 0);
    if (rounds > 0) s.dive_rounds.push_back(rounds);
    return;
  }
  if (type == "remap.end") {
    ++r.remap_runs;
    r.floorplan_rejections += rec.int_or("certify_rejections", 0);
    return;
  }
  if (type == "remap.attempt") {
    ++r.remap_attempts;
    PostmortemReport::Attempt a;
    a.t_us = t_us;
    a.iter = rec.int_or("iter", 0);
    a.st_target = rec.num_or("st_target", 0.0);
    a.strategy = rec.str_or("strategy", "?");
    a.status = rec.str_or("status", "?");
    a.cpd_ok = rec.bool_or("cpd_ok", false);
    a.seconds = rec.num_or("seconds", 0.0);
    a.certify_error = rec.str_or("certify_error", "");
    if (a.cpd_ok) {
      ++r.remap_attempts_cpd_ok;
      r.remap_attempt_ok_seconds += a.seconds;
    } else {
      r.remap_attempt_failed_seconds += a.seconds;
    }
    r.attempts.push_back(std::move(a));
    return;
  }
  if (type == "ls.search") {
    ++r.ls_searches;
    r.ls_moves_examined += rec.int_or("examined", 0);
    r.ls_moves_accepted += rec.int_or("accepted", 0);
    r.ls_oracle_calls += rec.int_or("oracle_calls", 0);
    r.ls_oracle_rejections += rec.int_or("oracle_rejections", 0);
    r.ls_start_repairs += rec.int_or("start_repairs", 0);
    return;
  }
  if (type == "portfolio.result") {
    ++r.portfolio_races;
    const std::string winner = rec.str_or("winner", "");
    if (winner == "exact") ++r.portfolio_exact_wins;
    if (winner == "ls") ++r.portfolio_ls_wins;
    return;
  }
  if (type == "sync.mutex") {
    // Process-wide snapshots: a later record for a name supersedes it.
    MutexStats& m = r.locks[rec.str_or("name", "?")];
    m.acquisitions = rec.int_or("acquisitions", 0);
    m.contended = rec.int_or("contended", 0);
    m.wait_seconds = rec.num_or("wait_seconds", 0.0);
    return;
  }
  // st.search_begin / remap.begin / bnb.end and unknown types:
  // counted in records_by_type only.
}

std::string fmt_long(long v) { return std::to_string(v); }

std::string fmt_pct(long part, long whole) {
  if (whole <= 0) return "-";
  return fmt_double(100.0 * static_cast<double>(part) /
                        static_cast<double>(whole),
                    1) +
         "%";
}

void add_percentile_row(AsciiTable& t, const char* field,
                        const PostmortemReport::Percentiles& p) {
  if (p.count == 0) {
    t.add_row({field, "0", "-", "-", "-"});
    return;
  }
  t.add_row({field, fmt_long(p.count), fmt_long(p.p50), fmt_long(p.p90),
             fmt_long(p.p99)});
}

void write_percentiles(JsonWriter& w, const char* field,
                       const PostmortemReport::Percentiles& p) {
  w.key(field)
      .begin_object()
      .field("count", p.count)
      .field("p50", p.p50)
      .field("p90", p.p90)
      .field("p99", p.p99)
      .end_object();
}

}  // namespace

bool analyze_events(const std::string& jsonl, PostmortemReport* report,
                    std::string* error) {
  *report = PostmortemReport();
  PostmortemReport& r = *report;
  Samples samples;
  const bool any = for_each_record(
      jsonl, &r.parse_errors, [&](std::string_view, const JsonValue& rec) {
        ++r.total_records;
        fold_record(rec, r, samples);
      });
  r.node_lp_iters = percentiles(samples.node_lp_iters);
  r.dive_rounds = percentiles(samples.dive_rounds);

  if (!any) {
    if (error != nullptr) *error = "empty event stream";
    return false;
  }
  if (r.have_header && r.schema > kEventLogSchemaVersion) {
    if (error != nullptr) {
      *error = "event log schema " + std::to_string(r.schema) +
               " is newer than supported " +
               std::to_string(kEventLogSchemaVersion);
    }
    return false;
  }
  return true;
}

std::string chrome_trace(const std::string& jsonl) {
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for_each_record(
      jsonl, nullptr, [&](std::string_view line, const JsonValue& rec) {
        const double t = rec.num_or("t", 0.0);
        const JsonValue* seconds = rec.find("seconds");
        w.begin_object()
            .field("name", rec.str_or("type", "?"))
            .field("pid", 1L)
            .field("tid", rec.int_or("tid", 0));
        if (seconds != nullptr && seconds->is_number()) {
          const double dur = 1e6 * seconds->num;
          w.field("ph", "X").field("ts", t - dur).field("dur", dur);
        } else {
          w.field("ph", "i").field("s", "t").field("ts", t);
        }
        w.key("args").raw(line).end_object();
      });
  w.end_array().field("displayTimeUnit", "ms").end_object();
  return w.str();
}

std::string PostmortemReport::to_text() const {
  std::string out;
  out += "=== solve-event log post-mortem ===\n";
  if (have_header) {
    out += "schema " + std::to_string(schema) + " | git " +
           (git_sha.empty() ? "unknown" : git_sha.substr(0, 12)) + " | " +
           compiler + "\n";
  } else {
    out += "(no log.header record)\n";
  }
  out += "records: " + std::to_string(total_records);
  if (!parse_errors.empty()) {
    out += " (" + std::to_string(parse_errors.size()) + " unparseable)";
  }
  out += "\n\n";

  {
    AsciiTable t({"record type", "count"});
    for (const auto& [type, count] : records_by_type) {
      t.add_row({type, fmt_long(count)});
    }
    out += t.render();
    out += "\n";
  }

  out += "--- LP engine (" + fmt_long(lp_solves) + " solves) ---\n";
  {
    AsciiTable t({"metric", "total"});
    t.add_row({"iterations", fmt_long(lp_iterations)});
    t.add_row({"phase1 iterations", fmt_long(lp_phase1_iterations)});
    t.add_row({"dual iterations", fmt_long(lp_dual_iterations)});
    t.add_row({"bound flips", fmt_long(lp_bound_flips)});
    t.add_row({"refactorizations", fmt_long(lp_refactorizations)});
    t.add_row({"dual fallbacks", fmt_long(lp_dual_fallbacks)});
    t.add_row({"warm-started solves",
               fmt_long(lp_warm_used) + " (" +
                   fmt_pct(lp_warm_used, lp_solves) + ")"});
    t.add_row({"dual-loop solves",
               fmt_long(lp_dual_used) + " (" +
                   fmt_pct(lp_dual_used, lp_solves) + ")"});
    t.add_row({"seconds", fmt_double(lp_seconds, 4)});
    t.add_row({"  factor seconds", fmt_double(lp_factor_seconds, 4)});
    t.add_row({"  ftran seconds", fmt_double(lp_ftran_seconds, 4)});
    t.add_row({"  btran seconds", fmt_double(lp_btran_seconds, 4)});
    t.add_row({"  pricing seconds", fmt_double(lp_pricing_seconds, 4)});
    t.add_row({"  dse seconds", fmt_double(lp_dse_seconds, 4)});
    t.add_row({"  unattributed seconds",
               fmt_double(lp_unattributed_seconds(), 4)});
    out += t.render();
    out += "\n";
  }

  if (bnb_solves > 0 || bnb_nodes > 0) {
    out += "--- branch & bound (" + fmt_long(bnb_solves) + " solves, " +
           fmt_long(bnb_nodes) + " nodes) ---\n";
    AsciiTable t({"depth", "nodes", "lp iters", "branch", "prune",
                  "integral", "infeas"});
    for (const auto& [depth, row] : by_depth) {
      t.add_row({fmt_long(depth), fmt_long(row.nodes),
                 fmt_long(row.lp_iters), fmt_long(row.branches),
                 fmt_long(row.prunes), fmt_long(row.integrals),
                 fmt_long(row.infeasibles)});
    }
    out += t.render();
    const long pruned_total =
        node_actions.count("prune") ? node_actions.at("prune") : 0;
    out += "pruning: " + fmt_long(pruned_total) + " node prunes, " +
           fmt_long(bnb_pool_prunes) + " pool prunes dropping " +
           fmt_long(bnb_pool_dropped) + " queued nodes (" +
           fmt_pct(bnb_pool_dropped,
                   bnb_nodes + bnb_pool_dropped) +
           " of discovered work avoided an LP)\n";
    if (!incumbents.empty()) {
      out += "incumbent timeline:\n";
      AsciiTable inc({"t (ms)", "node seq", "objective"});
      for (const auto& i : incumbents) {
        inc.add_row({fmt_double(i.t_us / 1e3, 3), fmt_long(i.seq),
                     fmt_double(i.obj, 6)});
      }
      out += inc.render();
    }
    out += "\n";
  }

  if (probes > 0) {
    out += "--- probe chain (" + fmt_long(probes) + " probes) ---\n";
    AsciiTable t({"metric", "value"});
    t.add_row({"warm hits",
               fmt_long(probe_warm_hits) + " (" +
                   fmt_pct(probe_warm_hits, probes) + ")"});
    t.add_row({"basis fallbacks", fmt_long(probe_fallbacks)});
    t.add_row({"model rebuilds", fmt_long(probe_rebuilds)});
    t.add_row({"RHS patches", fmt_long(probe_patches)});
    out += t.render();
    AsciiTable chain({"t (ms)", "target", "mode", "status", "warm",
                      "lp iters", "sec"});
    for (const auto& p : probe_chain) {
      chain.add_row({fmt_double(p.t_us / 1e3, 3), fmt_double(p.target, 4),
                     p.mode, p.status, p.warm_hit ? "yes" : "no",
                     fmt_long(p.lp_iterations), fmt_double(p.seconds, 4)});
    }
    out += chain.render();
    out += "\n";
  }

  if (!attempts.empty()) {
    out += "--- remap attempts (" + fmt_long(remap_attempts_cpd_ok) +
           " of " + fmt_long(remap_attempts) + " cpd-ok) ---\n";
    AsciiTable t({"t (ms)", "iter", "st_target", "strategy", "status",
                  "cpd ok", "sec"});
    for (const Attempt& a : attempts) {
      t.add_row({fmt_double(a.t_us / 1e3, 3), fmt_long(a.iter),
                 fmt_double(a.st_target, 4), a.strategy, a.status,
                 a.cpd_ok ? "yes" : "no", fmt_double(a.seconds, 4)});
    }
    out += t.render();
    for (const Attempt& a : attempts) {
      if (!a.certify_error.empty()) {
        out += "iter " + fmt_long(a.iter) +
               " rejected by certification: " + a.certify_error + "\n";
      }
    }
    out += "seconds: " + fmt_double(remap_attempt_ok_seconds, 4) +
           " in cpd-ok attempts, " +
           fmt_double(remap_attempt_failed_seconds, 4) + " in the others\n\n";
  }

  if (remap_runs > 0 || remap_attempts > 0 || st_searches > 0 ||
      twostep_solves > 0 || probes > 0 || ls_searches > 0 ||
      portfolio_races > 0) {
    out += "--- pipeline ---\n";
    AsciiTable t({"metric", "count"});
    t.add_row({"st_target searches", fmt_long(st_searches)});
    t.add_row({"two-step solves", fmt_long(twostep_solves)});
    t.add_row({"solution rejections", fmt_long(solution_rejections)});
    t.add_row({"floorplan rejections", fmt_long(floorplan_rejections)});
    t.add_row({"remap runs", fmt_long(remap_runs)});
    t.add_row({"remap attempts",
               fmt_long(remap_attempts) + " (" +
                   fmt_long(remap_attempts_cpd_ok) + " cpd-ok)"});
    if (ls_searches > 0) {
      t.add_row({"ls searches",
                 fmt_long(ls_searches) + " (" +
                     fmt_long(ls_moves_accepted) + "/" +
                     fmt_long(ls_moves_examined) + " moves, " +
                     fmt_long(ls_oracle_calls) + " oracle calls, " +
                     fmt_long(ls_oracle_rejections) + " oracle-rejected, " +
                     fmt_long(ls_start_repairs) + " start repairs)"});
    }
    if (portfolio_races > 0) {
      t.add_row({"portfolio races",
                 fmt_long(portfolio_races) + " (" +
                     fmt_long(portfolio_exact_wins) + " exact, " +
                     fmt_long(portfolio_ls_wins) + " ls)"});
    }
    out += t.render();
    out += "\n";
  }

  if (node_lp_iters.count > 0 || dive_rounds.count > 0) {
    out += "--- percentiles (exact) ---\n";
    AsciiTable t({"record field", "count", "p50", "p90", "p99"});
    add_percentile_row(t, "bnb.node lp_iters", node_lp_iters);
    add_percentile_row(t, "twostep.solve dive_rounds", dive_rounds);
    out += t.render();
    out += "\n";
  }

  if (!locks.empty()) {
    out += "--- locks (sync.mutex) ---\n";
    AsciiTable t({"mutex", "acquisitions", "contended", "wait s"});
    for (const auto& [name, m] : locks) {
      t.add_row({name, fmt_long(m.acquisitions),
                 fmt_long(m.contended) + " (" +
                     fmt_pct(m.contended, m.acquisitions) + ")",
                 fmt_double(m.wait_seconds, 6)});
    }
    out += t.render();
  }
  return out;
}

std::string PostmortemReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schema);
  w.field("git_sha", git_sha);
  w.field("compiler", compiler);
  w.field("total_records", total_records);
  w.field("parse_errors", static_cast<long>(parse_errors.size()));

  w.key("records_by_type").begin_object();
  for (const auto& [type, count] : records_by_type) w.field(type, count);
  w.end_object();

  w.key("lp").begin_object();
  w.field("solves", lp_solves);
  w.field("iterations", lp_iterations);
  w.field("phase1_iterations", lp_phase1_iterations);
  w.field("dual_iterations", lp_dual_iterations);
  w.field("bound_flips", lp_bound_flips);
  w.field("refactorizations", lp_refactorizations);
  w.field("dual_fallbacks", lp_dual_fallbacks);
  w.field("warm_used", lp_warm_used);
  w.field("dual_used", lp_dual_used);
  w.field("seconds", lp_seconds);
  w.field("factor_seconds", lp_factor_seconds);
  w.field("ftran_seconds", lp_ftran_seconds);
  w.field("btran_seconds", lp_btran_seconds);
  w.field("pricing_seconds", lp_pricing_seconds);
  w.field("dse_seconds", lp_dse_seconds);
  w.field("unattributed_seconds", lp_unattributed_seconds());
  w.end_object();

  w.key("bnb").begin_object();
  w.field("solves", bnb_solves);
  w.field("nodes", bnb_nodes);
  w.field("node_lp_iterations", bnb_node_lp_iters);
  w.field("pool_prunes", bnb_pool_prunes);
  w.field("pool_dropped", bnb_pool_dropped);
  w.key("actions").begin_object();
  for (const auto& [action, count] : node_actions) w.field(action, count);
  w.end_object();
  w.key("by_depth").begin_array();
  for (const auto& [depth, row] : by_depth) {
    w.begin_object();
    w.field("depth", static_cast<long>(depth));
    w.field("nodes", row.nodes);
    w.field("lp_iterations", row.lp_iters);
    w.field("branches", row.branches);
    w.field("prunes", row.prunes);
    w.field("integrals", row.integrals);
    w.field("infeasibles", row.infeasibles);
    w.end_object();
  }
  w.end_array();
  w.key("incumbents").begin_array();
  for (const auto& i : incumbents) {
    w.begin_object();
    w.field("t_us", i.t_us);
    w.field("seq", i.seq);
    w.field("obj", i.obj);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("probes").begin_object();
  w.field("count", probes);
  w.field("warm_hits", probe_warm_hits);
  w.field("basis_fallbacks", probe_fallbacks);
  w.field("model_rebuilds", probe_rebuilds);
  w.field("patches", probe_patches);
  w.key("chain").begin_array();
  for (const auto& p : probe_chain) {
    w.begin_object();
    w.field("t_us", p.t_us);
    w.field("target", p.target);
    w.field("mode", p.mode);
    w.field("status", p.status);
    w.field("warm_hit", p.warm_hit);
    w.field("fallback", p.fallback);
    w.field("lp_iterations", p.lp_iterations);
    w.field("seconds", p.seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("attempts").begin_array();
  for (const Attempt& a : attempts) {
    w.begin_object();
    w.field("t_us", a.t_us);
    w.field("iter", a.iter);
    w.field("st_target", a.st_target);
    w.field("strategy", a.strategy);
    w.field("status", a.status);
    w.field("cpd_ok", a.cpd_ok);
    w.field("seconds", a.seconds);
    if (!a.certify_error.empty()) w.field("certify_error", a.certify_error);
    w.end_object();
  }
  w.end_array();

  w.key("pipeline").begin_object();
  w.field("st_searches", st_searches);
  w.field("twostep_solves", twostep_solves);
  w.field("remap_runs", remap_runs);
  w.field("remap_attempts", remap_attempts);
  w.field("remap_attempts_cpd_ok", remap_attempts_cpd_ok);
  w.field("remap_attempt_ok_seconds", remap_attempt_ok_seconds);
  w.field("remap_attempt_failed_seconds", remap_attempt_failed_seconds);
  w.field("ls_searches", ls_searches);
  w.field("ls_moves_examined", ls_moves_examined);
  w.field("ls_moves_accepted", ls_moves_accepted);
  w.field("ls_oracle_calls", ls_oracle_calls);
  w.field("ls_oracle_rejections", ls_oracle_rejections);
  w.field("ls_start_repairs", ls_start_repairs);
  w.field("portfolio_races", portfolio_races);
  w.field("portfolio_exact_wins", portfolio_exact_wins);
  w.field("portfolio_ls_wins", portfolio_ls_wins);
  w.field("solution_rejections", solution_rejections);
  w.field("floorplan_rejections", floorplan_rejections);
  w.end_object();

  w.key("percentiles").begin_object();
  write_percentiles(w, "bnb.node.lp_iters", node_lp_iters);
  write_percentiles(w, "twostep.solve.dive_rounds", dive_rounds);
  w.end_object();

  w.key("locks").begin_object();
  for (const auto& [name, m] : locks) {
    w.key(name)
        .begin_object()
        .field("acquisitions", m.acquisitions)
        .field("contended", m.contended)
        .field("wait_seconds", m.wait_seconds)
        .end_object();
  }
  w.end_object();

  w.end_object();
  return w.str();
}

}  // namespace cgraf::obs
