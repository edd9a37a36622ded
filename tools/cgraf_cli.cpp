// cgraf_cli — drive the floorplanner from the command line.
//
//   cgraf_cli gen    --contexts 8 --dim 6 --usage 0.5 --seed 7 --out d.cgraf
//   cgraf_cli gen    --spec B13 --out d.cgraf          (Table I suite entry)
//   cgraf_cli place  --design d.cgraf --seed 1 --out base.fp
//   cgraf_cli remap  --design d.cgraf --floorplan base.fp
//                    --mode rotate --out aged.fp
//   cgraf_cli report --design d.cgraf --floorplan base.fp [--compare aged.fp]
//   cgraf_cli lint    --design d.cgraf --floorplan base.fp [--json]
//   cgraf_cli certify --design d.cgraf --baseline base.fp
//                     --floorplan aged.fp [--st-target X] [--json]
//   cgraf_cli analyze events.jsonl [--json] [--chrome-trace t.json]
//                     (post-mortem of --log-events; Chrome trace view)
//
// Every artifact is the text format of cgrra/io.h, so the steps compose
// with shell pipelines and with hand-edited fixtures.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "aging/mechanisms.h"
#include "cgrra/io.h"
#include "core/analysis.h"
#include "cgrra/stress.h"
#include "core/remapper.h"
#include "core/report.h"
#include "hls/placer.h"
#include "verify/certify.h"
#include "verify/input_lint.h"
#include "verify/model_lint.h"
#include "obs/event_log.h"
#include "obs/postmortem.h"
#include "obs/progress.h"
#include "timing/sta.h"
#include "util/ascii.h"
#include "workloads/suite.h"

namespace {

using namespace cgraf;

int usage(int code = 2) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: cgraf_cli <gen|place|remap|report|lint|certify|analyze>"
               " [options]\n"
               "  gen    --out FILE  [--spec B1..B27 | --contexts N --dim D"
               " --usage U] [--seed S] [--paper-scale]\n"
               "  place  --design FILE --out FILE [--seed S]\n"
               "  remap  --design FILE --floorplan FILE --out FILE"
               " [--mode freeze|rotate] [--margin F] [--seed S]\n"
               "         [--strategy dive|fix-once|ilp|ls|portfolio]"
               " [--ls-seed S] [--ls-iters N] [--threads N]"
               " [--warm-probes on|off]\n"
               "         [--verbose]\n"
               "  report --design FILE --floorplan FILE [--compare FILE]\n"
               "  lint   --design FILE --floorplan FILE [--st-target X]"
               " [--margin F] [--json] [--no-info]\n"
               "         static analysis of the formulation-(3) model built"
               " for this design/floorplan\n"
               "  lint   --inputs --design FILE [--floorplan FILE] [--json]"
               " [--no-info]\n"
               "         data-model lint (DL rules) of the raw inputs;"
               " no model is built\n"
               "  certify --design FILE --baseline FILE --floorplan FILE\n"
               "         [--st-target X] [--margin F] [--mode freeze|rotate]"
               " [--json]\n"
               "         independently re-validate a remapped floorplan"
               " (exit 0 = certified)\n"
               "  analyze EVENTS.jsonl [--json] [--chrome-trace FILE]\n"
               "         post-mortem of a --log-events stream: B&B tree,"
               " LP totals, probe chain,\n"
               "         certificate rejections, percentiles, lock table;"
               " --chrome-trace writes the\n"
               "         stream as Chrome trace-event JSON"
               " (chrome://tracing, Perfetto)\n"
               "observability (every command but analyze):\n"
               "  --log-events FILE write structured solve events as JSONL"
               " (see `analyze`)\n"
               "  --progress        rate-limited progress heartbeats on"
               " stderr\n"
               "  --help            show this message\n");
  return code;
}

// Boolean switches (no value); everything else consumes the next argv.
bool is_switch(const std::string& key) {
  return key == "paper-scale" || key == "verbose" || key == "progress" ||
         key == "help" || key == "json" || key == "no-info" ||
         key == "inputs";
}

// Minimal flag parser: every option takes a value except boolean switches.
struct Args {
  std::map<std::string, std::string> values;
  bool ok = true;
  std::string problem;

  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        ok = false;
        problem = "expected an option, got '" + key + "'";
        return;
      }
      key = key.substr(2);
      if (is_switch(key)) {
        // insert_or_assign with a ready-made string: assigning a char* via
        // operator[] trips gcc 12's -Wrestrict false positive at -O2.
        values.insert_or_assign(key, std::string("1"));
      } else if (i + 1 < argc) {
        values.insert_or_assign(key, std::string(argv[++i]));
      } else {
        ok = false;
        problem = "option --" + key + " needs a value";
        return;
      }
    }
  }

  // Rejects flags outside the command's allowed set so typos fail loudly
  // instead of being silently ignored. The observability flags are legal
  // with every command that runs the solver, i.e. all but analyze.
  bool check_allowed(std::set<std::string> allowed,
                     bool observability = true) {
    allowed.insert("help");
    if (observability) allowed.insert({"log-events", "progress"});
    for (const auto& [key, value] : values) {
      if (allowed.count(key) == 0) {
        ok = false;
        problem = "unknown option --" + key;
        return false;
      }
    }
    return true;
  }
  std::optional<std::string> get(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? std::nullopt
                              : std::optional<std::string>(it->second);
  }
  std::string get_or(const std::string& key, const std::string& dflt) const {
    return get(key).value_or(dflt);
  }
  bool has(const std::string& key) const { return values.count(key) > 0; }
};

// Strict numeric flag parsing (atoi/atof read a typo like "0.2x" as 0.2 or
// garbage as 0; cert-err34-c). nullopt on anything but a complete number,
// and for an integer on one outside [lo, hi].
std::optional<long> parse_long_arg(const std::string& s, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi)
    return std::nullopt;
  return v;
}

std::optional<double> parse_double_arg(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

// Seeds are digits only: strtoull alone negates "-1" into 2^64-1 and skips
// leading blanks.
std::optional<std::uint64_t> parse_seed(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return v;
}

// Reads option `key` if it was given. `parse` returns nullopt for a
// malformed or out-of-range value; then the problem is printed and false
// returned, so the command exits 1 before it loads or writes anything. An
// absent option leaves *out, the caller's default, as it is.
template <typename T, typename Parse>
bool read_option(const Args& args, const std::string& key, T* out,
                 const std::string& expected, Parse parse) {
  const auto text = args.get(key);
  if (!text) return true;
  const auto v = parse(*text);
  if (!v) {
    std::fprintf(stderr, "invalid --%s '%s': expected %s\n", key.c_str(),
                 text->c_str(), expected.c_str());
    return false;
  }
  *out = static_cast<T>(*v);
  return true;
}

// An integer option in [lo, hi], range-checked before it is narrowed to T.
template <typename T>
bool read_int(const Args& args, const std::string& key, T* out, long lo,
              long hi) {
  return read_option(
      args, key, out,
      "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]",
      [&](const std::string& text) { return parse_long_arg(text, lo, hi); });
}

bool read_seed(const Args& args, const std::string& key, std::uint64_t* out) {
  return read_option(args, key, out, "an unsigned 64-bit integer",
                     parse_seed);
}

// --margin is the monitored-path slack fraction, which
// timing::monitored_paths requires in [0, 1). NaN fails both comparisons.
bool read_margin(const Args& args, double* out) {
  return read_option(args, "margin", out, "a number in [0, 1)",
                     [](const std::string& text) {
                       const auto v = parse_double_arg(text);
                       return v && *v >= 0.0 && *v < 1.0 ? v : std::nullopt;
                     });
}

// --st-target must be a finite, non-negative stress bound: the certifier
// reads a negative one as "no check", and neither NaN nor inf bounds
// anything.
bool read_st_target(const Args& args, std::optional<double>* out) {
  return read_option(args, "st-target", out, "a finite number >= 0",
                     [](const std::string& text) {
                       const auto v = parse_double_arg(text);
                       return v && std::isfinite(*v) && *v >= 0.0
                                  ? v
                                  : std::nullopt;
                     });
}

// Both loaders run the DL input-lint acceptance (verify/input_lint.h), so
// garbage is rejected with a stable rule ID before any model is built.
std::optional<Design> load_design(const Args& args, std::string* error) {
  const auto path = args.get("design");
  if (!path) {
    *error = "--design is required";
    return std::nullopt;
  }
  const auto text = read_file(*path, error);
  if (!text) return std::nullopt;
  return verify::accept_design_text(*text, error);
}

std::optional<Floorplan> load_floorplan(const Args& args, const Design& design,
                                        const std::string& key,
                                        std::string* error) {
  const auto path = args.get(key);
  if (!path) {
    *error = "--" + key + " is required";
    return std::nullopt;
  }
  const auto text = read_file(*path, error);
  if (!text) return std::nullopt;
  return verify::accept_floorplan_text(design, *text, error);
}

int cmd_gen(const Args& args) {
  const auto out = args.get("out");
  if (!out) return usage();
  workloads::BenchmarkSpec spec;
  if (const auto name = args.get("spec")) {
    bool found = false;
    for (const auto& s :
         workloads::table1_specs(args.has("paper-scale"))) {
      if (s.name == *name) {
        spec = s;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown suite spec '%s' (use B1..B27)\n",
                   name->c_str());
      return 1;
    }
  } else {
    // Range-checked before narrowing, against the ceilings every loader's
    // input lint enforces, so gen writes no context count or fabric size
    // that the other commands reject. The fabric is dim x dim PEs.
    const verify::InputLintOptions limits;
    const long max_dim = static_cast<long>(std::sqrt(limits.max_fabric_pes));
    spec.name = "custom";
    spec.usage = 0.5;
    if (!read_int(args, "contexts", &spec.contexts, 1, limits.max_contexts) ||
        !read_int(args, "dim", &spec.fabric_dim, 1, max_dim) ||
        !read_option(args, "usage", &spec.usage, "a number in (0, 1]",
                     [](const std::string& text) {
                       const auto v = parse_double_arg(text);
                       return v && *v > 0.0 && *v <= 1.0 ? v : std::nullopt;
                     }))
      return 1;
  }
  if (!read_seed(args, "seed", &spec.seed)) return 1;
  const auto bench = workloads::generate_benchmark(spec);
  std::string error;
  if (!write_file(*out, to_text(bench.design), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s: %d contexts, %dx%d fabric, %d ops\n", out->c_str(),
              bench.design.num_contexts, bench.design.fabric.rows(),
              bench.design.fabric.cols(), bench.total_ops);
  return 0;
}

int cmd_place(const Args& args) {
  hls::PlacerOptions opts;
  if (!read_seed(args, "seed", &opts.seed)) return 1;
  std::string error;
  const auto design = load_design(args, &error);
  const auto out = args.get("out");
  if (!design || !out) {
    std::fprintf(stderr, "%s\n", error.empty() ? "--out is required"
                                               : error.c_str());
    return 1;
  }
  const Floorplan fp = place_baseline(*design, opts);
  if (!write_file(*out, to_text(fp), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto sta = timing::run_sta(*design, fp);
  const StressMap stress = compute_stress(*design, fp);
  std::printf("wrote %s: cpd=%.3f ns, max stress=%.3f, avg=%.3f\n",
              out->c_str(), sta.cpd_ns, stress.max_accumulated(),
              stress.avg_accumulated());
  return 0;
}

int cmd_remap(const Args& args) {
  core::RemapOptions opts;
  const std::string mode = args.get_or("mode", "rotate");
  if (mode == "freeze") opts.mode = core::RemapMode::kFreeze;
  else if (mode == "rotate") opts.mode = core::RemapMode::kRotate;
  else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 1;
  }
  if (!read_margin(args, &opts.path_margin) ||
      !read_seed(args, "seed", &opts.seed) ||
      // Local-search knobs (meaningful for the ls and portfolio strategies).
      !read_seed(args, "ls-seed", &opts.ls.seed) ||
      !read_int(args, "ls-iters", &opts.ls.max_iters, 1, INT_MAX) ||
      // `--threads 0` means all hardware threads.
      !read_int(args, "threads", &opts.solver.mip.num_threads, 0, 4096))
    return 1;
  opts.verbose = args.has("verbose");
  // Every floorplan the CLI writes carries the independent certificate.
  opts.verify.enabled = true;
  // Solve strategy, resolved through the one shared table
  // (core/strategy.h): exact rounding modes, the local-search heuristic,
  // or the portfolio race. `--strategy ilp --threads N` forces every
  // attempt through the parallel branch & bound, so the trace shows one
  // lane per worker.
  const std::string strategy = args.get_or("strategy", "dive");
  const core::StrategyInfo* sinfo = core::parse_strategy(strategy);
  if (sinfo == nullptr) {
    std::fprintf(stderr, "unknown --strategy '%s' (%s)\n", strategy.c_str(),
                 core::strategy_cli_values().c_str());
    return 1;
  }
  opts.strategy = sinfo->strategy;
  // Escape hatch for the incremental probe sessions: `--warm-probes off`
  // forces the legacy full-rebuild cold solve per attempt. Results are
  // identical either way; off trades speed for a simpler solve path when
  // triaging a suspect run.
  const std::string warm = args.get_or("warm-probes", "on");
  if (warm == "on") {
    opts.warm_probes = true;
  } else if (warm == "off") {
    opts.warm_probes = false;
  } else {
    std::fprintf(stderr, "unknown --warm-probes '%s' (on|off)\n",
                 warm.c_str());
    return 1;
  }

  std::string error;
  const auto design = load_design(args, &error);
  if (!design) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto baseline = load_floorplan(args, *design, "floorplan", &error);
  const auto out = args.get("out");
  if (!baseline || !out) {
    std::fprintf(stderr, "%s\n", error.empty() ? "--out is required"
                                               : error.c_str());
    return 1;
  }
  std::string why;
  if (!is_valid(*design, *baseline, &why)) {
    std::fprintf(stderr, "input floorplan invalid: %s\n", why.c_str());
    return 1;
  }
  // --log-events: hand the pipeline the process-wide event log; the
  // remapper propagates the pointer down to the ST search, probe sessions
  // and every LP/B&B solve. A disabled log costs nothing here.
  if (obs::EventLog::global().enabled())
    opts.solver.events = &obs::EventLog::global();

  const core::RemapResult result =
      aging_aware_remap(*design, *baseline, opts);
  if (!write_file(*out, to_text(result.floorplan), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out->c_str());
  if (args.has("verbose")) {
    // The last solve's counters, including how much of the LP work the
    // dual loop carried on warm re-solves.
    std::printf("%s", core::format_solver_stats(result.last_solve).c_str());
  }
  std::printf("strategy: %s", core::to_string(opts.strategy));
  if (result.portfolio_races > 0) {
    std::printf(" | races: %d (exact %d, ls %d, seeded %d)",
                result.portfolio_races, result.portfolio_exact_wins,
                result.portfolio_ls_wins, result.portfolio_seeded);
  }
  if (result.ls_stats.restarts_run > 0) {
    std::printf(" | ls: %ld/%ld moves, %ld oracle calls",
                result.ls_stats.moves_accepted,
                result.ls_stats.moves_examined, result.ls_stats.oracle_calls);
    if (result.ls_stats.start_repairs > 0)
      std::printf(", %ld start repairs", result.ls_stats.start_repairs);
  }
  std::printf("\n");
  std::printf("cpd: %.3f -> %.3f ns | max stress: %.3f -> %.3f | "
              "MTTF: %.2f -> %.2f years (%.2fx)\n",
              result.cpd_before_ns, result.cpd_after_ns, result.st_max_before,
              result.st_max_after, result.mttf_before.mttf_years,
              result.mttf_after.mttf_years, result.mttf_gain);
  std::printf("%s\n", result.note.c_str());
  std::printf("certified: %s\n", result.certified ? "yes" : "no");
  return result.improved ? 0 : 3;  // 3: valid but no improvement found
}

int cmd_report(const Args& args) {
  std::string error;
  const auto design = load_design(args, &error);
  if (!design) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto fp = load_floorplan(args, *design, "floorplan", &error);
  if (!fp) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string why;
  if (!is_valid(*design, *fp, &why)) {
    std::fprintf(stderr, "floorplan invalid: %s\n", why.c_str());
    return 1;
  }

  auto describe = [&](const Floorplan& plan, const char* label) {
    const auto sta = timing::run_sta(*design, plan);
    const StressMap stress = compute_stress(*design, plan);
    const auto mttf = aging::compute_mttf_combined(*design, plan);
    std::printf("[%s]\n", label);
    std::printf("  cpd          : %.3f ns (clock %.1f ns)\n", sta.cpd_ns,
                design->fabric.clock_period_ns());
    std::printf("  stress max   : %.3f (fabric avg %.3f)\n",
                stress.max_accumulated(), stress.avg_accumulated());
    std::printf("  MTTF         : %.2f years (limited by %s on PE %d)\n",
                mttf.mttf_years, to_string(mttf.limiting_mechanism),
                mttf.limiting_pe);
    std::printf("  per mechanism: NBTI %.2fy | HCI %.2fy | EM %.2fy\n",
                mttf.nbti_mttf_seconds / aging::kSecondsPerYear,
                mttf.hci_mttf_seconds / aging::kSecondsPerYear,
                mttf.em_mttf_seconds / aging::kSecondsPerYear);
    std::printf("  accumulated stress map:\n%s\n",
                render_heat_map(stress.accumulated, design->fabric.rows(),
                                design->fabric.cols())
                    .c_str());
    return mttf.mttf_years;
  };

  const double base_years = describe(*fp, "floorplan");
  if (args.has("compare")) {
    const auto other = load_floorplan(args, *design, "compare", &error);
    if (!other) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!is_valid(*design, *other, &why)) {
      std::fprintf(stderr, "comparison floorplan invalid: %s\n", why.c_str());
      return 1;
    }
    const double other_years = describe(*other, "compare");
    std::printf("[diff floorplan -> compare]\n%s",
                format_diff(core::diff_floorplans(*design, *fp, *other))
                    .c_str());
    std::printf("MTTF ratio (compare / floorplan): %.2fx\n",
                other_years / base_years);
  }
  return 0;
}

// Shared front half of lint/certify: derive the frozen set (union of
// critical paths per context) and the monitored paths from a reference
// floorplan, exactly as the remapper's Freeze mode does.
struct PipelineView {
  timing::StaResult sta;
  std::vector<char> frozen;
  std::vector<timing::TimingPath> monitored;
};

PipelineView derive_pipeline_view(const Design& design, const Floorplan& ref,
                                  double margin) {
  const timing::CombGraph graph(design);
  PipelineView view;
  view.sta = run_sta(graph, ref);
  view.frozen.assign(static_cast<std::size_t>(design.num_ops()), 0);
  for (int c = 0; c < design.num_contexts; ++c)
    for (const auto& p : timing::critical_paths(graph, ref, c, 8))
      for (const int op : p.ops) view.frozen[static_cast<std::size_t>(op)] = 1;
  timing::PathQuery query;
  query.margin = margin;
  view.monitored = timing::monitored_paths(graph, ref, query);
  return view;
}

// `lint --inputs`: the DL data-model rules over the raw artifacts. Loads
// bypass the acceptance wiring on purpose — the whole point is to *report*
// on dirty inputs, so only outright parse failures stop the run. The stress
// map is derived (and DL015-checked) only once design + floorplan are
// clean, because compute_stress indexes the design freely.
int cmd_lint_inputs(const Args& args) {
  std::string error;
  const auto path = args.get("design");
  if (!path) {
    std::fprintf(stderr, "--design is required\n");
    return 1;
  }
  const auto text = read_file(*path, &error);
  if (!text) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto design = design_from_text(*text, &error);
  if (!design) {
    std::fprintf(stderr, "design parse failed: %s\n", error.c_str());
    return 1;
  }
  std::optional<Floorplan> fp;
  if (args.has("floorplan")) {
    const auto fp_text = read_file(args.get_or("floorplan", ""), &error);
    if (!fp_text) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    fp = floorplan_from_text(*fp_text, &error);
    if (!fp) {
      std::fprintf(stderr, "floorplan parse failed: %s\n", error.c_str());
      return 1;
    }
  }
  verify::InputLintOptions lopts;
  lopts.include_info = !args.has("no-info");
  verify::LintReport report =
      verify::lint_inputs(*design, fp ? &*fp : nullptr, nullptr, lopts);
  if (report.clean() && fp) {
    const StressMap stress = compute_stress(*design, *fp);
    report.merge(verify::lint_stress_map(*design, stress, lopts));
  }
  if (args.has("json")) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s", report.to_text().c_str());
    std::printf("input lint: %d error(s), %d warning(s), %d info\n",
                report.errors, report.warnings, report.infos);
  }
  return report.clean() ? 0 : 1;
}

int cmd_lint(const Args& args) {
  if (args.has("inputs")) return cmd_lint_inputs(args);
  double margin = 0.2;
  std::optional<double> st_flag;
  if (!read_margin(args, &margin) || !read_st_target(args, &st_flag))
    return 1;
  std::string error;
  const auto design = load_design(args, &error);
  if (!design) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto fp = load_floorplan(args, *design, "floorplan", &error);
  if (!fp) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string why;
  if (!is_valid(*design, *fp, &why)) {
    std::fprintf(stderr, "floorplan invalid: %s\n", why.c_str());
    return 1;
  }
  const PipelineView view = derive_pipeline_view(*design, *fp, margin);
  const StressMap stress = compute_stress(*design, *fp);
  const double st_target = st_flag.value_or(stress.max_accumulated());

  core::RemapModelSpec spec;
  spec.design = &*design;
  spec.base = &*fp;
  spec.frozen = view.frozen;
  spec.candidates = core::compute_candidates(*design, *fp, view.frozen,
                                             view.monitored, view.sta.cpd_ns,
                                             {});
  spec.st_target = st_target;
  spec.monitored = &view.monitored;
  spec.cpd_ns = view.sta.cpd_ns;
  const core::RemapModel rm = core::build_remap_model(spec);
  if (rm.trivially_infeasible) {
    std::fprintf(stderr, "model is trivially infeasible before lint: %s\n",
                 rm.infeasible_reason.c_str());
    return 1;
  }

  verify::LintOptions lopts;
  lopts.include_info = !args.has("no-info");
  verify::LintReport report = verify::lint_model(rm.model, lopts);
  report.merge(verify::lint_formulation(rm.model, rm.formulation_spec(),
                                        lopts));
  if (args.has("json")) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s", report.to_text().c_str());
    std::printf("model: %d vars, %d rows (%d binary, %d path rows) at "
                "st_target=%.4f\n",
                rm.model.num_vars(), rm.model.num_constraints(),
                rm.num_binary_vars, rm.num_path_rows, st_target);
    std::printf("lint: %d error(s), %d warning(s), %d info\n", report.errors,
                report.warnings, report.infos);
  }
  return report.clean() ? 0 : 1;
}

int cmd_certify(const Args& args) {
  double margin = 0.2;
  std::optional<double> st_flag;
  if (!read_margin(args, &margin) || !read_st_target(args, &st_flag))
    return 1;
  // Default matches the remap subcommand's default mode so that
  // `remap` -> `certify` composes without extra flags.
  const std::string mode = args.get_or("mode", "rotate");
  if (mode != "freeze" && mode != "rotate") {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 1;
  }
  std::string error;
  const auto design = load_design(args, &error);
  if (!design) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto baseline = load_floorplan(args, *design, "baseline", &error);
  if (!baseline) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto fp = load_floorplan(args, *design, "floorplan", &error);
  if (!fp) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string why;
  if (!is_valid(*design, *baseline, &why)) {
    std::fprintf(stderr, "baseline floorplan invalid: %s\n", why.c_str());
    return 1;
  }
  const PipelineView view = derive_pipeline_view(*design, *baseline, margin);
  const StressMap base_stress = compute_stress(*design, *baseline);
  // Default bound: the pipeline's contract that the balance never regresses.
  const double st_target = st_flag.value_or(base_stress.max_accumulated());

  verify::FloorplanSpec spec;
  spec.design = &*design;
  // Rotate mode legally moves the frozen critical paths (as a rigid
  // isometry), so exact positions are only certifiable in Freeze mode; the
  // CPD check below covers both modes.
  if (mode == "freeze") {
    spec.reference = &*baseline;
    spec.frozen = view.frozen;
  }
  spec.st_target = st_target;
  spec.monitored = &view.monitored;
  spec.cpd_ns = view.sta.cpd_ns;
  verify::CertifyOptions copts;
  verify::Certificate cert = verify::certify_floorplan(spec, *fp, copts);
  // The paper's headline guarantee, checked with a full independent STA:
  // no delay degradation relative to the baseline.
  const auto sta_after = timing::run_sta(*design, *fp);
  if (sta_after.cpd_ns > view.sta.cpd_ns + copts.tol_delay_ns) {
    cert.fail(copts, "cpd",
              "CPD " + std::to_string(sta_after.cpd_ns) + " ns exceeds the "
              "baseline's " + std::to_string(view.sta.cpd_ns) + " ns");
  }

  if (args.has("json")) {
    std::printf("%s\n", cert.to_json().c_str());
  } else {
    for (const auto& issue : cert.issues)
      std::printf("FAIL %s: %s\n", issue.check.c_str(),
                  issue.message.c_str());
    std::printf("%s: st_target=%.4f cpd=%.3f->%.3f ns frozen_ops=%d "
                "monitored_paths=%zu\n",
                cert.ok ? "CERTIFIED" : "REJECTED", st_target,
                view.sta.cpd_ns, sta_after.cpd_ns,
                static_cast<int>(std::count(spec.frozen.begin(),
                                            spec.frozen.end(), 1)),
                view.monitored.size());
  }
  return cert.ok ? 0 : 1;
}

int cmd_analyze(const std::string& path, const Args& args) {
  obs::PostmortemReport report;
  std::string error;
  const auto text = read_file(path, &error);
  if (!text || !obs::analyze_events(*text, &report, &error)) {
    std::fprintf(stderr, "analyze: %s\n", error.c_str());
    return 1;
  }
  if (!report.parse_errors.empty()) {
    std::fprintf(stderr,
                 "analyze: skipped %zu malformed line(s) (truncated"
                 " flush?), first at line %ld: %s\n",
                 report.parse_errors.size(), report.parse_errors.front().first,
                 report.parse_errors.front().second.c_str());
  }
  if (const auto trace = args.get("chrome-trace")) {
    if (!write_file(*trace, obs::chrome_trace(*text), &error)) {
      std::fprintf(stderr, "analyze: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "chrome trace: %s\n", trace->c_str());
  }
  if (args.has("json")) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s", report.to_text().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return usage(0);
  if (cmd == "analyze") {
    // Unlike the other commands, analyze takes its input as a positional
    // path, and none of the observability flags: it reads a log, it does
    // not write one.
    if (argc >= 3 && std::strcmp(argv[2], "--help") == 0) return usage(0);
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "cgraf_cli: analyze needs an events.jsonl path\n");
      return usage();
    }
    Args aargs(argc, argv, 3);
    if (aargs.has("help")) return usage(0);
    if (aargs.ok)
      aargs.check_allowed({"json", "chrome-trace"}, /*observability=*/false);
    if (!aargs.ok) {
      std::fprintf(stderr, "cgraf_cli: %s\n", aargs.problem.c_str());
      return usage();
    }
    return cmd_analyze(argv[2], aargs);
  }
  Args args(argc, argv, 2);
  if (args.has("help")) return usage(0);
  if (args.ok) {
    if (cmd == "gen") {
      args.check_allowed(
          {"out", "spec", "contexts", "dim", "usage", "seed", "paper-scale"});
    } else if (cmd == "place") {
      args.check_allowed({"design", "out", "seed"});
    } else if (cmd == "remap") {
      args.check_allowed({"design", "floorplan", "out", "mode", "margin",
                          "seed", "strategy", "ls-seed", "ls-iters",
                          "threads", "warm-probes", "verbose"});
    } else if (cmd == "report") {
      args.check_allowed({"design", "floorplan", "compare"});
    } else if (cmd == "lint") {
      args.check_allowed({"design", "floorplan", "st-target", "margin",
                          "json", "no-info", "inputs"});
    } else if (cmd == "certify") {
      args.check_allowed({"design", "baseline", "floorplan", "st-target",
                          "margin", "mode", "json"});
    } else {
      std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
      return usage();
    }
  }
  if (!args.ok) {
    std::fprintf(stderr, "cgraf_cli: %s\n", args.problem.c_str());
    return usage();
  }

  // Observability: the event log and progress lines wrap whatever command
  // runs.
  const auto events_path = args.get("log-events");
  if (events_path) {
    std::string open_error;
    if (!obs::EventLog::global().open(*events_path, &open_error)) {
      std::fprintf(stderr, "failed to open event log: %s\n",
                   open_error.c_str());
      return 1;
    }
  }
  if (args.has("progress"))
    obs::Progress::global().configure(true, /*min_interval_s=*/0.5);
  else if (args.has("verbose"))
    obs::Progress::global().configure(true, /*min_interval_s=*/0.0);

  int code = 2;
  if (cmd == "gen") code = cmd_gen(args);
  else if (cmd == "place") code = cmd_place(args);
  else if (cmd == "remap") code = cmd_remap(args);
  else if (cmd == "report") code = cmd_report(args);
  else if (cmd == "lint") code = cmd_lint(args);
  else if (cmd == "certify") code = cmd_certify(args);

  if (events_path) {
    // The run's lock contention goes into the log as sync.mutex records.
    obs::log_mutex_stats(&obs::EventLog::global());
    obs::EventLog::global().close();
    std::fprintf(stderr, "events: %s\n", events_path->c_str());
  }
  return code;
}
