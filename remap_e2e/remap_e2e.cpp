// remap_e2e: the end-to-end benchmark of Algorithm 1.
//
// One run executes one named workload of full core::aging_aware_remap calls
// from a single process, in a closed loop with one client: remaps run back
// to back, each starting when the previous one returned. Every result is
// checked from outside the solver (validity, STA, stress, certificate,
// repeatability). README.md beside this file explains the workloads, the
// metrics and their bounds.
//
// Usage:
//   remap_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
//   --seed     shuffles the order of the remaps in every pass (default 1)
//   --seconds  length of the measured phase (default 25); whole passes over
//              the workload's remaps run until it is used up, at least 3
//   --trace 1  per-layer run: passes alternate untraced and traced (an
//              in-memory solve-event log), then direct layer calls are timed
//   --smoke    the workload's first spec only, one pass (the package's ctest)
//
// stdout carries human-readable lines, one CGRAF_BENCH_JSON row per remap
// and one summary row, and as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit codes: 0 ran (failures are reported in the JSON), 2 bad usage,
// 3 the host has fewer hardware threads than the workload keeps busy.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aging/mttf.h"
#include "cgrra/floorplan.h"
#include "cgrra/stress.h"
#include "core/candidates.h"
#include "core/local_search.h"
#include "core/model_builder.h"
#include "core/probe_session.h"
#include "core/remapper.h"
#include "core/rotation.h"
#include "core/st_target.h"
#include "core/strategy.h"
#include "hls/placer.h"
#include "obs/bench_compare.h"
#include "obs/build_info.h"
#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/postmortem.h"
#include "timing/paths.h"
#include "timing/sta.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/sync.h"
#include "verify/certify.h"
#include "verify/input_lint.h"
#include "workloads/suite.h"

namespace {

using namespace cgraf;

// ---------------------------------------------------------------- workloads

// One remap: a Table-I spec, re-generated at a fixed variant seed when
// variant > 0, in one mode.
struct Case {
  std::string spec;
  int variant;
  core::RemapMode mode;
};

// Freeze and Rotate on variants 0..variants-1 of every spec.
std::vector<Case> both_modes(const std::vector<std::string>& specs,
                             int variants) {
  std::vector<Case> out;
  for (const std::string& spec : specs)
    for (int v = 0; v < variants; ++v)
      for (const core::RemapMode m :
           {core::RemapMode::kFreeze, core::RemapMode::kRotate})
        out.push_back({spec, v, m});
  return out;
}

struct Workload {
  const char* name;
  core::SolveStrategy strategy;
  // MipOptions::num_threads, pinned: the library default 0 means
  // hardware_concurrency, which would silently change the work per host.
  int mip_threads;
  // Threads the workload keeps busy at once (the portfolio races an LS
  // thread against its exact side).
  int busy_threads;
  std::vector<Case> cases;
};

const std::vector<Workload>& workload_table() {
  constexpr core::RemapMode kF = core::RemapMode::kFreeze;
  constexpr core::RemapMode kR = core::RemapMode::kRotate;
  static const std::vector<Workload> table = {
      {"dive_1t", core::SolveStrategy::kExactDive, 1, 1,
       both_modes({"B5", "B11", "B13", "B16", "B19", "B22"}, 1)},
      {"ls_fleet", core::SolveStrategy::kLocalSearch, 1, 1,
       both_modes({"B1", "B4", "B7", "B10", "B13", "B16", "B19", "B22", "B25"},
                  6)},
      // From a sweep of fix-once at 4 threads over four netlists of each 4x4
      // spec: remaps that spend 0.3-2 s in branch & bound. Most remaps there
      // finish in a few ms (1-600 nodes), too short to time steadily on 4
      // threads, or burn several seconds in 20000-node capped attempts.
      {"bnb_4t", core::SolveStrategy::kExactFixOnce, 4, 4,
       {{"B16", 2, kF}, {"B19", 1, kF}, {"B10", 0, kR}, {"B7", 2, kR}}},
      {"portfolio_2t", core::SolveStrategy::kPortfolio, 1, 2,
       both_modes({"B5", "B11", "B13", "B16", "B19", "B22"}, 1)},
  };
  return table;
}

constexpr int kMinPasses = 3;
constexpr double kSetupSampleSeconds = 0.25;
constexpr int kProbeCalls = 5;

// ------------------------------------------------------------------ helpers

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// VmHWM of this process image. getrusage's ru_maxrss is not used: Linux
// carries it across exec, so it would report the launcher's peak whenever
// that is larger.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Median wall time of kProbeCalls calls of `fn`.
double median_call_s(const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < kProbeCalls; ++i) {
    const double t0 = now_seconds();
    fn();
    t.push_back(now_seconds() - t0);
  }
  return median(t);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------------ the instances

// One generated benchmark plus the checker's reference data, computed
// outside the timed phase.
struct Instance {
  workloads::GeneratedBenchmark bench;  // spec.name "B13", "B13.v2" (variant)
  std::unique_ptr<timing::CombGraph> graph;  // points into bench.design
  double cpd_before = 0.0;
  std::vector<char> frozen;
  std::vector<std::vector<int>> frozen_by_context;
  std::vector<timing::TimingPath> monitored;
};

workloads::BenchmarkSpec case_spec(const Case& c) {
  for (workloads::BenchmarkSpec s : workloads::table1_specs()) {
    if (s.name != c.spec) continue;
    if (c.variant > 0) {
      s.name += ".v" + std::to_string(c.variant);
      s.seed = fnv1a(s.seed, static_cast<std::uint64_t>(c.variant));
    }
    return s;
  }
  std::fprintf(stderr, "remap_e2e: no Table-I spec %s\n", c.spec.c_str());
  std::exit(2);
}

// Reference data mirroring Algorithm 1's own Step 2.1a/2.2 inputs: the
// frozen set is the union of each context's critical paths, the monitored
// set the paths within 20% of the CPD.
void prepare_checks(Instance& inst, const core::RemapOptions& o) {
  const Design& d = inst.bench.design;
  const Floorplan& base = inst.bench.baseline;
  inst.graph = std::make_unique<timing::CombGraph>(d);
  inst.cpd_before = timing::run_sta(*inst.graph, base).cpd_ns;
  inst.frozen.assign(static_cast<std::size_t>(d.num_ops()), 0);
  inst.frozen_by_context.assign(static_cast<std::size_t>(d.num_contexts), {});
  for (int c = 0; c < d.num_contexts; ++c) {
    for (const timing::TimingPath& p : timing::critical_paths(
             *inst.graph, base, c, o.max_critical_paths_per_context)) {
      for (const int op : p.ops) {
        if (inst.frozen[static_cast<std::size_t>(op)]) continue;
        inst.frozen[static_cast<std::size_t>(op)] = 1;
        inst.frozen_by_context[static_cast<std::size_t>(c)].push_back(op);
      }
    }
  }
  timing::PathQuery q;
  q.margin = o.path_margin;
  q.max_paths = o.max_monitored_paths;
  inst.monitored = timing::monitored_paths(*inst.graph, base, q);
}

core::RemapOptions remap_options(const Workload& w, const Instance& inst,
                                 core::RemapMode mode) {
  core::RemapOptions o;
  o.mode = mode;
  o.strategy = w.strategy;
  o.solver.mip.num_threads = w.mip_threads;
  o.st_search.solver.mip.num_threads = w.mip_threads;
  // Solver seeds stay tied to the instance, not to --seed: a different
  // rotation draw moves a single remap by up to 3.5x (B13 Rotate), which
  // would drown every bound in seed-to-seed noise.
  o.seed = inst.bench.spec.seed;
  o.ls.seed = inst.bench.spec.seed;
  o.verify.enabled = true;
  return o;
}

// ---------------------------------------------------------------- the remaps

struct Outcome {
  double st_target_final = 0.0;
  double mttf_gain = 0.0;
  std::uint64_t fp_hash = 0;

  bool operator==(const Outcome& o) const {
    return double_bits(st_target_final) == double_bits(o.st_target_final) &&
           double_bits(mttf_gain) == double_bits(o.mttf_gain) &&
           fp_hash == o.fp_hash;
  }
  std::uint64_t digest() const {
    return fnv1a(fnv1a(fnv1a(0xcbf29ce484222325ULL, double_bits(st_target_final)),
                       double_bits(mttf_gain)),
                 fp_hash);
  }
};

Outcome outcome_of(const core::RemapResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int pe : r.floorplan.op_to_pe)
    h = fnv1a(h, static_cast<std::uint64_t>(pe));
  return {r.st_target_final, r.mttf_gain, h};
}

struct Remap {
  const Instance* inst = nullptr;
  core::RemapMode mode = core::RemapMode::kFreeze;
  std::string name;  // "B13/freeze"
  std::vector<double> wall, cpu, gains;  // untraced calls
  std::vector<double> traced_wall;
  bool have_first = false;
  Outcome first;
  core::RemapResult first_result;
  int calls = 0, failed = 0, flips = 0, certify_rejections = 0;
  std::string first_failure;
};

// Empty when `r` passes every check made from outside the solver, else the
// first failure.
std::string check_result(const Remap& rm, const core::RemapResult& r) {
  const Instance& inst = *rm.inst;
  const Design& d = inst.bench.design;
  std::string why;
  if (!is_valid(d, r.floorplan, &why)) return "invalid floorplan: " + why;
  if (timing::run_sta(*inst.graph, r.floorplan).cpd_ns > inst.cpd_before + 1e-9)
    return "CPD grew";
  if (r.improved) {
    const double st = compute_stress(d, r.floorplan).max_accumulated();
    if (st > r.st_target_final + 1e-9 + 1e-12 * r.st_target_final)
      return "stress above st_target_final";
  }
  verify::FloorplanSpec fs;
  fs.design = &d;
  fs.monitored = &inst.monitored;
  fs.cpd_ns = inst.cpd_before;
  if (rm.mode == core::RemapMode::kFreeze) {
    fs.reference = &inst.bench.baseline;
    fs.frozen = inst.frozen;
  }
  const verify::Certificate cert = verify::certify_floorplan(fs, r.floorplan);
  if (!cert.ok) return "certify: " + cert.summary();
  if (!r.certified) return "result not certified";
  return "";
}

// Runs one remap (logging into `events` when non-null), checks it and
// records its outcome and times.
void run_remap(const Workload& w, Remap& rm, obs::EventLog* events,
               double* wall_s, double* cpu_s) {
  core::RemapOptions o = remap_options(w, *rm.inst, rm.mode);
  o.solver.events = events;
  const double c0 = cpu_seconds();
  const double t0 = now_seconds();
  std::string failure;
  core::RemapResult r;
  try {
    r = core::aging_aware_remap(rm.inst->bench.design, rm.inst->bench.baseline,
                                o);
  } catch (const std::exception& e) {
    failure = std::string("remap threw: ") + e.what();
  }
  *wall_s = now_seconds() - t0;
  *cpu_s = cpu_seconds() - c0;
  ++rm.calls;
  if (failure.empty()) failure = check_result(rm, r);
  if (failure.empty()) {
    const Outcome out = outcome_of(r);
    if (!rm.have_first) {
      rm.have_first = true;
      rm.first = out;
      rm.first_result = r;
    } else if (!(out == rm.first)) {
      ++rm.flips;
      // Single-threaded remaps are deterministic; a changed outcome is a
      // bug, not noise.
      if (w.busy_threads == 1) failure = "outcome differs from the first call";
    }
    rm.gains.push_back(r.mttf_gain);
    rm.certify_rejections += r.certify_rejections;
  }
  if (!failure.empty()) {
    ++rm.failed;
    if (rm.first_failure.empty()) rm.first_failure = failure;
    std::fprintf(stderr, "remap_e2e: %s failed: %s\n", rm.name.c_str(),
                 failure.c_str());
  }
}

// ------------------------------------------------------------ trace folding

struct Rec {
  std::string type;
  double t = 0.0;  // end of the record, microseconds since the log opened
  int tid = 0;
  obs::JsonValue v;
  double begin() const { return t - 1e6 * v.num_or("seconds", 0.0); }
};

struct Window {
  double begin, end;
  int tid;  // -1: any thread
  bool holds(const Rec& r) const {
    return (tid < 0 || r.tid == tid) && r.t >= begin && r.t <= end;
  }
};

bool in_any(const std::vector<Window>& ws, const Rec& r) {
  return std::any_of(ws.begin(), ws.end(),
                     [&](const Window& w) { return w.holds(r); });
}

// Per-layer sums over the traced remaps (seconds and counts).
struct Layers {
  obs::PostmortemReport pm;  // summed counters from obs::analyze_events
  double remap_s = 0, step1_s = 0, presearch_s = 0;
  double failed_attempt_s = 0, remap_self_s = 0;
  long step1_probes = 0, presearch_probes = 0, dive_rounds = 0;
  double dive_self_s = 0, probe_self_s = 0;
  double lp_main_s = 0, bnb_main_s = 0, ls_main_s = 0;
  double bnb_wall_s = 0, bnb_thread_s = 0, bnb_lp_s = 0;
  double ls_s = 0;
  long ls_oracle_calls = 0;
  double bnb_lock_wait_s = 0, portfolio_lock_wait_s = 0;
  long bnb_lock_acq = 0, bnb_lock_contended = 0;
};

void add_report(obs::PostmortemReport& into, const obs::PostmortemReport& r) {
  into.lp_solves += r.lp_solves;
  into.lp_iterations += r.lp_iterations;
  into.lp_refactorizations += r.lp_refactorizations;
  into.lp_warm_used += r.lp_warm_used;
  into.lp_dual_used += r.lp_dual_used;
  into.lp_seconds += r.lp_seconds;
  into.bnb_nodes += r.bnb_nodes;
  into.bnb_pool_dropped += r.bnb_pool_dropped;
  into.probes += r.probes;
  into.probe_warm_hits += r.probe_warm_hits;
  into.probe_fallbacks += r.probe_fallbacks;
  into.probe_rebuilds += r.probe_rebuilds;
  into.remap_attempts += r.remap_attempts;
  into.remap_attempts_cpd_ok += r.remap_attempts_cpd_ok;
  into.ls_moves_examined += r.ls_moves_examined;
  into.ls_moves_accepted += r.ls_moves_accepted;
  into.portfolio_races += r.portfolio_races;
  into.portfolio_ls_wins += r.portfolio_ls_wins;
}

// Folds one remap's event log. Spans nest by thread id and time: a record
// is stamped at its end, and its start is t - seconds.
bool fold_log(const std::string& jsonl, Layers& L, std::string* error) {
  obs::PostmortemReport pm;
  if (!obs::analyze_events(jsonl, &pm, error)) return false;
  if (!pm.parse_errors.empty()) {
    *error = "unparseable event record: " + pm.parse_errors.front().second;
    return false;
  }
  add_report(L.pm, pm);

  std::vector<Rec> recs;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size();
    Rec r;
    if (nl > pos && obs::parse_json(std::string_view(jsonl).substr(pos, nl - pos),
                                    &r.v, error)) {
      r.type = r.v.str_or("type", "");
      r.t = r.v.num_or("t", 0.0);
      r.tid = static_cast<int>(r.v.int_or("tid", 0));
      recs.push_back(std::move(r));
    }
    pos = nl + 1;
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& a, const Rec& b) { return a.t < b.t; });

  int main_tid = -1;
  double remap_s = 0.0, step1_s = 0.0, attempt_s = 0.0;
  std::vector<Window> step1, attempts, bnb;
  double step1_begin = 0.0;
  std::map<int, std::vector<long>> bnb_threads;  // tid -> open bnb.begin
  for (const Rec& r : recs) {
    if (r.type == "remap.end") {
      main_tid = r.tid;
      remap_s = r.v.num_or("seconds", 0.0);
    } else if (r.type == "st.search_begin") {
      step1_begin = r.t;
    } else if (r.type == "st.search_end") {
      step1.push_back({step1_begin, r.t, r.tid});
      step1_s += 1e-6 * (r.t - step1_begin);
      L.step1_probes += r.v.int_or("probes", 0);
    } else if (r.type == "remap.attempt") {
      attempts.push_back({r.begin(), r.t, -1});
      const double s = r.v.num_or("seconds", 0.0);
      attempt_s += s;
      if (!r.v.bool_or("cpd_ok", false)) L.failed_attempt_s += s;
    } else if (r.type == "bnb.begin") {
      bnb_threads[r.tid].push_back(r.v.int_or("threads", 1));
    } else if (r.type == "bnb.end") {
      const double s = r.v.num_or("seconds", 0.0);
      long threads = 1;
      if (auto& open = bnb_threads[r.tid]; !open.empty()) {
        threads = open.back();
        open.pop_back();
      }
      bnb.push_back({r.begin(), r.t, -1});
      L.bnb_wall_s += s;
      L.bnb_thread_s += s * static_cast<double>(threads);
    } else if (r.type == "twostep.solve") {
      if (!r.v.bool_or("lp_only", false))
        L.dive_rounds += r.v.int_or("dive_rounds", 0);
    } else if (r.type == "ls.search") {
      L.ls_s += r.v.num_or("seconds", 0.0);
      L.ls_oracle_calls += r.v.int_or("oracle_calls", 0);
    }
  }
  if (main_tid < 0) {
    *error = "event log has no remap.end record";
    return false;
  }
  double presearch_s = 0.0;
  for (const Rec& r : recs) {
    const double s = r.v.num_or("seconds", 0.0);
    if (r.type == "lp.solve") {
      const bool in_bnb = in_any(bnb, r);
      if (in_bnb) L.bnb_lp_s += s;
      if (r.tid == main_tid && !in_bnb) L.lp_main_s += s;
    } else if (r.type == "bnb.end" && r.tid == main_tid) {
      L.bnb_main_s += s;
    } else if (r.type == "ls.search" && r.tid == main_tid) {
      L.ls_main_s += s;
    } else if (r.type == "probe.solve") {
      // Self time of the probe: its span minus the LP and B&B spans nested
      // in it on its own thread.
      const Window span{r.begin(), r.t, r.tid};
      double inner = 0.0;
      for (const Rec& c : recs) {
        if (c.t < span.begin) continue;
        if (c.t > span.end) break;
        if (c.tid != r.tid) continue;
        if (c.type == "bnb.end" ||
            (c.type == "lp.solve" && !in_any(bnb, c)))
          inner += c.v.num_or("seconds", 0.0);
      }
      if (in_any(attempts, r)) {
        L.dive_self_s += s - inner;
      } else if (r.tid == main_tid) {
        L.probe_self_s += s - inner;
        if (!in_any(step1, r)) {
          presearch_s += s;
          ++L.presearch_probes;
        }
      }
    }
  }
  L.remap_s += remap_s;
  L.step1_s += step1_s;
  L.presearch_s += presearch_s;
  // Remap self time: what Step 1, the presearch probes and the attempts do
  // not cover.
  L.remap_self_s += remap_s - step1_s - presearch_s - attempt_s;
  return true;
}

// ----------------------------------------------------- layer-call probes

struct Probes {
  std::map<std::string, double> call_s;  // metric name -> summed medians
  milp::LpStageStats kernel;
  double kernel_lp_s = 0.0;
};

// Times direct public calls on one instance's inputs: the Freeze geometry
// (baseline with the critical paths pinned), at the target a remap of the
// instance reached.
void probe_instance(const Workload& w, const Instance& inst,
                    const core::RemapResult& done, Probes& P) {
  const Design& d = inst.bench.design;
  const Floorplan& base = inst.bench.baseline;
  const core::RemapOptions o = remap_options(w, inst, core::RemapMode::kFreeze);
  auto add = [&](const char* name, const std::function<void()>& fn) {
    P.call_s[name] += median_call_s(fn);
  };
  add("workloads.generate.call_s",
      [&] { (void)workloads::generate_benchmark(inst.bench.spec); });
  add("hls.place_baseline.call_s", [&] { (void)hls::place_baseline(d); });
  add("verify.lint_inputs.call_s", [&] { (void)verify::lint_inputs(d, &base); });
  add("timing.sta.call_s", [&] { (void)timing::run_sta(*inst.graph, base); });
  add("timing.critical_paths.call_s", [&] {
    for (int c = 0; c < d.num_contexts; ++c)
      (void)timing::critical_paths(*inst.graph, base, c,
                                   o.max_critical_paths_per_context);
  });
  add("timing.monitored_paths.call_s", [&] {
    timing::PathQuery q;
    q.margin = o.path_margin;
    q.max_paths = o.max_monitored_paths;
    (void)timing::monitored_paths(*inst.graph, base, q);
  });
  add("aging.mttf.call_s",
      [&] { (void)aging::compute_mttf(d, base, o.nbti, o.thermal); });
  add("core.st_target.call_s",
      [&] { (void)core::find_st_target(d, base, o.st_search); });
  add("core.rotation.call_s", [&] {
    core::RotationOptions ro;
    ro.restarts = o.rotation_restarts;
    ro.seed = o.seed;
    (void)core::rotate_critical_paths(d, base, inst.frozen_by_context, ro);
  });
  core::RemapModelSpec spec;
  add("core.candidates.call_s", [&] {
    spec.candidates = core::compute_candidates(d, base, inst.frozen,
                                               inst.monitored, inst.cpd_before,
                                               o.candidates);
  });
  spec.design = &d;
  spec.base = &base;
  spec.frozen = inst.frozen;
  spec.monitored = &inst.monitored;
  spec.cpd_ns = inst.cpd_before;
  spec.objective = o.objective;
  spec.st_target = done.improved ? done.st_target_final : done.st_max_before;
  add("core.model_build.call_s", [&] { (void)core::build_remap_model(spec); });
  add("verify.certify.call_s", [&] {
    verify::FloorplanSpec fs;
    fs.design = &d;
    fs.reference = &base;
    fs.frozen = inst.frozen;
    fs.st_target = spec.st_target;
    fs.monitored = &inst.monitored;
    fs.cpd_ns = inst.cpd_before;
    (void)verify::certify_floorplan(fs, done.floorplan);
  });
  add("core.ls.call_s", [&] { (void)core::local_search_remap(spec, o.ls); });
  // LP kernel: one cold two-step solve at the final target; the stage
  // split comes from the call with the median wall time.
  std::vector<std::pair<double, core::TwoStepStats>> solves;
  for (int i = 0; i < kProbeCalls; ++i) {
    core::ProbeSession session(spec, o.solver, o.warm_probes);
    const double t0 = now_seconds();
    const core::TwoStepResult r = session.solve(spec.st_target);
    solves.emplace_back(now_seconds() - t0, r.stats);
  }
  std::sort(solves.begin(), solves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const core::TwoStepStats& mid = solves[solves.size() / 2].second;
  P.kernel.add(mid.lp_stage);
  P.kernel_lp_s += mid.lp_seconds;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void append_meta(obs::JsonWriter& w, const Workload& wl, std::uint64_t seed) {
  w.field("bench", "remap_e2e")
      .field("workload", wl.name)
      .field("strategy", core::to_string(wl.strategy))
      .field("seed", static_cast<long>(seed))
      .field("threads", static_cast<long>(wl.busy_threads))
      .field("mip_threads", static_cast<long>(wl.mip_threads))
      .field("schema_version", obs::kBenchJsonSchemaVersion);
  obs::append_build_info_fields(w);
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
}

std::string result_line(bool correct, long attempted, long failed,
                        const std::vector<Metric>& ms) {
  obs::JsonWriter w;
  w.begin_object()
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed)
      .key("metrics")
      .begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object().field("value", m.value).field("unit", m.unit);
    w.end_object();
  }
  w.end_object().end_object();
  return w.str();
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "remap_e2e: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = val;
    } else if (flag == "--seed") {
      const unsigned long long v = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') {
        std::fprintf(stderr, "remap_e2e: bad --seed '%s'\n", val);
        return false;
      }
      a->seed = v;
    } else if (flag == "--seconds") {
      const double v = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(v >= 0.0) || v > 3600.0) {
        std::fprintf(stderr, "remap_e2e: bad --seconds '%s'\n", val);
        return false;
      }
      a->seconds = v;
    } else if (flag == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        std::fprintf(stderr, "remap_e2e: --trace takes 0 or 1\n");
        return false;
      }
      a->trace = val[0] == '1';
    } else {
      std::fprintf(stderr, "remap_e2e: unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return 2;
  const Workload* wl = nullptr;
  for (const Workload& w : workload_table())
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) {
    std::fprintf(stderr, "remap_e2e: --workload must be one of:");
    for (const Workload& w : workload_table())
      std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (obs::hardware_threads() < wl->busy_threads) {
    std::fprintf(stderr,
                 "remap_e2e: workload %s keeps %d threads busy but this host "
                 "has %ld hardware threads; its numbers would not compare\n",
                 wl->name, wl->busy_threads, obs::hardware_threads());
    return 3;
  }
  const int min_passes = args.smoke ? 1 : kMinPasses;
  const double seconds = args.smoke ? 0.0 : args.seconds;

  // The cases to run (a smoke run keeps those of the first instance) and
  // their distinct instances, in first-use order.
  std::vector<std::pair<Case, workloads::BenchmarkSpec>> run_cases;
  for (const Case& c : wl->cases) {
    workloads::BenchmarkSpec s = case_spec(c);
    if (args.smoke && !run_cases.empty() &&
        s.name != run_cases.front().second.name)
      continue;
    run_cases.emplace_back(c, std::move(s));
  }
  std::vector<workloads::BenchmarkSpec> specs;
  for (const auto& [c, s] : run_cases) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const auto& x) { return x.name == s.name; }))
      specs.push_back(s);
  }

  // --- Set-up: instance generation + baseline placement. A sample is the
  // mean over a batch of repetitions lasting kSetupSampleSeconds, taken here
  // and after every pass; setup_s is the median sample. This host switches
  // between speed states (the same generation takes 1.7 or 2.8 ms) that
  // last a fraction of a second to seconds: single repetitions would land
  // in one state or the other, batches average over them.
  std::deque<Instance> instances;
  std::vector<double> setup_times;
  bool setup_ok = true;
  auto setup_sample = [&] {
    double busy = 0.0;
    int reps = 0;
    do {
      const double t0 = now_seconds();
      std::vector<workloads::GeneratedBenchmark> gen;
      for (const workloads::BenchmarkSpec& s : specs)
        gen.push_back(workloads::generate_benchmark(s));
      busy += now_seconds() - t0;
      ++reps;
      for (std::size_t i = 0; i < gen.size(); ++i) {
        if (instances.size() < gen.size()) {
          instances.push_back({std::move(gen[i]), nullptr, 0.0, {}, {}, {}});
        } else if (gen[i].baseline.op_to_pe !=
                   instances[i].bench.baseline.op_to_pe) {
          setup_ok = false;  // generation must be deterministic
        }
      }
    } while (busy < kSetupSampleSeconds);
    setup_times.push_back(busy / reps);
  };
  setup_sample();

  for (Instance& inst : instances) prepare_checks(inst, core::RemapOptions{});
  std::vector<Remap> remaps;
  for (const auto& [c, s] : run_cases) {
    Remap r;
    r.inst = &*std::find_if(instances.begin(), instances.end(),
                            [&](const Instance& i) {
                              return i.bench.spec.name == s.name;
                            });
    r.mode = c.mode;
    r.name = s.name +
             (c.mode == core::RemapMode::kFreeze ? "/freeze" : "/rotate");
    remaps.push_back(std::move(r));
  }
  std::printf("remap_e2e: workload %s (%s, %d B&B thread(s)), seed %llu, "
              "%zu remaps per pass, first set-up %.4f s\n",
              wl->name, core::to_string(wl->strategy), wl->mip_threads,
              static_cast<unsigned long long>(args.seed), remaps.size(),
              setup_times.front());
  std::fflush(stdout);

  // --- Closed loop: whole passes in a seed-shuffled order, so every remap
  // gets the same number of calls, until the pass boundary nearest to
  // `seconds`. A traced run alternates untraced and traced passes.
  Rng order_rng(args.seed);
  std::vector<std::size_t> order(remaps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Layers layers;
  std::string fold_error;
  int passes = 0, traced_passes = 0;
  std::vector<double> pass_times;
  const double t_loop = now_seconds();
  for (;;) {
    const double t_pass = now_seconds();
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    const bool traced = args.trace && passes % 2 == 1;
    for (const std::size_t i : order) {
      Remap& rm = remaps[i];
      double wall = 0.0, cpu = 0.0;
      if (!traced) {
        run_remap(*wl, rm, nullptr, &wall, &cpu);
        rm.wall.push_back(wall);
        rm.cpu.push_back(cpu);
        continue;
      }
      obs::EventLog log;
      log.open_memory();
      const std::map<std::string, MutexStats> before = sync_mutex_stats();
      run_remap(*wl, rm, &log, &wall, &cpu);
      const std::map<std::string, MutexStats> after = sync_mutex_stats();
      rm.traced_wall.push_back(wall);
      auto delta = [&](const char* name) {
        MutexStats d;
        if (auto it = after.find(name); it != after.end()) d = it->second;
        if (auto it = before.find(name); it != before.end()) {
          d.acquisitions -= it->second.acquisitions;
          d.contended -= it->second.contended;
          d.wait_seconds -= it->second.wait_seconds;
        }
        return d;
      };
      const MutexStats bnb = delta("bnb.shared");
      layers.bnb_lock_acq += bnb.acquisitions;
      layers.bnb_lock_contended += bnb.contended;
      layers.bnb_lock_wait_s += bnb.wait_seconds;
      layers.portfolio_lock_wait_s += delta("portfolio").wait_seconds;
      log.close();
      if (fold_error.empty() &&
          !fold_log(log.memory_contents(), layers, &fold_error))
        std::fprintf(stderr, "remap_e2e: %s: %s\n", rm.name.c_str(),
                     fold_error.c_str());
    }
    ++passes;
    if (traced) ++traced_passes;
    pass_times.push_back(now_seconds() - t_pass);
    setup_sample();
    const double elapsed = now_seconds() - t_loop;
    const bool enough = passes >= min_passes && (!args.trace || traced_passes > 0);
    if (enough && elapsed + 0.5 * elapsed / passes >= seconds) break;
  }

  // --- Rows and totals.
  const double setup_s = median(setup_times);
  long attempted = 0, failed = 0, flips = 0, certify_rejections = 0;
  std::vector<double> all_calls, remap_medians;
  double wall_total = 0.0, cpu_total = 0.0, log_gain = 0.0, traced_total = 0.0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const Remap& rm : remaps) {
    attempted += rm.calls;
    failed += rm.failed;
    flips += rm.flips;
    certify_rejections += rm.certify_rejections;
    const double wall_med = median(rm.wall);
    const double cpu_med = median(rm.cpu);
    const double gain = median(rm.gains);
    wall_total += wall_med;
    cpu_total += cpu_med;
    traced_total += median(rm.traced_wall);
    log_gain += std::log(std::max(gain, 1e-300));
    remap_medians.push_back(wall_med);
    all_calls.insert(all_calls.end(), rm.wall.begin(), rm.wall.end());
    digest = fnv1a(digest, rm.first.digest());

    obs::JsonWriter w;
    w.begin_object().field("case", rm.name);
    append_meta(w, *wl, args.seed);
    w.field("calls", static_cast<long>(rm.calls))
        .field("wall_s_median", wall_med)
        .field("cpu_s_median", cpu_med)
        .field("st_target_final", rm.first.st_target_final)
        .field("mttf_gain", rm.first.mttf_gain)
        .field("floorplan_hash", hex(rm.first.fp_hash))
        .field("improved", rm.first_result.improved)
        .field("attempts", static_cast<long>(rm.first_result.outer_iterations))
        .field("failed", static_cast<long>(rm.failed))
        .field("outcome_flips", static_cast<long>(rm.flips));
    if (!rm.first_failure.empty()) w.field("first_failure", rm.first_failure);
    w.key("wall_s").begin_array();
    for (const double t : rm.wall) w.value(t);
    w.end_array().end_object();
    std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
  }
  const std::size_t n_remaps = remaps.size();
  // The tail is the highest whole percentile with at least ten calls
  // beyond it at the minimum pass count, fixed per workload so that runs of
  // different length report the same percentile.
  const double min_calls = static_cast<double>(n_remaps * min_passes);
  const double tail_q =
      std::max(0.5, std::floor(100.0 * (1.0 - 10.0 / min_calls)) / 100.0);
  const double tail = percentile(all_calls, tail_q);
  const long beyond =
      static_cast<long>(all_calls.size()) -
      static_cast<long>(std::ceil(tail_q * static_cast<double>(all_calls.size())));
  const bool correct = setup_ok && failed == 0 && fold_error.empty();

  std::vector<Metric> ms;
  if (!args.trace) {
    ms = {
        {"remap_s.total", wall_total, "s"},
        {"remap_s.p50", percentile(remap_medians, 0.5), "s"},
        {"remap_s.tail", tail, "s"},
        {"cpu_s.total", cpu_total, "s"},
        {"mttf_gain.geomean", std::exp(log_gain / static_cast<double>(n_remaps)),
         "x"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    Probes P;
    // One probed instance per Table-I spec: that of the spec's first remap.
    std::vector<std::string> probed;
    for (std::size_t i = 0; i < remaps.size(); ++i) {
      const std::string& spec = run_cases[i].first.spec;
      if (!remaps[i].have_first ||
          std::find(probed.begin(), probed.end(), spec) != probed.end())
        continue;
      probed.push_back(spec);
      probe_instance(*wl, *remaps[i].inst, remaps[i].first_result, P);
    }
    const double tp = std::max(1, traced_passes);
    const obs::PostmortemReport& pm = layers.pm;
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double kernel_stages = P.kernel.pricing_seconds +
                                 P.kernel.ftran_seconds +
                                 P.kernel.btran_seconds +
                                 P.kernel.factor_seconds + P.kernel.dse_seconds;
    const double cover = layers.remap_self_s + layers.lp_main_s +
                         layers.bnb_main_s + layers.ls_main_s +
                         layers.dive_self_s + layers.probe_self_s;
    ms = {
        {"milp.lp.solves", pm.lp_solves / tp, "count"},
        {"milp.lp.iterations", pm.lp_iterations / tp, "count"},
        {"milp.lp.busy_s", pm.lp_seconds / tp, "s"},
        {"milp.lp.iters_per_s", ratio(pm.lp_iterations, pm.lp_seconds), "1/s"},
        {"milp.lp.warm_frac", ratio(pm.lp_warm_used, pm.lp_solves), "ratio"},
        {"milp.lp.dual_frac", ratio(pm.lp_dual_used, pm.lp_solves), "ratio"},
        {"milp.lp.refactorizations", pm.lp_refactorizations / tp, "count"},
        {"milp.kernel.pricing_s", P.kernel.pricing_seconds, "s"},
        {"milp.kernel.ftran_s", P.kernel.ftran_seconds, "s"},
        {"milp.kernel.btran_s", P.kernel.btran_seconds, "s"},
        {"milp.kernel.factor_s", P.kernel.factor_seconds, "s"},
        {"milp.kernel.dse_s", P.kernel.dse_seconds, "s"},
        {"milp.kernel.unattributed_frac",
         P.kernel_lp_s > 0.0 ? 1.0 - kernel_stages / P.kernel_lp_s : 0.0,
         "ratio"},
        {"milp.bnb.nodes", pm.bnb_nodes / tp, "count"},
        {"milp.bnb.wall_s", layers.bnb_wall_s / tp, "s"},
        {"milp.bnb.nodes_per_s", ratio(pm.bnb_nodes, layers.bnb_wall_s), "1/s"},
        {"milp.bnb.worker_busy_frac",
         ratio(layers.bnb_lp_s, layers.bnb_thread_s), "ratio"},
        {"milp.bnb.pool_dropped", pm.bnb_pool_dropped / tp, "count"},
        {"milp.bnb.lock_wait_s", layers.bnb_lock_wait_s / tp, "s"},
        {"milp.bnb.lock_contended_frac",
         ratio(layers.bnb_lock_contended, layers.bnb_lock_acq), "ratio"},
        {"core.remap.attempts", pm.remap_attempts / tp, "count"},
        {"core.remap.attempt_ok_frac",
         ratio(pm.remap_attempts_cpd_ok, pm.remap_attempts), "ratio"},
        {"core.remap.failed_attempt_s", layers.failed_attempt_s / tp, "s"},
        {"core.remap.self_s", layers.remap_self_s / tp, "s"},
        {"core.step1.s", layers.step1_s / tp, "s"},
        {"core.step1.probes", layers.step1_probes / tp, "count"},
        {"core.presearch.s", layers.presearch_s / tp, "s"},
        {"core.presearch.probes", layers.presearch_probes / tp, "count"},
        {"core.probe.warm_hit_frac", ratio(pm.probe_warm_hits, pm.probes),
         "ratio"},
        {"core.probe.rebuilds", pm.probe_rebuilds / tp, "count"},
        {"core.probe.fallbacks", pm.probe_fallbacks / tp, "count"},
        {"core.dive.rounds", layers.dive_rounds / tp, "count"},
        {"core.dive.self_s", layers.dive_self_s / tp, "s"},
        {"core.ls.s", layers.ls_s / tp, "s"},
        {"core.ls.moves_examined", pm.ls_moves_examined / tp, "count"},
        {"core.ls.accept_frac",
         ratio(pm.ls_moves_accepted, pm.ls_moves_examined), "ratio"},
        {"core.ls.oracle_calls", layers.ls_oracle_calls / tp, "count"},
        {"core.portfolio.races", pm.portfolio_races / tp, "count"},
        {"core.portfolio.ls_win_frac",
         ratio(pm.portfolio_ls_wins, pm.portfolio_races), "ratio"},
        {"core.portfolio.lock_wait_s", layers.portfolio_lock_wait_s / tp, "s"},
        {"verify.certify_rejections",
         static_cast<double>(certify_rejections) / passes, "count"},
        {"core.outcome_flips", static_cast<double>(flips), "count"},
        {"obs.traced_remap_s", layers.remap_s / tp, "s"},
        {"obs.trace_overhead_frac", ratio(traced_total, wall_total) - 1.0,
         "ratio"},
        {"obs.self_cover_frac", ratio(cover, layers.remap_s), "ratio"},
    };
    for (const auto& [name, s] : P.call_s) ms.push_back({name, s, "s"});
  }

  obs::JsonWriter w;
  w.begin_object().field("case", "summary");
  append_meta(w, *wl, args.seed);
  w.field("trace", args.trace)
      .field("passes", static_cast<long>(passes))
      .field("traced_passes", static_cast<long>(traced_passes))
      .field("remaps_per_pass", static_cast<long>(n_remaps))
      .field("calls", attempted)
      .field("failed", failed)
      .field("fail_frac", static_cast<double>(failed) /
                              static_cast<double>(std::max(1L, attempted)))
      .field("tail_percentile", 100.0 * tail_q)
      .field("tail_calls", static_cast<long>(all_calls.size()))
      .field("tail_calls_beyond", beyond)
      .field("outcome_digest", hex(digest))
      .field("measured_s", now_seconds() - t_loop);
  w.key("pass_s").begin_array();
  for (const double t : pass_times) w.value(t);
  w.end_array().field("setup_samples", static_cast<long>(setup_times.size()));
  for (const Metric& m : ms) w.field(m.name, m.value);
  w.end_object();
  std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());

  std::printf("remap_e2e: %s %s, %d passes (%d traced), %ld calls, %ld "
              "failed, outcome digest %s\n",
              wl->name, args.trace ? "per-layer" : "end-to-end", passes,
              traced_passes, attempted, failed, hex(digest).c_str());
  if (!args.trace)
    std::printf("  remap_s.tail is p%g over %zu calls (%ld beyond)\n",
                100.0 * tail_q, all_calls.size(), beyond);
  print_metrics(ms);
  std::printf("%s\n", result_line(correct, attempted, failed, ms).c_str());
  return 0;
}
