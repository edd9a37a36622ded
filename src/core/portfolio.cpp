#include "core/portfolio.h"

#include <thread>
#include <utility>

#include "obs/event_log.h"
#include "util/clock.h"
#include "util/sync.h"

namespace cgraf::core {

const char* to_string(PortfolioWinner w) {
  switch (w) {
    case PortfolioWinner::kNone: return "none";
    case PortfolioWinner::kExact: return "exact";
    case PortfolioWinner::kLocalSearch: return "ls";
  }
  return "?";
}

PortfolioResult race_portfolio(ProbeSession& session, RemapModelSpec ls_spec,
                               double st_target,
                               const PortfolioOptions& opts) {
  const double t_start = now_seconds();
  PortfolioResult res;
  ls_spec.st_target = st_target;

  std::atomic<bool> cancel{false};
  session.set_cancel(&cancel);

  // --- Seeding sprint (synchronous, before the race clock matters).
  std::vector<double> seed_vec;
  if (opts.seed_incumbent) {
    LocalSearchOptions sprint = opts.ls;
    sprint.max_iters = opts.sprint_iters;
    sprint.restarts = 1;
    sprint.cancel = nullptr;
    const LocalSearchResult sprint_res = local_search_remap(ls_spec, sprint);
    res.ls.stats.add(sprint_res.stats);
    if (sprint_res.feasible && sprint_res.certified) {
      const RemapModel* rm = session.model_at(st_target);
      if (rm != nullptr) {
        seed_vec = rm->encode(sprint_res.floorplan);
        if (!seed_vec.empty()) {
          session.set_initial_incumbent(&seed_vec);
          res.incumbent_seeded = true;
        }
      }
    }
  }

  // --- The race.
  Mutex mu("portfolio", lock_rank::kPortfolio);
  CondVar cv;
  bool exact_done = false;       // guarded by mu
  bool ls_done = false;          // guarded by mu
  PortfolioWinner winner = PortfolioWinner::kNone;  // guarded by mu

  std::thread t_exact([&] {
    TwoStepResult r = session.solve(st_target);
    const bool ok = r.status == milp::SolveStatus::kOptimal;
    res.exact = std::move(r);  // sole writer until joined
    MutexLock lock(&mu);
    exact_done = true;
    if (ok && winner == PortfolioWinner::kNone)
      winner = PortfolioWinner::kExact;
    cv.notify_all();
  });
  std::thread t_ls([&] {
    LocalSearchOptions ls_opts = opts.ls;
    ls_opts.cancel = &cancel;
    LocalSearchResult r = local_search_remap(ls_spec, ls_opts);
    const bool ok = r.feasible && r.certified;
    res.ls.stats.add(r.stats);
    res.ls.feasible = r.feasible;
    res.ls.certified = r.certified;
    res.ls.floorplan = std::move(r.floorplan);
    res.ls.score = r.score;
    res.ls.max_stress = r.max_stress;
    MutexLock lock(&mu);
    ls_done = true;
    if (ok && winner == PortfolioWinner::kNone)
      winner = PortfolioWinner::kLocalSearch;
    cv.notify_all();
  });

  {
    MutexLock lock(&mu);
    while (winner == PortfolioWinner::kNone && !(exact_done && ls_done))
      cv.wait(mu);
  }
  // Stop the loser (a no-op for a racer that already finished) and wait for
  // both so no solver outlives this frame (seed_vec, cancel are locals).
  cancel.store(true, std::memory_order_relaxed);
  t_exact.join();
  t_ls.join();
  session.set_initial_incumbent(nullptr);
  session.set_cancel(nullptr);

  {
    MutexLock lock(&mu);
    res.winner = winner;
  }
  res.seconds = now_seconds() - t_start;

  obs::Event(opts.ls.events, "portfolio.result")
      .arg("winner", to_string(res.winner))
      .arg("st_target", st_target)
      .arg("seeded", res.incumbent_seeded)
      .arg("exact_status", milp::to_string(res.exact.status))
      .arg("ls_feasible", res.ls.feasible)
      .arg("seconds", res.seconds);
  return res;
}

}  // namespace cgraf::core
