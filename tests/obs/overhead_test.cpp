// Allocation contracts, checked by counting heap allocations:
// - the event log's disabled fast path: building and annotating events
//   while the log is off must not allocate;
// - the simplex kernel: after one warm-up, refactorizing and solving with a
//   BasisLu allocates nothing, and a warm re-solve on a SimplexEngine
//   allocates only its result.
// Lives in its own binary because it replaces global operator new/delete
// to count heap activity, which would perturb every other test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "../milp/assignment_model.h"
#include "milp/lu.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "milp/sparse.h"
#include "obs/event_log.h"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cgraf::obs {
namespace {

TEST(Overhead, DisabledEventLogFastPathDoesNotAllocate) {
  // The contract behind `--log-events` being free when off: an Event built
  // against a disabled (or null) log is inert — no heap, no buffers.
  EventLog log;
  ASSERT_FALSE(log.enabled());

  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    Event ev(&log, "lp.solve");
    ev.arg("iterations", static_cast<long>(i))
        .arg("obj", 1.5)
        .arg("warm_used", true)
        .arg("status", "optimal");
    Event null_log(nullptr, "bnb.node");
    null_log.arg("depth", 3);
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "disabled solve events must not touch the heap";
}

TEST(Overhead, EventLogConfirmsAllocationsWhenEnabled) {
  // Sanity check for the interposed counter: an enabled in-memory log must
  // allocate while rendering the record.
  EventLog log;
  log.open_memory();
  const long before = g_allocations.load(std::memory_order_relaxed);
  {
    Event ev(&log, "lp.solve");
    ev.arg("iterations", 7L);
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after - before, 0);
  log.close();
}

}  // namespace
}  // namespace cgraf::obs

namespace cgraf::milp {
namespace {

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(Overhead, LuRefactorizeAndSolvesDoNotAllocateAfterWarmUp) {
  const Model m = assignment_model(48, 36, 4, 3);
  const CscMatrix a = build_computational_form(m);
  const LpResult lp = solve_lp(m);
  std::vector<int> basis, entering;
  for (int j = 0; j < static_cast<int>(lp.basis.size()); ++j) {
    if (lp.basis[static_cast<size_t>(j)] == ColStatus::kBasic)
      basis.push_back(j);
    else if (entering.size() < 8)
      entering.push_back(j);
  }
  ASSERT_EQ(static_cast<int>(basis.size()), a.rows);
  const size_t rows = static_cast<size_t>(a.rows);
  std::vector<double> spike(rows), b(rows), c(rows);

  // Factorize the optimal basis, take eight eta updates, then solve.
  BasisLu lu;
  auto cycle = [&] {
    bool ok = lu.factorize(a, basis);
    for (const int j : entering) {
      std::fill(spike.begin(), spike.end(), 0.0);
      a.axpy_col(j, 1.0, spike);
      lu.ftran(spike);
      size_t pos = 0;
      for (size_t i = 1; i < rows; ++i)
        if (std::abs(spike[i]) > std::abs(spike[pos])) pos = i;
      ok = lu.update(spike, static_cast<int>(pos)) && ok;
    }
    std::fill(b.begin(), b.end(), 1.0);
    lu.ftran(b);
    std::fill(c.begin(), c.end(), 1.0);
    lu.btran(c);
    return ok;
  };
  ASSERT_TRUE(cycle());  // warm-up: sizes every buffer
  ASSERT_EQ(lu.num_updates(), 8);

  const long before = allocations();
  const bool ok = cycle();
  const long after = allocations();
  EXPECT_TRUE(ok);
  EXPECT_EQ(after - before, 0)
      << "a warmed BasisLu must refactorize, update and solve in place";
}

TEST(Overhead, WarmChildResolveAllocatesOnlyItsResult) {
  // The branch & bound child shape: one tightened bound, warm from the
  // parent's optimal basis.
  const Model m = assignment_model(48, 36, 4, 42);
  SimplexEngine engine(m);
  const LpResult root = engine.solve();
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  std::vector<int> branch_vars;
  for (int j = 0;
       j < engine.num_structural() && static_cast<int>(branch_vars.size()) < 16;
       ++j) {
    if (root.basis[static_cast<size_t>(j)] == ColStatus::kBasic)
      branch_vars.push_back(j);
  }
  const std::vector<double>& lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  long dual_iters = 0;
  for (int round = 0; round < 2; ++round) {  // round 0 warms the engine up
    for (const int v : branch_vars) {
      const double saved = ub[static_cast<size_t>(v)];
      ub[static_cast<size_t>(v)] = 0.0;
      const long before = allocations();
      const LpResult r = engine.solve(lb, ub, &root.basis);
      const long after = allocations();
      ub[static_cast<size_t>(v)] = saved;
      ASSERT_TRUE(r.warm_used);
      if (round == 0) continue;
      dual_iters += r.stats.dual_iterations;
      EXPECT_EQ(after - before, 2)
          << "child " << v << ": a warm re-solve allocates only "
          << "LpResult::x and LpResult::basis";
    }
  }
  EXPECT_GT(dual_iters, 0);
}

}  // namespace
}  // namespace cgraf::milp
