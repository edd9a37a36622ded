// Regression test for the event log's disabled fast path: building and
// annotating events while the log is off must not allocate. Lives in its
// own binary because it replaces global operator new/delete to count heap
// activity, which would perturb every other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

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
