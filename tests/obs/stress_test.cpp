// TSan stress: emit records from many threads and export them as a Chrome
// trace, and snapshot mutex contention into the event log while the mutex
// is busy.
// These run under -fsanitize=thread in CI (the ObsStress ctest filter); the
// exact count assertions double as lost-update checks under plain builds.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "obs/postmortem.h"
#include "util/sync.h"

namespace cgraf::obs {
namespace {

constexpr int kThreads = 8;
constexpr int kIters = 500;

TEST(ObsStress, TracerUnderThreads) {
  EventLog log;
  log.open_memory();
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&log] {
      for (int i = 0; i < kIters; ++i) {
        Event(&log, "stress.span").arg("i", i).arg("seconds", 1e-6);
        Event(&log, "stress.instant");
      }
    });
  }
  for (std::thread& t : pool) t.join();
  log.close();

  JsonValue doc;
  std::string why;
  ASSERT_TRUE(parse_json(chrome_trace(log.memory_contents()), &doc, &why))
      << why;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  // One complete event per span and one instant per iteration, each
  // thread on its own lane.
  long spans = 0, instants = 0;
  std::set<long> lanes;
  for (const JsonValue& ev : events->arr) {
    const std::string name = ev.str_or("name", "");
    if (name == "stress.span" && ev.str_or("ph", "") == "X") {
      ++spans;
      lanes.insert(ev.int_or("tid", -1));
    } else if (name == "stress.instant" && ev.str_or("ph", "") == "i") {
      ++instants;
    }
  }
  EXPECT_EQ(spans, static_cast<long>(kThreads) * kIters);
  EXPECT_EQ(instants, static_cast<long>(kThreads) * kIters);
  EXPECT_EQ(lanes.size(), static_cast<std::size_t>(kThreads));
}

TEST(ObsStress, SyncExportWhileMutexesAreBusy) {
  EventLog log;
  log.open_memory();
  Mutex mu("test.obsstress.export", 99);
  std::atomic<bool> stop{false};
  std::thread hammer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MutexLock lk(&mu);
    }
  });
  for (int i = 0; i < 50; ++i) log_mutex_stats(&log);
  stop.store(true, std::memory_order_relaxed);
  hammer.join();
  log_mutex_stats(&log);
  log.close();

  // The snapshot taken after the join supersedes the 50 busy ones.
  PostmortemReport report;
  std::string error;
  ASSERT_TRUE(analyze_events(log.memory_contents(), &report, &error))
      << error;
  EXPECT_EQ(report.locks.at("test.obsstress.export").acquisitions,
            mu.stats().acquisitions);
}

}  // namespace
}  // namespace cgraf::obs
