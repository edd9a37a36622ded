// EventLog: record shape, per-thread ordering, flush semantics, reopen
// behavior, and a TSan-friendly stress test (EventLogStress) with real
// parallel branch & bound workers feeding one log.
#include "obs/event_log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "json_check.h"
#include "milp/branch_and_bound.h"
#include "milp/model.h"
#include "obs/json_reader.h"
#include "util/rng.h"

namespace cgraf::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(EventLog, HeaderAndRecordShape) {
  EventLog log;
  log.open_memory();
  {
    Event ev(&log, "lp.solve");
    ASSERT_TRUE(ev.active());
    ev.arg("iterations", 12L)
        .arg("obj", 1.5)
        .arg("warm_used", true)
        .arg("status", "optimal");
  }
  log.close();
  const auto lines = lines_of(log.memory_contents());
  ASSERT_EQ(lines.size(), 2u);

  std::string why;
  for (const auto& line : lines)
    EXPECT_TRUE(test::JsonChecker::valid(line, &why)) << why << "\n" << line;

  JsonValue header;
  std::string err;
  ASSERT_TRUE(parse_json(lines[0], &header, &err)) << err;
  EXPECT_EQ(header.str_or("type", ""), "log.header");
  EXPECT_EQ(header.int_or("schema", 0), kEventLogSchemaVersion);
  EXPECT_FALSE(header.str_or("compiler", "").empty());
  EXPECT_FALSE(header.str_or("git_sha", "").empty());

  JsonValue rec;
  ASSERT_TRUE(parse_json(lines[1], &rec, &err)) << err;
  EXPECT_EQ(rec.str_or("type", ""), "lp.solve");
  EXPECT_EQ(rec.int_or("iterations", -1), 12);
  EXPECT_DOUBLE_EQ(rec.num_or("obj", 0.0), 1.5);
  EXPECT_TRUE(rec.bool_or("warm_used", false));
  EXPECT_EQ(rec.str_or("status", ""), "optimal");
  EXPECT_GE(rec.num_or("t", -1.0), 0.0);
  EXPECT_GE(rec.int_or("tid", -1), 0);
}

TEST(EventLog, NonFiniteArgsBecomeNull) {
  EventLog log;
  log.open_memory();
  {
    Event ev(&log, "x");
    ev.arg("nan", std::nan(""))
        .arg("inf", std::numeric_limits<double>::infinity())
        .arg("fine", 2.0);
  }
  log.close();
  const std::string text = log.memory_contents();
  EXPECT_NE(text.find("\"nan\":null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"inf\":null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"fine\":2"), std::string::npos) << text;
}

TEST(EventLog, StringArgsAreEscaped) {
  EventLog log;
  log.open_memory();
  {
    Event ev(&log, "x");
    ev.arg("s", std::string("a\"b\\c\nd"));
  }
  log.close();
  const auto lines = lines_of(log.memory_contents());
  ASSERT_EQ(lines.size(), 2u);
  std::string why;
  EXPECT_TRUE(test::JsonChecker::valid(lines[1], &why)) << why;
  JsonValue rec;
  std::string err;
  ASSERT_TRUE(parse_json(lines[1], &rec, &err)) << err;
  EXPECT_EQ(rec.str_or("s", ""), "a\"b\\c\nd");
}

TEST(EventLog, DisabledLogEmitsNothing) {
  EventLog log;
  {
    Event ev(&log, "x");
    EXPECT_FALSE(ev.active());
    ev.arg("k", 1L);
  }
  log.open_memory();
  log.close();
  // Only the header from the open/close cycle; the pre-open event is gone.
  const auto lines = lines_of(log.memory_contents());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("log.header"), std::string::npos);
}

TEST(EventLog, PerThreadOrderIsPreserved) {
  EventLog log;
  log.open_memory();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&log, w] {
      for (int i = 0; i < kPerThread; ++i) {
        Event ev(&log, "seq");
        ev.arg("w", static_cast<long>(w)).arg("i", static_cast<long>(i));
      }
    });
  }
  for (auto& t : workers) t.join();
  log.close();

  // Per tid, the "i" sequence must be strictly increasing: a thread's own
  // records never reorder, whatever the interleaving across threads.
  std::map<long, long> last_seen;  // tid -> last i
  long total = 0;
  for (const auto& line : lines_of(log.memory_contents())) {
    JsonValue rec;
    std::string err;
    ASSERT_TRUE(parse_json(line, &rec, &err)) << err << "\n" << line;
    if (rec.str_or("type", "") != "seq") continue;
    ++total;
    const long tid = rec.int_or("tid", -1);
    const long i = rec.int_or("i", -1);
    const auto it = last_seen.find(tid);
    if (it != last_seen.end()) {
      EXPECT_GT(i, it->second) << "tid " << tid << " reordered";
    }
    last_seen[tid] = i;
  }
  EXPECT_EQ(total, static_cast<long>(kThreads) * kPerThread);
}

TEST(EventLog, FlushOnCloseCollectsExitedThreads) {
  // A thread writes less than the auto-flush threshold and exits; close()
  // must still drain its buffer (the log owns the buffers, not the thread).
  EventLog log;
  log.open_memory();
  std::thread([&log] {
    Event ev(&log, "from_dead_thread");
    ev.arg("k", 7L);
  }).join();
  log.close();
  EXPECT_NE(log.memory_contents().find("from_dead_thread"),
            std::string::npos);
}

TEST(EventLog, FlushWhileEnabledPreservesSubsequentEmission) {
  EventLog log;
  log.open_memory();
  { Event(&log, "before"); }
  log.flush();
  EXPECT_NE(log.memory_contents().find("before"), std::string::npos);
  { Event(&log, "after"); }
  log.close();
  const std::string text = log.memory_contents();
  EXPECT_NE(text.find("after"), std::string::npos);
  EXPECT_LT(text.find("before"), text.find("after"));
}

TEST(EventLog, ReopenStartsAFreshStream) {
  EventLog log;
  log.open_memory();
  { Event(&log, "first_session"); }
  log.close();
  const std::string first = log.memory_contents();
  EXPECT_NE(first.find("first_session"), std::string::npos);

  log.open_memory();
  { Event(&log, "second_session"); }
  log.close();
  const std::string second = log.memory_contents();
  EXPECT_NE(second.find("second_session"), std::string::npos);
  EXPECT_EQ(second.find("first_session"), std::string::npos)
      << "reopen must not leak records from the previous session";
}

TEST(EventLog, FileSinkWritesJsonl) {
  char path_buf[] = "/tmp/cgraf_event_log_test_XXXXXX";
  const int fd = mkstemp(path_buf);
  ASSERT_GE(fd, 0);
  ::close(fd);
  const std::string path(path_buf);

  EventLog log;
  std::string error;
  ASSERT_TRUE(log.open(path, &error)) << error;
  { Event(&log, "on_disk").arg("k", 1L); }
  log.close();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(text.find("log.header"), std::string::npos);
  EXPECT_NE(text.find("on_disk"), std::string::npos);
  for (const auto& line : lines_of(text)) {
    if (line.empty()) continue;
    std::string why;
    EXPECT_TRUE(test::JsonChecker::valid(line, &why)) << why << "\n" << line;
  }
}

TEST(EventLog, OpenFailureReportsError) {
  EventLog log;
  std::string error;
  EXPECT_FALSE(log.open("/nonexistent_dir_zz/x.jsonl", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(log.enabled());
}

// A small but genuinely fractional MILP: maximize sum x_i with pairwise
// coupling rows, so branch & bound opens a real tree.
milp::Model stress_model(std::uint64_t seed, int n) {
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

// Named so the CI TSan lane's filter picks it up: parallel B&B workers all
// appending to one shared EventLog while another thread flushes
// concurrently.
TEST(EventLogStress, ParallelBnbWorkersShareOneLog) {
  EventLog log;
  log.open_memory();

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_relaxed)) log.flush();
  });

  const milp::Model m = stress_model(17, 18);
  milp::MipOptions opts;
  opts.events = &log;
  opts.num_threads = 4;
  const milp::MipResult res = milp::solve_milp(m, opts);
  EXPECT_TRUE(res.has_solution());

  stop.store(true, std::memory_order_relaxed);
  flusher.join();
  log.close();

  // The stream survives the concurrency intact: every line valid JSON, and
  // exactly one bnb.node record per counted node.
  long node_records = 0;
  for (const auto& line : lines_of(log.memory_contents())) {
    JsonValue rec;
    std::string err;
    ASSERT_TRUE(parse_json(line, &rec, &err)) << err << "\n" << line;
    if (rec.str_or("type", "") == "bnb.node") ++node_records;
  }
  EXPECT_EQ(node_records, res.nodes);
}

TEST(EventLogStress, CloseRacesWithEmitters) {
  // Emitters keep firing while the log is closed and reopened; no crash,
  // no torn lines. (Drop-after-disable is expected and fine.)
  EventLog log;
  log.open_memory();
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      long i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Event ev(&log, "race");
        ev.arg("i", i++);
      }
    });
  }
  for (int cycle = 0; cycle < 20; ++cycle) {
    log.close();
    log.open_memory();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  log.close();
  for (const auto& line : lines_of(log.memory_contents())) {
    if (line.empty()) continue;
    std::string why;
    ASSERT_TRUE(test::JsonChecker::valid(line, &why)) << why << "\n" << line;
  }
}

}  // namespace
}  // namespace cgraf::obs
