// Structured solve-event log: schema-versioned JSONL records emitted by the
// solver pipeline (branch & bound nodes, simplex solves, ST_target probes,
// remap attempts). It is the one telemetry stream: post-mortem totals,
// percentiles, lock contention and the Chrome trace view are all derived
// from it (obs/postmortem.h).
//
// Design constraints:
//   - Near-zero cost when disabled: Event's constructor is a relaxed atomic
//     load and an early return — no allocation, no lock, no clock read
//     (regression-tested in tests/obs/overhead_test.cpp).
//   - Lock-free-ish when enabled: each emitting thread appends rendered
//     lines to its own buffer (one small mutex per thread, uncontended in
//     steady state) and only a buffer flush touches the shared sink. The
//     three locks rank kObsEventLog < kObsEventBuf < kObsEventSink in the
//     global hierarchy (util/sync.h), so emission is safe from any solver
//     context — including while a branch & bound worker holds bnb.shared.
//   - Crash-tolerant buffering: buffers auto-flush past a size threshold,
//     and close()/flush() drain every thread's buffer, including buffers of
//     threads that have already exited (the log owns them, not the thread).
//
// Record format: one JSON object per line. Every record carries
//   {"type":"<kind>","t":<microseconds since open>,"tid":<small thread id>}
// plus type-specific fields. `t` stamps the record's end; a record that
// times work carries its duration as `seconds`, so it spans
// [t - 1e6 * seconds, t] on lane `tid`. The first record is always
//   {"type":"log.header","schema":kEventLogSchemaVersion,...}
// with build/host metadata (obs/build_info.h), so analyzers can hard-fail
// on a schema they do not understand. The full event vocabulary is
// documented in DESIGN.md §11.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"

namespace cgraf::obs {

// Bump when a record type changes incompatibly (field renamed/retyped or
// removed). Adding new record types or new optional fields is compatible.
inline constexpr long kEventLogSchemaVersion = 1;

class EventLog {
 public:
  // The process-wide log the CLI's --log-events flag opens. Libraries never
  // reach for it directly: emission sites take an EventLog* through their
  // options structs (LpOptions/MipOptions/TwoStepOptions), so tests can run
  // against private instances.
  static EventLog& global();

  EventLog() = default;
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Opens `path` for writing, emits the header record and enables emission.
  // Returns false (with *error set) when the file cannot be created.
  bool open(const std::string& path, std::string* error);
  // Test/embedding sink: collect lines in memory instead of a file.
  void open_memory();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drains every thread buffer into the sink (preserving per-thread
  // emission order) without disabling the log.
  void flush();
  // Disables emission, drains all buffers and closes the file sink.
  // Idempotent; also runs from the destructor.
  void close();

  // Everything written so far (memory sink only); flushes first.
  std::string memory_contents();

  // Microseconds since open on the monotonic clock.
  double now_us() const;

  // Appends one rendered JSONL line ('\n' not included) to the calling
  // thread's buffer. Called by Event's destructor; callable directly for
  // pre-rendered records.
  void append_line(const std::string& line);

  // Small stable id for the calling thread within this log's lifetime.
  int thread_id();

 private:
  struct ThreadBuf {
    explicit ThreadBuf(int tid_in) : tid(tid_in) {}
    Mutex mu{"obs.event_buf", lock_rank::kObsEventBuf};
    std::string data CGRAF_GUARDED_BY(mu);
    const int tid;
  };

  ThreadBuf* this_thread_buf();
  void write_sink(const char* data, std::size_t size)
      CGRAF_REQUIRES(sink_mu_);
  void flush_buf(ThreadBuf& buf) CGRAF_EXCLUDES(buf.mu, sink_mu_);
  void start();

  std::atomic<bool> enabled_{false};
  // Bumped by every open(); invalidates per-thread cached buffer pointers
  // so a reopened log hands out fresh buffers.
  std::atomic<std::uint64_t> epoch_{0};
  // Stamped by open() before enabled_ is set; relaxed atomic so concurrent
  // timestamp reads during a reopen are merely imprecise, never racy.
  std::atomic<double> t0_{0.0};

  Mutex reg_mu_{"obs.event_log", lock_rank::kObsEventLog};
  std::vector<std::unique_ptr<ThreadBuf>> bufs_ CGRAF_GUARDED_BY(reg_mu_);
  int next_tid_ CGRAF_GUARDED_BY(reg_mu_) = 0;

  Mutex sink_mu_{"obs.event_sink", lock_rank::kObsEventSink};
  std::FILE* file_ CGRAF_GUARDED_BY(sink_mu_) = nullptr;
  bool memory_mode_ CGRAF_GUARDED_BY(sink_mu_) = false;
  std::string memory_ CGRAF_GUARDED_BY(sink_mu_);
};

// RAII builder for one event record. Inert (every method an immediate
// no-op) when the log pointer is null or the log is disabled, so call
// sites plumb an `EventLog*` unconditionally:
//
//   obs::Event ev(opts.events, "lp.solve");
//   ev.arg("iterations", res.iterations).arg("status", to_string(st));
//   // destructor stamps t/tid and appends the line
//
// Type names must be string literals (stored by pointer until render).
// Argument values go through JsonWriter, so strings are escaped and
// non-finite doubles serialize as null (see obs/json_writer.h).
class Event {
 public:
  Event(EventLog* log, const char* type) {
    if (log == nullptr || !log->enabled()) return;
    log_ = log;
    type_ = type;
  }
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool active() const { return log_ != nullptr; }

  Event& arg(const char* key, double v);
  Event& arg(const char* key, long v);
  Event& arg(const char* key, int v) { return arg(key, static_cast<long>(v)); }
  Event& arg(const char* key, bool v);
  Event& arg(const char* key, const char* v);
  Event& arg(const char* key, const std::string& v);

 private:
  EventLog* log_ = nullptr;
  const char* type_ = "";
  std::string args_;  // pre-rendered object-body fragment (no braces)
};

// Emits one sync.mutex record (name, acquisitions, contended, wait_seconds)
// per annotated mutex name: the process-wide contention totals of
// sync_mutex_stats() (util/sync.h). No-op when `log` is null or disabled.
void log_mutex_stats(EventLog* log);

}  // namespace cgraf::obs
