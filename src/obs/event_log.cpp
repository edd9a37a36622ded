#include "obs/event_log.h"

#include <cerrno>
#include <cmath>
#include <cstring>

#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "util/check.h"
#include "util/clock.h"

namespace cgraf::obs {

namespace {

// Flush a thread buffer to the sink once it grows past this. Small enough
// that an aborted run loses at most a few KB per thread, large enough that
// sink-lock traffic stays rare relative to emission.
constexpr std::size_t kFlushThreshold = 16 * 1024;

// Epochs are globally unique across EventLog instances so a stale cached
// entry for a destroyed log can never match a new log that happens to be
// allocated at the same address.
std::atomic<std::uint64_t> g_epoch_source{0};

struct CachedBuf {
  const void* log = nullptr;
  std::uint64_t epoch = 0;
  void* buf = nullptr;
};

// A thread emits to very few logs (the global one, plus maybe a test's
// private instance), so a tiny fixed cache with linear scan is enough.
thread_local CachedBuf t_cache[2];

}  // namespace

EventLog& EventLog::global() {
  static EventLog* log = new EventLog();  // leaked: outlives exit-time dtors
  return *log;
}

EventLog::~EventLog() { close(); }

void EventLog::start() {
  epoch_.store(++g_epoch_source, std::memory_order_relaxed);
  t0_.store(now_seconds(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
  Event header(this, "log.header");
  header.arg("schema", kEventLogSchemaVersion)
      .arg("git_sha", git_sha())
      .arg("compiler", compiler_id())
      .arg("hardware_threads", hardware_threads());
}

bool EventLog::open(const std::string& path, std::string* error) {
  close();
  {
    MutexLock lk(&sink_mu_);
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      if (error != nullptr) {
        // Error path under sink_mu_, right after the failing fopen; the
        // racy static buffer is acceptable here and strerror_r is not
        // portable across libcs.
        *error = "cannot open event log '" + path + "': " +
                 std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
      }
      return false;
    }
    memory_mode_ = false;
  }
  start();
  return true;
}

void EventLog::open_memory() {
  close();
  {
    MutexLock lk(&sink_mu_);
    memory_mode_ = true;
    memory_.clear();
  }
  start();
}

double EventLog::now_us() const {
  return (now_seconds() - t0_.load(std::memory_order_relaxed)) * 1e6;
}

EventLog::ThreadBuf* EventLog::this_thread_buf() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  for (CachedBuf& c : t_cache) {
    if (c.log == this && c.epoch == epoch) {
      return static_cast<ThreadBuf*>(c.buf);
    }
  }
  ThreadBuf* buf = nullptr;
  {
    MutexLock lk(&reg_mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>(next_tid_++));
    buf = bufs_.back().get();
  }
  // Evict the slot not pointing at this log (or the first one).
  CachedBuf* victim = &t_cache[0];
  for (CachedBuf& c : t_cache) {
    if (c.log != this) {
      victim = &c;
      break;
    }
  }
  victim->log = this;
  victim->epoch = epoch;
  victim->buf = buf;
  return buf;
}

int EventLog::thread_id() { return this_thread_buf()->tid; }

void EventLog::write_sink(const char* data, std::size_t size) {
  if (memory_mode_) {
    memory_.append(data, size);
  } else if (file_ != nullptr) {
    std::fwrite(data, 1, size, file_);
  }
}

void EventLog::flush_buf(ThreadBuf& buf) {
  MutexLock lk(&buf.mu);
  if (buf.data.empty()) return;
  MutexLock sink(&sink_mu_);
  write_sink(buf.data.data(), buf.data.size());
  buf.data.clear();
}

void EventLog::append_line(const std::string& line) {
  if (!enabled()) return;
  ThreadBuf* buf = this_thread_buf();
  MutexLock lk(&buf->mu);
  buf->data += line;
  buf->data += '\n';
  if (buf->data.size() >= kFlushThreshold) {
    MutexLock sink(&sink_mu_);
    write_sink(buf->data.data(), buf->data.size());
    buf->data.clear();
  }
}

void EventLog::flush() {
  MutexLock reg(&reg_mu_);
  for (auto& buf : bufs_) flush_buf(*buf);
  MutexLock sink(&sink_mu_);
  if (file_ != nullptr) std::fflush(file_);
}

void EventLog::close() {
  enabled_.store(false, std::memory_order_release);
  // Invalidate per-thread caches so a later reopen hands out fresh buffers.
  // The old ThreadBufs are deliberately NOT destroyed (only drained): a
  // thread that raced past the enabled_ check may still hold a pointer to
  // its buffer, and keeping the object alive makes that race harmless —
  // its late line simply never reaches the sink.
  epoch_.store(++g_epoch_source, std::memory_order_relaxed);
  MutexLock reg(&reg_mu_);
  for (auto& buf : bufs_) flush_buf(*buf);
  MutexLock sink(&sink_mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::string EventLog::memory_contents() {
  flush();
  MutexLock sink(&sink_mu_);
  return memory_;
}

// --- Event ---------------------------------------------------------------

namespace {

void append_key(std::string& out, const char* key) {
  out += ",\"";
  JsonWriter::append_escaped(out, key);
  out += "\":";
}

}  // namespace

Event::~Event() {
  if (log_ == nullptr) return;
  std::string line;
  line.reserve(48 + std::strlen(type_) + args_.size());
  line += "{\"type\":\"";
  JsonWriter::append_escaped(line, type_);
  line += "\",\"t\":";
  const double t = log_->now_us();
  line += std::to_string(static_cast<long long>(std::llround(t)));
  line += ",\"tid\":";
  line += std::to_string(log_->thread_id());
  line += args_;
  line += '}';
  log_->append_line(line);
}

Event& Event::arg(const char* key, double v) {
  if (log_ == nullptr) return *this;
  append_key(args_, key);
  if (!std::isfinite(v)) {
    args_ += "null";  // same policy as JsonWriter::value(double)
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    args_ += buf;
  }
  return *this;
}

Event& Event::arg(const char* key, long v) {
  if (log_ == nullptr) return *this;
  append_key(args_, key);
  args_ += std::to_string(v);
  return *this;
}

Event& Event::arg(const char* key, bool v) {
  if (log_ == nullptr) return *this;
  append_key(args_, key);
  args_ += v ? "true" : "false";
  return *this;
}

Event& Event::arg(const char* key, const char* v) {
  if (log_ == nullptr) return *this;
  append_key(args_, key);
  args_ += '"';
  JsonWriter::append_escaped(args_, v);
  args_ += '"';
  return *this;
}

Event& Event::arg(const char* key, const std::string& v) {
  if (log_ == nullptr) return *this;
  append_key(args_, key);
  args_ += '"';
  JsonWriter::append_escaped(args_, v);
  args_ += '"';
  return *this;
}

void log_mutex_stats(EventLog* log) {
  if (log == nullptr || !log->enabled()) return;
  for (const auto& [name, s] : sync_mutex_stats()) {
    Event(log, "sync.mutex")
        .arg("name", name)
        .arg("acquisitions", s.acquisitions)
        .arg("contended", s.contended)
        .arg("wait_seconds", s.wait_seconds);
  }
}

}  // namespace cgraf::obs
