#include "util/sync.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/clock.h"

namespace cgraf {
namespace {

#ifdef NDEBUG
constexpr bool kDetectByDefault = false;
#else
constexpr bool kDetectByDefault = true;
#endif

std::atomic<bool> g_deadlock_detection{kDetectByDefault};

// Per-thread stack of currently held annotated mutexes. Fixed capacity:
// the lock hierarchy is four levels deep today, so 32 is generous; pushes
// past the cap are dropped (and the matching pop tolerates a miss) rather
// than corrupting memory.
constexpr int kMaxHeld = 32;
struct HeldStack {
  const Mutex* held[kMaxHeld];
  int n = 0;
};
thread_local HeldStack t_held;

[[noreturn]] void lock_order_failure(const Mutex* acquiring,
                                     const Mutex* held) {
  std::fprintf(stderr,
               "cgraf: lock-order violation: acquiring \"%s\" (rank %d) "
               "while holding \"%s\" (rank %d); ranks must be strictly "
               "increasing along every acquisition chain (see DESIGN.md "
               "\"Concurrency model\")\n",
               acquiring->name(), acquiring->rank(), held->name(),
               held->rank());
  std::abort();
}

// Runs before blocking on `m`, so a potential deadlock cycle is reported
// instead of hit. Re-acquiring `m` itself trips the check too (equal
// rank): std::mutex self-deadlocks, and the hierarchy forbids equal ranks
// in one chain anyway.
void check_rank_order(const Mutex* m) {
  if (!g_deadlock_detection.load(std::memory_order_relaxed)) return;
  for (int i = 0; i < t_held.n; ++i) {
    if (t_held.held[i]->rank() >= m->rank()) lock_order_failure(m, t_held.held[i]);
  }
}

void push_held(const Mutex* m) {
  if (t_held.n < kMaxHeld) t_held.held[t_held.n++] = m;
}

// Removes the most recent entry for `m`. Scans from the top: releases are
// usually LIFO but out-of-order unlock is legal and must not desync the
// stack. Tolerates a miss (push dropped at capacity, or detection toggled
// mid-critical-section).
void pop_held(const Mutex* m) {
  for (int i = t_held.n - 1; i >= 0; --i) {
    if (t_held.held[i] == m) {
      for (int j = i + 1; j < t_held.n; ++j) t_held.held[j - 1] = t_held.held[j];
      --t_held.n;
      return;
    }
  }
}

// Live-mutex registry plus per-name totals of destroyed mutexes. Guarded
// by a plain std::mutex deliberately: the registry is below every annotated
// Mutex (construction/destruction must never recurse into rank checking),
// and it leaks by design so static-lifetime mutexes (the obs singletons)
// can deregister safely during exit teardown.
struct SyncRegistry {
  std::mutex mu;
  std::vector<Mutex*> live;
  std::map<std::string, MutexStats> retired;
};

SyncRegistry& sync_registry() {
  static SyncRegistry* r = new SyncRegistry;
  return *r;
}

void accumulate(MutexStats& into, const MutexStats& s) {
  into.acquisitions += s.acquisitions;
  into.contended += s.contended;
  into.wait_seconds += s.wait_seconds;
}

}  // namespace

Mutex::Mutex(const char* name, int rank) : name_(name), rank_(rank) {
  SyncRegistry& reg = sync_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.live.push_back(this);
}

Mutex::~Mutex() {
  SyncRegistry& reg = sync_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.live.erase(std::remove(reg.live.begin(), reg.live.end(), this),
                 reg.live.end());
  accumulate(reg.retired[name_], stats());
}

void Mutex::lock() {
  check_rank_order(this);
  if (!raw_.try_lock()) {
    contended_.fetch_add(1, std::memory_order_relaxed);
    const double t0 = now_seconds();
    raw_.lock();
    wait_seconds_.fetch_add(now_seconds() - t0, std::memory_order_relaxed);
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  push_held(this);
}

void Mutex::unlock() {
  pop_held(this);
  raw_.unlock();
}

bool Mutex::try_lock() {
  if (!raw_.try_lock()) return false;
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  push_held(this);
  return true;
}

MutexStats Mutex::stats() const {
  return {acquisitions_.load(std::memory_order_relaxed),
          contended_.load(std::memory_order_relaxed),
          wait_seconds_.load(std::memory_order_relaxed)};
}

void CondVar::wait(Mutex& mu) {
  // The wait releases and reacquires mu.raw_ internally; mirror that on the
  // held-lock stack so the detector's view stays consistent. The reacquire
  // is counted as an acquisition but not as contention: blocking on the
  // condition is intended, not lock contention.
  pop_held(&mu);
  std::unique_lock<std::mutex> lk(mu.raw_, std::adopt_lock);
  cv_.wait(lk);
  lk.release();
  mu.acquisitions_.fetch_add(1, std::memory_order_relaxed);
  push_held(&mu);
}

void set_deadlock_detection(bool enabled) {
  g_deadlock_detection.store(enabled, std::memory_order_relaxed);
}

bool deadlock_detection_enabled() {
  return g_deadlock_detection.load(std::memory_order_relaxed);
}

std::map<std::string, MutexStats> sync_mutex_stats() {
  SyncRegistry& reg = sync_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::map<std::string, MutexStats> out = reg.retired;
  for (const Mutex* m : reg.live) accumulate(out[m->name()], m->stats());
  return out;
}

}  // namespace cgraf
