// Annotated synchronization layer: Clang thread-safety (capability)
// analysis, a runtime lock-order detector, and per-mutex contention
// counters.
//
// Why wrappers instead of std::mutex directly:
//   - Compile-time lock discipline. Under Clang with -Wthread-safety
//     (cmake -DCGRAF_THREAD_SAFETY=ON promotes it to an error), a field
//     annotated CGRAF_GUARDED_BY(mu) cannot be touched without holding
//     `mu`, and a function annotated CGRAF_REQUIRES(mu) cannot be called
//     without it. Data races on annotated state become compile errors
//     instead of TSan repros. Under GCC (or any compiler without the
//     capability attributes) every macro expands to nothing and Mutex is a
//     thin std::mutex wrapper.
//   - Deadlock-cycle detection. Every Mutex carries a rank from the global
//     lock hierarchy below. When detection is on (default in debug builds;
//     set_deadlock_detection() overrides at runtime), each thread keeps a
//     stack of held locks and acquiring a mutex whose rank is <= any held
//     rank aborts with both lock names — the moment a potential A->B/B->A
//     cycle exists, not the unlucky run where it deadlocks.
//   - Contention visibility. Each Mutex counts acquisitions, contended
//     acquisitions (the uncontended try_lock fast path failed) and the
//     seconds spent blocked; sync_mutex_stats() returns the per-name
//     aggregates, which obs::log_mutex_stats() writes to the solve-event
//     log as sync.mutex records.
//
// The lock hierarchy (see DESIGN.md "Concurrency model"): a thread may only
// acquire mutexes in strictly increasing rank order. Ranks are spaced so
// new locks can slot between existing levels.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>

#include "util/check.h"

// --- Clang capability-analysis attributes (no-ops elsewhere) -------------

#ifdef __has_attribute
#define CGRAF_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define CGRAF_HAS_ATTRIBUTE(x) 0
#endif

#if CGRAF_HAS_ATTRIBUTE(capability)
#define CGRAF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CGRAF_THREAD_ANNOTATION(x)
#endif

// On types: declares a capability ("mutex" in diagnostics).
#define CGRAF_CAPABILITY(x) CGRAF_THREAD_ANNOTATION(capability(x))
// On RAII types whose constructor acquires and destructor releases.
#define CGRAF_SCOPED_CAPABILITY CGRAF_THREAD_ANNOTATION(scoped_lockable)
// On data members: may only be read/written while holding the capability.
#define CGRAF_GUARDED_BY(x) CGRAF_THREAD_ANNOTATION(guarded_by(x))
// On pointer members: the pointee is protected by the capability.
#define CGRAF_PT_GUARDED_BY(x) CGRAF_THREAD_ANNOTATION(pt_guarded_by(x))
// On functions: caller must hold / must not hold the capability.
#define CGRAF_REQUIRES(...) \
  CGRAF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define CGRAF_EXCLUDES(...) CGRAF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// On functions: acquire/release the capability (no argument: `this`).
#define CGRAF_ACQUIRE(...) \
  CGRAF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define CGRAF_RELEASE(...) \
  CGRAF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define CGRAF_TRY_ACQUIRE(...) \
  CGRAF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// On functions returning a reference to a guarded capability.
#define CGRAF_RETURN_CAPABILITY(x) CGRAF_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch; use only with a comment explaining why it is safe.
#define CGRAF_NO_THREAD_SAFETY_ANALYSIS \
  CGRAF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cgraf {

// The process-wide lock hierarchy. Acquisition order must be strictly
// increasing in rank; document every addition in DESIGN.md §10.
namespace lock_rank {
// milp: branch & bound shared search state (node pool, incumbent, worker
// coordination). Lowest rank: workers publish results into the obs layer
// (rank >= 45) while holding it during result assembly.
inline constexpr int kBnbShared = 10;
// obs: event-log buffer registry (the list of per-thread buffers).
inline constexpr int kObsEventLog = 45;
// obs: one per-thread event buffer. Acquired after the registry on the
// flush-all path; emitting threads take only their own buffer's lock.
inline constexpr int kObsEventBuf = 50;
// obs: the event-log sink (file or in-memory capture). Highest rank: a
// buffer flush holds its buffer lock while appending to the sink.
inline constexpr int kObsEventSink = 55;
}  // namespace lock_rank

// Snapshot of one mutex's (or one name's aggregated) contention counters.
struct MutexStats {
  long acquisitions = 0;   // successful lock()/try_lock() entries
  long contended = 0;      // lock() calls whose try_lock fast path failed
  double wait_seconds = 0.0;  // total time blocked in contended lock()s
};

class CondVar;

// A std::mutex carrying a diagnostic name, a lock-hierarchy rank and
// contention counters. Satisfies BasicLockable/Lockable, so it also works
// with std::lock_guard / std::unique_lock where the annotated MutexLock
// does not fit — but those scopes are invisible to the capability analysis,
// so prefer MutexLock.
//
// `name` must outlive the mutex (string literals in practice); it keys the
// registry aggregation, so give every mutex guarding the same logical state
// the same name (e.g. one per B&B solve is fine).
class CGRAF_CAPABILITY("mutex") Mutex {
 public:
  Mutex(const char* name, int rank);
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Blocking acquire. Aborts on a lock-hierarchy rank inversion when
  // deadlock detection is on (the check runs before blocking, so the
  // potential deadlock is reported instead of hit).
  void lock() CGRAF_ACQUIRE();
  void unlock() CGRAF_RELEASE();
  // Non-blocking acquire; exempt from the rank check (it cannot deadlock),
  // but a success still pushes onto the held-lock stack and is counted.
  bool try_lock() CGRAF_TRY_ACQUIRE(true);

  const char* name() const { return name_; }
  int rank() const { return rank_; }
  MutexStats stats() const;

 private:
  friend class CondVar;

  std::mutex raw_;
  const char* const name_;
  const int rank_;
  std::atomic<long> acquisitions_{0};
  std::atomic<long> contended_{0};
  std::atomic<double> wait_seconds_{0.0};
};

// RAII lock for Mutex, visible to the capability analysis. Supports
// temporary release (unlock()/lock()) within the scope, which the analysis
// tracks; the destructor releases only if currently held.
class CGRAF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) CGRAF_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->lock();
  }
  ~MutexLock() CGRAF_RELEASE() {
    if (held_) mu_->unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() CGRAF_ACQUIRE() {
    CGRAF_ASSERT(!held_);
    mu_->lock();
    held_ = true;
  }
  void unlock() CGRAF_RELEASE() {
    CGRAF_ASSERT(held_);
    held_ = false;
    mu_->unlock();
  }

 private:
  Mutex* const mu_;
  bool held_;
};

// Condition variable bound to Mutex. wait() atomically releases the mutex
// (popping it from the held-lock stack) and reacquires it before returning,
// so the detector state stays consistent across waits. No predicate
// overload on purpose: a predicate lambda is analyzed without the caller's
// capability context, so guarded reads inside it would trip -Wthread-safety.
// Write the standard loop instead:
//
//   MutexLock lk(&mu);
//   while (!ready) cv.wait(mu);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) CGRAF_REQUIRES(mu);
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// Runtime switch for the lock-order detector. Defaults to on in debug
// builds (!NDEBUG) and off in release; tests force it on regardless of
// build type. The contention counters are always live.
void set_deadlock_detection(bool enabled);
bool deadlock_detection_enabled();

// Per-name contention counters, aggregated over every live mutex plus the
// accumulated totals of destroyed ones (so short-lived mutexes like the
// branch & bound's per-solve lock still show up after the solve).
std::map<std::string, MutexStats> sync_mutex_stats();

}  // namespace cgraf
