#pragma once

#include <condition_variable>
#include <mutex>

#include "sag/exec/thread_annotations.h"

namespace sag::exec {

/// The repository's one mutex type: a std::mutex annotated as a Clang
/// TSA capability, so members declared SAG_GUARDED_BY(mu) cannot be
/// touched without holding it (compile error under clang, see
/// docs/STATIC_ANALYSIS.md §8). All locking in src/ flows through this
/// wrapper — sag_lint's conc-raw rule rejects raw std::mutex/
/// std::thread/std::condition_variable outside src/exec/.
class SAG_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() SAG_ACQUIRE() { m_.lock(); }
    void unlock() SAG_RELEASE() { m_.unlock(); }
    bool try_lock() SAG_TRY_ACQUIRE(true) { return m_.try_lock(); }

private:
    friend class CondVar;
    friend class MutexLock;
    std::mutex m_;
};

/// RAII scoped lock over exec::Mutex (the std::lock_guard/unique_lock
/// replacement). SAG_SCOPED_CAPABILITY tells the analysis the capability
/// is held from construction to destruction.
class SAG_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mu) SAG_ACQUIRE(mu) : lock_(mu.m_) {}
    ~MutexLock() SAG_RELEASE() {}

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    friend class CondVar;
    std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with exec::Mutex. wait() atomically
/// releases and reacquires the lock; from the analysis's point of view
/// the capability is held across the call (the Clang-documented
/// convention for condition variables), so guard re-checks stay in the
/// caller as explicit `while (!pred) cv.wait(lock);` loops — which is
/// exactly the shape that keeps the predicate reads inside the analyzed,
/// lock-held scope (a predicate lambda would be analyzed as an unlocked
/// function body).
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /// Blocks until notified; `lock` must hold the associated Mutex.
    void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

}  // namespace sag::exec
