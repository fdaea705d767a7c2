#pragma once

// Clang Thread Safety Analysis attribute macros (SAG_ prefix), after the
// scheme in the Clang TSA documentation. On Clang, `-Wthread-safety
// -Wthread-safety-beta` (enabled unconditionally by the top-level
// CMakeLists) turns an unguarded access to a SAG_GUARDED_BY member, or a
// call to a SAG_REQUIRES function without its mutex, into a compile
// diagnostic; the `thread-safety` CI job promotes those to errors with
// -Werror. On GCC (the dev container's only compiler) every macro
// expands to nothing, so the annotations are free documentation there.
//
// The annotated capability types live in sag/exec/mutex.h
// (exec::Mutex / exec::MutexLock / exec::CondVar); sag_lint's conc-raw
// rule keeps raw std::mutex/std::thread out of the rest of src/, so all
// locking flows through the analyzed wrappers.
// Contract and usage examples: docs/STATIC_ANALYSIS.md §8.

#if defined(__clang__) && (!defined(SWIG))
#define SAG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SAG_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

/// Marks a class as a capability (lockable). The string name is used in
/// diagnostics ("mutex 'mu_' is not held ...").
#define SAG_CAPABILITY(x) SAG_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires a capability at construction and
/// releases it at destruction (exec::MutexLock).
#define SAG_SCOPED_CAPABILITY SAG_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the named capability.
#define SAG_GUARDED_BY(x) SAG_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named capability.
#define SAG_PT_GUARDED_BY(x) SAG_THREAD_ANNOTATION(pt_guarded_by(x))

/// Caller must hold the capability (exclusively) to call this function.
#define SAG_REQUIRES(...) \
    SAG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard).
#define SAG_EXCLUDES(...) SAG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define SAG_ACQUIRE(...) \
    SAG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define SAG_RELEASE(...) \
    SAG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define SAG_TRY_ACQUIRE(...) \
    SAG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Returns a reference to the named capability (capability accessors).
#define SAG_RETURN_CAPABILITY(x) SAG_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables analysis for one function. Every use must
/// carry a comment justifying why the discipline is not expressible
/// (e.g. sag::obs's owner-thread lock-free counter scan).
#define SAG_NO_THREAD_SAFETY_ANALYSIS \
    SAG_THREAD_ANNOTATION(no_thread_safety_analysis)
