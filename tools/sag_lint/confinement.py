"""Determinism and concurrency confinement: where entropy, unordered
iteration and raw threading may appear.

  det-entropy    no ambient-entropy source in src/: std::random_device,
                 C rand()/srand(), wall-clock seeding via
                 time(nullptr)/time(NULL), or a default-constructed
                 (unseeded) std::mt19937/mt19937_64.  A seeded
                 std::mt19937_64 is the one sanctioned randomness, so
                 threads=N, the serial path and yesterday's run agree.
  det-unordered  no unordered_map/unordered_set in the solver
                 result-construction layers (src/core, src/opt): their
                 iteration order is implementation-defined.
  conc-raw       no raw std::thread/std::mutex/std::condition_variable
                 (nor the lock helpers or their headers) in src/ outside
                 src/exec/, whose ThreadPool and Mutex/MutexLock/CondVar
                 carry the thread-safety annotations and the TSan
                 coverage.  std::atomic stays allowed.

The patterns are line-shaped, so each is matched per line of the
stripped source: a primitive named in a comment or a string is prose,
not a violation.
"""

from __future__ import annotations

import re

from core import Finding, RULE_CONC_RAW, RULE_DET_ENTROPY, RULE_DET_UNORDERED

_NOT_IDENT_BEFORE = r"(?<![A-Za-z0-9_])"

ENTROPY_RE = re.compile(
    r"std::random_device"
    r"|" + _NOT_IDENT_BEFORE + r"(?:rand|srand)\s*\("
    r"|" + _NOT_IDENT_BEFORE + r"time\s*\(\s*(?:nullptr|NULL)\s*\)"
    r"|mt19937(?:_64)?\s+[A-Za-z_][A-Za-z0-9_]*\s*(?:;|\{\s*\}|=\s*\{\s*\})")

UNORDERED_RE = re.compile(r"unordered_(?:map|set)")

CONC_RE = re.compile(
    r"std::(?:thread|jthread|mutex|timed_mutex|recursive_mutex|shared_mutex"
    r"|shared_timed_mutex|condition_variable|condition_variable_any"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock|call_once|once_flag)"
    r"(?![A-Za-z0-9_])"
    r"|#\s*include\s*<(?:thread|mutex|shared_mutex|condition_variable)>")

ENTROPY_MESSAGE = ("nondeterminism source in src/; seed a std::mt19937_64 "
                   "explicitly")
UNORDERED_MESSAGE = ("unordered container(s) in solver result-construction "
                     "paths (src/core, src/opt); use an ordered container or "
                     "sorted vector")
CONC_MESSAGE = ("raw threading primitive(s) outside src/exec/; route through "
                "exec::ThreadPool / exec::Mutex (sag/exec/mutex.h) so the "
                "locking is thread-safety-annotated and TSan-covered")

# (rule, pattern, message, scanned prefixes, exempt prefixes)
RULES = (
    (RULE_DET_ENTROPY, ENTROPY_RE, ENTROPY_MESSAGE, ("src/",), ()),
    (RULE_DET_UNORDERED, UNORDERED_RE, UNORDERED_MESSAGE,
     ("src/core/", "src/opt/"), ()),
    (RULE_CONC_RAW, CONC_RE, CONC_MESSAGE, ("src/",), ("src/exec/",)),
)


def run(sources) -> list:
    findings = []
    for src in sources:
        lines = src.stripped.split("\n")
        for rule, pattern, message, scope, exempt in RULES:
            if not src.path.startswith(scope) or src.path.startswith(exempt):
                continue
            for lineno, text in enumerate(lines, 1):
                if pattern.search(text):
                    findings.append(Finding(
                        rule=rule, path=src.path, line=lineno,
                        message=message, content=src.line_text(lineno)))
    return findings
