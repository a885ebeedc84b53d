#!/usr/bin/env python3
"""Repo-specific concurrency invariant lints.

Checks invariants that neither clang thread-safety analysis nor clang-tidy
can express, because they are about *which* code runs where, not about lock
balance:

  fsync-under-pool-mutex   No durable-I/O call (Wal::EnsureDurable,
                           Pager::Sync, fsync/fdatasync/pwrite) while the
                           buffer-pool mutex is held. This is the PR 5
                           invariant that keeps foreground faults from
                           serializing behind another page's fsync.

  lock-on-reactor-thread   No statement-lock acquisition (a
                           StatementLock::Scope or a hold of
                           statement_mutex()) in code that runs on the
                           reactor thread (the epoll loop and the
                           ReactorHandler callbacks). A wedged
                           statement must never wedge accept/read/write for
                           every connection — that is the whole point of the
                           dispatcher handoff.

  unconsumed-epoch-pin     Every EpochManager::Pin() result must be bound
                           (the SnapshotPin RAII holder is the unpin). A
                           discarded temporary unpins immediately and the
                           "protected" scan races reclaim.

  escape-hatch-budget      At most {BUDGET} NO_THREAD_SAFETY_ANALYSIS uses
                           repo-wide (outside the macro definition), each
                           with an adjacent comment stating the runtime
                           invariant that replaces the static check.

  unexplained-void-status  Every `(void)` discard of a Status-returning call
                           must carry a comment (same line or the lines just
                           above) saying why dropping the status is correct.

A finding can be suppressed with `// lint:allow <rule-name>` on the same
line or the line above, which is itself the documentation.

Exit status 0 = clean, 1 = findings (printed as file:line: message).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUDGET = 10

findings = []


def allowed(lines, idx, rule):
    for i in (idx, idx - 1):
        if 0 <= i < len(lines) and f"lint:allow {rule}" in lines[i]:
            return True
    return False


def report(path, idx, rule, msg):
    findings.append(f"{path.relative_to(ROOT)}:{idx + 1}: [{rule}] {msg}")


def has_adjacent_comment(lines, idx):
    """A substantive comment on the same line or within the 4 lines above."""
    line = lines[idx]
    if re.search(r"//\s*\S", line.split("NO_THREAD_SAFETY_ANALYSIS")[-1]):
        return True
    for i in range(max(0, idx - 4), idx):
        if re.search(r"^\s*(//|///)\s*\S", lines[i]):
            return True
    return False


def function_bodies(text):
    """Yields (name, start_line_idx, body_lines) for top-level-ish function
    definitions. Brace-counting heuristic — good enough for this codebase's
    clang-format style (definition signature ends with `{` on its own or the
    signature line)."""
    lines = text.splitlines()
    i = 0
    sig_re = re.compile(r"^[\w:&<>,\*\s\[\]]+\s(\w+(?:::\w+)*)\s*\(")
    while i < len(lines):
        m = sig_re.match(lines[i])
        # Find the opening brace of the definition (same line or a later
        # signature-continuation line before any ';').
        if m and not lines[i].lstrip().startswith(("//", "#", "*")):
            j = i
            depth_opened = False
            while j < len(lines) and j < i + 6:
                if ";" in lines[j].split("//")[0] and "{" not in lines[j]:
                    break  # declaration, not definition
                if "{" in lines[j]:
                    depth_opened = True
                    break
                j += 1
            if depth_opened:
                depth = 0
                k = j
                body = []
                while k < len(lines):
                    code = lines[k].split("//")[0]
                    depth += code.count("{") - code.count("}")
                    body.append((k, lines[k]))
                    if depth <= 0 and k > j:
                        break
                    k += 1
                yield m.group(1), i, body
                i = k + 1
                continue
        i += 1


DURABLE_RE = re.compile(
    r"EnsureDurable\s*\(|->Sync\s*\(|\bfsync\s*\(|\bfdatasync\s*\(|\bpwrite\s*\("
)


ANNOTATION_NAMES = {
    "REQUIRES", "REQUIRES_SHARED", "EXCLUDES", "GUARDED_BY", "PT_GUARDED_BY",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "TRY_ACQUIRE",
    "ASSERT_CAPABILITY", "CAPABILITY",
}


def requires_mu_functions(header_text):
    """Names of functions declared with REQUIRES(mu_): for each such line,
    walk back to the nearest declaration line and take its function name."""
    out = set()
    lines = header_text.splitlines()
    for i, ln in enumerate(lines):
        if "REQUIRES(mu_)" not in ln:
            continue
        for j in range(i, max(-1, i - 4), -1):
            hit = None
            for m in re.finditer(r"(\w+)\s*\(", lines[j]):
                if m.group(1) not in ANNOTATION_NAMES:
                    hit = m.group(1)
                    break
            if hit:
                out.add(hit)
                break
    return out


def check_fsync_under_pool_mutex():
    header = (SRC / "storage" / "buffer_pool.h").read_text()
    # Functions annotated REQUIRES(mu_) start with the pool mutex held.
    requires = requires_mu_functions(header)
    for fname in ("buffer_pool.cc", "bg_writer.cc"):
        path = SRC / "storage" / fname
        text = path.read_text()
        lines = text.splitlines()
        for name, _, body in function_bodies(text):
            short = name.split("::")[-1]
            depth = 1 if short in requires else 0
            for idx, line in body:
                code = line.split("//")[0]
                if re.search(r"MutexLock\s+\w+\((?:pool_->)?mu_\)", code):
                    depth += 1
                if re.search(r"(?:\w+|mu_)\.Lock\(\)", code):
                    depth += 1
                if re.search(r"(?:\w+|mu_)\.Unlock\(\)", code):
                    depth -= 1
                if depth > 0 and DURABLE_RE.search(code):
                    if not allowed(lines, idx, "fsync-under-pool-mutex"):
                        report(
                            path, idx, "fsync-under-pool-mutex",
                            f"durable I/O in {short} while the pool mutex "
                            "is held",
                        )
                # Scope exit of a MutexLock isn't tracked; conservative and
                # fine here — these two files release explicitly around I/O.


STATEMENT_LOCK_RE = re.compile(
    r"\bStatementLock::Scope\b|\bstatement_mutex\s*\(\)"
)
REACTOR_HANDLERS = {"OnConnect", "OnFrame", "OnDisconnect"}


def check_lock_on_reactor_thread():
    path = SRC / "rpc" / "reactor.cc"
    lines = path.read_text().splitlines()
    for idx, line in enumerate(lines):
        if STATEMENT_LOCK_RE.search(line.split("//")[0]):
            if not allowed(lines, idx, "lock-on-reactor-thread"):
                report(path, idx, "lock-on-reactor-thread",
                       "statement lock on the reactor thread")
    for fname in ("server.cc", "session.cc"):
        path = SRC / "server" / fname
        text = path.read_text()
        lines = text.splitlines()
        for name, _, body in function_bodies(text):
            short = name.split("::")[-1]
            # StatsFrame is documented to run on the reactor thread.
            if short not in REACTOR_HANDLERS and short != "StatsFrame":
                continue
            for idx, line in body:
                if STATEMENT_LOCK_RE.search(line.split("//")[0]):
                    if not allowed(lines, idx, "lock-on-reactor-thread"):
                        report(
                            path, idx, "lock-on-reactor-thread",
                            f"{short} runs on the reactor thread but takes "
                            "the statement lock",
                        )


PIN_BARE_RE = re.compile(r"^\s*[\w\.\->\(\)]*\bPin\(\)\s*;")


def check_unconsumed_epoch_pin():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            code = line.split("//")[0]
            if PIN_BARE_RE.match(code):
                if not allowed(lines, idx, "unconsumed-epoch-pin"):
                    report(path, idx, "unconsumed-epoch-pin",
                           "Pin() result discarded — bind it to a "
                           "SnapshotPin so the unpin is scoped")


def check_escape_hatch_budget():
    uses = []
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cc")):
        if path.name == "thread_annotations.h":
            continue
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if "NO_THREAD_SAFETY_ANALYSIS" in line:
                uses.append((path, idx))
                if not has_adjacent_comment(lines, idx):
                    report(path, idx, "escape-hatch-budget",
                           "NO_THREAD_SAFETY_ANALYSIS without an adjacent "
                           "comment stating the runtime invariant")
    if len(uses) > BUDGET:
        path, idx = uses[-1]
        report(path, idx, "escape-hatch-budget",
               f"{len(uses)} NO_THREAD_SAFETY_ANALYSIS uses repo-wide "
               f"(budget {BUDGET}) — fix the locking instead")


VOID_STATUS_RE = re.compile(r"\(void\)\s*[\w\.\->:]+\(")


def check_unexplained_void_status():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if VOID_STATUS_RE.search(line.split("//")[0]):
                explained = "//" in line or any(
                    re.search(r"^\s*(//|///)\s*\S", lines[i])
                    for i in range(max(0, idx - 3), idx)
                )
                if not explained and not allowed(
                        lines, idx, "unexplained-void-status"):
                    report(path, idx, "unexplained-void-status",
                           "(void)-discarded call without a justification "
                           "comment")


def main():
    check_fsync_under_pool_mutex()
    check_lock_on_reactor_thread()
    check_unconsumed_epoch_pin()
    check_escape_hatch_budget()
    check_unexplained_void_status()
    if findings:
        for f in findings:
            print(f)
        print(f"\n{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
