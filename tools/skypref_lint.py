#!/usr/bin/env python3
"""Repo-specific lint for skypref invariants that generic tools can't see.

Rules (each can be suppressed on a line with `skypref-lint: allow(<rule>)`
in a trailing comment, which must state why):

  no-exceptions   `throw` / `try` / `catch` anywhere under src/. The
                  library is exception-free by contract: fallible paths
                  return Status/Result, fatal paths abort.
  no-raw-random   `rand()` / `srand()` / `std::random_device` outside
                  src/util/random.*. Every stochastic component draws
                  from the seeded, fully specified Xoshiro256++ stream so
                  a single 64-bit seed reproduces an entire experiment.
                  Also: direct construction of the generator primitives
                  (`SplitMix64(...)`, `Xoshiro*`) outside src/util/ and
                  the sampler engines (src/core/monte_carlo.cc,
                  src/core/sam_parallel.cc). Hand-rolled seed derivation
                  is how two call sites silently end up on correlated
                  streams; derive sub-streams with Rng::Fork() or
                  SplitSeed() instead.
  no-stdout       `std::cout` / bare `printf(` in library code under
                  src/. The library reports through Status values;
                  stderr (fprintf(stderr, ...)) is allowed for fatal
                  aborts.
  float-eq        `==` / `!=` against a floating-point literal in
                  src/core/. Probabilities accumulate rounding error;
                  exact comparison is almost always a bug. Deliberate
                  exact-zero short-circuits carry an allow() comment.
  include-guard   Headers under src/ must guard with
                  SKYPREF_<PATH>_H_ derived from the repo-relative path
                  (e.g. src/util/check.h -> SKYPREF_UTIL_CHECK_H_).
  discarded-status
                  A bare statement calling a function whose declaration
                  returns Status or Result<...> throws the error away —
                  the failure silently vanishes. Consume it: check ok(),
                  CheckOK(), assign it, or wrap it in the RETURN_IF_ERROR
                  macros. The rule is a heuristic: it collects the names
                  of Status/Result-returning functions declared in the
                  linted tree, then flags single-line statements that
                  start with a call to one of them and neither assign,
                  chain, nor test the value.
  mutex-guarded-by
                  A mutex member (std::mutex or skypref::Mutex) whose
                  file carries no SKYPREF_GUARDED_BY(<that member>) on
                  any sibling field. A lock that guards nothing named is
                  a lock whose contract lives in the author's head;
                  clang -Wthread-safety can only prove what the
                  annotations state (src/util/thread_annotations.h has
                  the conventions). The wrapper's own home file is
                  exempt — it holds the one raw std::mutex by design.
  failpoint-site  A SKYPREF_FAILPOINT / SKYPREF_ALLOC_FAILPOINT /
                  SKYPREF_WAKE_FAILPOINT site literal that is absent from
                  the canonical kKnownSites registry in
                  src/util/failpoint.cc. Unregistered sites are invisible
                  to seeded chaos schedules and the coverage suite — a
                  typo'd name silently tests nothing. Skipped when the
                  registry file is not under the repo root (single-file
                  invocations outside the tree).
  deadline-after  `Deadline::After(` under src/ outside src/util/cancel.h.
                  A time limit becomes a deadline in exactly one place,
                  QueryBudget::Resolve, which every public entry point
                  calls once; a second conversion restarts the clock for
                  a sub-call (a group, a target, a ladder rung, a skycube
                  cell) and lets the query overrun its limit that many
                  times.

Usage:
  tools/skypref_lint.py [paths...]     # default: src/

Exits 0 when clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, List, NamedTuple

CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

ALLOW_RE = re.compile(r"skypref-lint:\s*allow\(([a-z\-]+)\)")

RULE_NO_EXCEPTIONS = "no-exceptions"
RULE_NO_RAW_RANDOM = "no-raw-random"
RULE_NO_STDOUT = "no-stdout"
RULE_FLOAT_EQ = "float-eq"
RULE_INCLUDE_GUARD = "include-guard"
RULE_DISCARDED_STATUS = "discarded-status"
RULE_MUTEX_GUARDED_BY = "mutex-guarded-by"
RULE_FAILPOINT_SITE = "failpoint-site"
RULE_DEADLINE_AFTER = "deadline-after"

EXCEPTION_RE = re.compile(r"\b(throw|try|catch)\b")
DEADLINE_AFTER_RE = re.compile(r"\bDeadline::After\s*\(")
# The one file allowed to turn a time limit into a deadline.
DEADLINE_AFTER_HOME = "src/util/cancel.h"
RAW_RANDOM_RE = re.compile(r"\b(?:s?rand)\s*\(|std::random_device")
# Direct construction of the PRNG primitives: SplitMix64 or any Xoshiro
# flavor followed by an initializer. Mentions in comments/strings are
# stripped before matching; a bare type name in a declaration without an
# initializer is rare enough to accept the false negative.
PRNG_CONSTRUCT_RE = re.compile(
    r"\b(SplitMix64|Xoshiro\w*)\s*(?:[A-Za-z_]\w*\s*)?[({]"
)
# Files allowed to build PRNG primitives directly: the generator's home,
# and the sampler engines whose seeding discipline IS the feature
# (documented block-seeding contracts, covered by determinism tests).
PRNG_CONSTRUCT_HOMES = (
    "src/util/",
    "src/core/monte_carlo.cc",
    "src/core/sam_parallel.cc",
    "src/core/sam_bitslice.cc",
)
STDOUT_RE = re.compile(r"std::cout|(?<![A-Za-z0-9_])printf\s*\(")
FLOAT_LITERAL = r"[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?[fFlL]?"
FLOAT_EQ_RE = re.compile(
    r"(?:(?:==|!=)\s*-?{lit})|(?:{lit}\s*(?:==|!=))".format(lit=FLOAT_LITERAL)
)

# A mutex member declaration: `std::mutex name;` or `Mutex name;`
# (optionally skypref::-qualified). The mandatory space between the type
# and the member name keeps `MutexLock lock(...)` from matching, and the
# immediate `;` skips locals initialized with parentheses.
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:std::mutex|(?:skypref::)?Mutex)\s+(\w+)\s*;"
)
# The one file allowed to hold an unannotated raw std::mutex: the
# capability wrapper that every other mutex in the tree goes through.
MUTEX_WRAPPER_HOME = "src/util/thread_annotations.h"

# A declaration or definition whose return type is Status or Result<...>:
# the function-name registry feeding the discarded-status rule.
STATUS_DECL_RE = re.compile(
    r"\b(?:Status|Result<[^;(){}]*>)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)

# A failpoint macro invocation with its site literal. The literal lives
# inside a string, which strip_code blanks, so this regex runs against
# the RAW line — gated on the stripped line still containing the macro
# name, which keeps comment mentions (blanked entirely) out.
FAILPOINT_MACRO_RE = re.compile(
    r"\bSKYPREF_(?:ALLOC_|WAKE_)?FAILPOINT\s*\(\s*\"([^\"]+)\""
)
# One entry of the canonical site registry in FAILPOINT_REGISTRY_FILE:
# `{"name", SiteClass::kExecution},` — the table is kept one entry per
# line precisely so this parse stays trivial.
KNOWN_SITE_RE = re.compile(r"\{\s*\"([^\"]+)\"\s*,\s*SiteClass::")
FAILPOINT_REGISTRY_FILE = "src/util/failpoint.cc"


def collect_known_sites(repo_root: Path) -> set | None:
    """Site names of the canonical registry, or None (rule skipped) when
    the registry file is absent — e.g. linting a file outside the tree."""
    registry = repo_root / FAILPOINT_REGISTRY_FILE
    if not registry.is_file():
        return None
    sites = set()
    for line in registry.read_text(encoding="utf-8").split("\n"):
        m = KNOWN_SITE_RE.search(line)
        if m:
            sites.add(m.group(1))
    return sites

# Statement keywords that legitimately start a line containing a call
# whose value IS consumed (returned, tested, iterated).
STATEMENT_KEYWORD_RE = re.compile(
    r"^\s*(?:return|co_return|if|else|while|for|do|switch|case)\b"
)


def collect_status_functions(code_lines: List[str]) -> set:
    """Names of functions declared (in these stripped lines) to return
    Status or Result<...>."""
    names = set()
    for code in code_lines:
        for m in STATUS_DECL_RE.finditer(code):
            names.add(m.group(1))
    return names


class Finding(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> List[str]:
    """Returns the file's lines with comments and string/char literals
    blanked out (replaced by spaces), so rule regexes only see code.
    Trailing `//` comments are preserved verbatim: that is where
    skypref-lint: allow(...) suppressions live, and ALLOW_RE reads them
    from the original line anyway."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    cur: List[str] = []
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                cur.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                cur.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                cur.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                cur.append(" ")
                i += 1
                continue
            cur.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                cur.append(c)
            else:
                cur.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                cur.append("  ")
                i += 2
                continue
            cur.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                cur.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            cur.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(cur).split("\n")


def expected_guard(relpath: Path) -> str:
    mangled = re.sub(r"[^A-Za-z0-9]", "_", str(relpath)).upper()
    if mangled.startswith("SRC_"):
        mangled = mangled[len("SRC_"):]
    return f"SKYPREF_{mangled}_"


def is_suppressed(raw_line: str, rule: str) -> bool:
    return any(m.group(1) == rule for m in ALLOW_RE.finditer(raw_line))


def check_file(path: Path, repo_root: Path,
               status_functions: set | None = None,
               known_sites: set | None = None) -> List[Finding]:
    rel = path.relative_to(repo_root)
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.split("\n")
    code_lines = strip_code(raw)
    findings: List[Finding] = []

    in_random_home = rel.as_posix().startswith("src/util/random.")
    may_start_deadline = (not rel.as_posix().startswith("src/")
                          or rel.as_posix() == DEADLINE_AFTER_HOME)
    in_core = rel.as_posix().startswith("src/core/")
    may_construct_prng = rel.as_posix().startswith(PRNG_CONSTRUCT_HOMES)

    # Single-file mode (tests, ad-hoc invocation): the registry is just
    # this file's own declarations. main() passes the tree-wide set.
    if status_functions is None:
        status_functions = collect_status_functions(code_lines)
    bare_call_re = None
    if status_functions:
        names = "|".join(sorted(re.escape(n) for n in status_functions))
        # A statement that starts with a (possibly object-qualified) call
        # to a registered function and ends on the same line. Chained or
        # nested calls leave a ")." / ")->" on the line and are skipped:
        # the value might be consumed, and this rule prefers precision.
        bare_call_re = re.compile(
            r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*"
            r"(?:{names})\s*\(.*\)\s*;\s*$".format(names=names)
        )

    def add(lineno: int, rule: str, message: str) -> None:
        if not is_suppressed(raw_lines[lineno - 1], rule):
            findings.append(Finding(rel, lineno, rule, message))

    # Tracks whether the current line STARTS a statement: the previous
    # non-blank code line ended one (`;`, braces, labels, preprocessor).
    # Otherwise the line is a continuation — e.g. the wrapped argument of
    # SKYPREF_ASSIGN_OR_RETURN or the right-hand side of an assignment —
    # and the discarded-status rule must not look at it in isolation.
    at_statement_start = True
    for lineno, code in enumerate(code_lines, start=1):
        for m in EXCEPTION_RE.finditer(code):
            add(lineno, RULE_NO_EXCEPTIONS,
                f"'{m.group(1)}' in exception-free library code "
                "(return Status/Result instead)")
        if not in_random_home:
            for _ in RAW_RANDOM_RE.finditer(code):
                add(lineno, RULE_NO_RAW_RANDOM,
                    "non-deterministic randomness outside src/util/random.* "
                    "(use skypref::Rng, seeded)")
        if not may_construct_prng:
            for m in PRNG_CONSTRUCT_RE.finditer(code):
                add(lineno, RULE_NO_RAW_RANDOM,
                    f"direct {m.group(1)} construction outside src/util/ "
                    "and the sampler engines (derive sub-streams with "
                    "Rng::Fork() or SplitSeed())")
        if not may_start_deadline:
            for _ in DEADLINE_AFTER_RE.finditer(code):
                add(lineno, RULE_DEADLINE_AFTER,
                    "time limit converted to a deadline outside "
                    f"{DEADLINE_AFTER_HOME} (resolve the query's "
                    "QueryBudget once at its entry point and pass the "
                    "resolved budget down)")
        for _ in STDOUT_RE.finditer(code):
            add(lineno, RULE_NO_STDOUT,
                "library code must not print to stdout "
                "(report through Status; stderr only for fatal aborts)")
        if in_core:
            for _ in FLOAT_EQ_RE.finditer(code):
                add(lineno, RULE_FLOAT_EQ,
                    "exact ==/!= against a floating-point literal in core "
                    "solver code (compare with a tolerance, or annotate a "
                    "deliberate exact-zero test)")
        if known_sites is not None and "SKYPREF_" in code:
            for m in FAILPOINT_MACRO_RE.finditer(raw_lines[lineno - 1]):
                if m.group(1) not in known_sites:
                    add(lineno, RULE_FAILPOINT_SITE,
                        f"failpoint site \"{m.group(1)}\" is not in the "
                        f"kKnownSites registry ({FAILPOINT_REGISTRY_FILE}) — "
                        "seeded schedules and the coverage suite cannot "
                        "see it")
        if (bare_call_re is not None
                and at_statement_start
                and "=" not in code
                and ")." not in code
                and ")->" not in code
                and code.count("(") == code.count(")")
                and not STATEMENT_KEYWORD_RE.match(code)
                and bare_call_re.match(code)):
            add(lineno, RULE_DISCARDED_STATUS,
                "Status/Result return value discarded (check ok(), "
                "CheckOK(), assign it, or use SKYPREF_RETURN_IF_ERROR)")
        stripped = code.strip()
        if stripped:
            at_statement_start = (stripped[-1] in ";{}:"
                                  or stripped.startswith("#"))

    if rel.as_posix() != MUTEX_WRAPPER_HOME:
        full_code = "\n".join(code_lines)
        for lineno, code in enumerate(code_lines, start=1):
            for m in MUTEX_MEMBER_RE.finditer(code):
                name = m.group(1)
                guarded = re.search(
                    r"SKYPREF_GUARDED_BY\(\s*{}\s*\)".format(re.escape(name)),
                    full_code)
                if not guarded:
                    add(lineno, RULE_MUTEX_GUARDED_BY,
                        f"mutex member '{name}' has no "
                        f"SKYPREF_GUARDED_BY({name}) sibling field — "
                        "annotate what the lock protects "
                        "(src/util/thread_annotations.h)")

    if path.suffix in (".h", ".hpp"):
        guard = expected_guard(rel)
        ifndef = re.search(r"^#ifndef\s+(\S+)", raw, re.MULTILINE)
        define = re.search(r"^#define\s+(\S+)", raw, re.MULTILINE)
        if not ifndef or not define:
            add(1, RULE_INCLUDE_GUARD, f"missing include guard {guard}")
        elif ifndef.group(1) != guard or define.group(1) != guard:
            bad_line = raw[: ifndef.start()].count("\n") + 1
            add(bad_line, RULE_INCLUDE_GUARD,
                f"include guard is {ifndef.group(1)}, expected {guard}")

    return findings


def iter_sources(paths: Iterable[Path], repo_root: Path) -> Iterable[Path]:
    for p in paths:
        p = p if p.is_absolute() else repo_root / p
        if p.is_file():
            if p.suffix in CXX_SUFFIXES:
                yield p
        elif p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.is_file() and child.suffix in CXX_SUFFIXES:
                    yield child
        else:
            raise FileNotFoundError(p)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--repo-root", default=None,
                        help="repo root for relative paths and guard names "
                             "(default: parent of tools/)")
    args = parser.parse_args(argv)

    repo_root = Path(args.repo_root).resolve() if args.repo_root \
        else Path(__file__).resolve().parent.parent
    try:
        sources = list(iter_sources([Path(p) for p in args.paths], repo_root))
    except FileNotFoundError as err:
        print(f"skypref_lint: no such path: {err.args[0]}", file=sys.stderr)
        return 2

    # Pass 1: collect Status/Result-returning function names tree-wide,
    # so a call in one file is checked against a declaration in another.
    status_functions: set = set()
    for source in sources:
        status_functions |= collect_status_functions(
            strip_code(source.read_text(encoding="utf-8")))

    known_sites = collect_known_sites(repo_root)

    findings: List[Finding] = []
    for source in sources:
        findings.extend(
            check_file(source, repo_root, status_functions, known_sites))

    for finding in findings:
        print(finding)
    if findings:
        print(f"skypref_lint: {len(findings)} finding(s) in "
              f"{len(sources)} file(s)", file=sys.stderr)
        return 1
    print(f"skypref_lint: clean ({len(sources)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
