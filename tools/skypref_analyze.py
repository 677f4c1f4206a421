#!/usr/bin/env python3
"""AST-level analyzer for skypref's determinism and cancellation contracts.

Where tools/skypref_lint.py pattern-matches lines, this tool parses real
C++ through libclang and checks properties that need structure — loop
nesting, lambda captures, operand types, call graphs. Four checks:

  unordered-iter    Range-for over std::unordered_map / unordered_set in
                    src/core/ or src/model/ whose body accumulates into a
                    float or appends to an output container. Hash-map
                    iteration order depends on insertion history and
                    libstdc++ version, so anything order-sensitive fed
                    from it is silently nondeterministic. Iterate a
                    sorted key vector instead (see
                    VoteAggregator::VotedPairs).

  cancel-poll       A loop in an engine translation unit that does
                    per-world / per-subset work (calls SampleWorld,
                    Survives, Dfs, ...) with no cancellation poll
                    (CheckStop / cancelled() / Expired(), directly or
                    through any function it calls) on any path, and no
                    polling ancestor loop. Solves are exponential by
                    design; an unpollable loop makes the solve
                    uncancellable. Loops inside lambdas handed to a
                    polling driver (RunDeterministicBlocks) are exempt —
                    the driver polls at block boundaries.

  kahan-discipline  float/double `+=` accumulation inside a loop in
                    src/core/ outside src/util/kahan.h. Long plain sums
                    drift; route them through KahanSum / Accumulator, or
                    annotate why plain summation is part of the numeric
                    contract (fixed-order bit-compatibility, integer
                    counts, scheduling heuristics).

  prng-capture      A lambda handed to ThreadPool::ParallelFor that
                    captures PRNG state (Rng, OctoRng, SplitMix64,
                    Xoshiro*) declared outside the lambda by reference.
                    Concurrent draws from one generator are a data race
                    AND break block determinism; seed a fresh generator
                    per chunk from the chunk index instead.

Suppress a finding with a comment on the reported line, or on the run of
`//` comment lines directly above it:

    // skypref-analyze: allow(<check>)   -- and say why

Usage:
  tools/skypref_analyze.py [paths...]   # default: src/core src/model

Exits 0 when clean, 1 on findings, 2 on usage errors, and 77 (the ctest
skip convention) when libclang python bindings are unavailable — unless
SKYPREF_REQUIRE_ANALYZE=1, which turns that into a hard error for CI.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

CHECK_UNORDERED_ITER = "unordered-iter"
CHECK_CANCEL_POLL = "cancel-poll"
CHECK_KAHAN = "kahan-discipline"
CHECK_PRNG_CAPTURE = "prng-capture"

ALLOW_RE = re.compile(r"skypref-analyze:\s*allow\(([a-z\-]+)\)")

# Engine translation units (by repo-relative path) whose loops must stay
# cancellable. Matches the files that implement the solve ladder.
ENGINE_FILES = {
    "src/core/exact.h",
    "src/core/exact.cc",
    "src/core/parallel.h",
    "src/core/parallel.cc",
    "src/core/monte_carlo.cc",
    "src/core/sam_parallel.cc",
    "src/core/sam_bitslice.cc",
    "src/core/sam_internal.h",
    "src/core/sam_internal.cc",
    "src/core/resilient.cc",
    "src/core/all_worlds.cc",
    "src/core/solver.cc",
}

# Calls that mark a loop as doing per-world / per-subset solve work.
WORK_MARKERS = {
    "SampleWorld", "NextWorld", "Survives", "TaskDfs", "Dfs",
    "SampleChunk", "BatchChunkSurvivors", "NextChunk", "ChunkSurvivors",
}

# Direct cancellation polls. `cancelled` is CancelToken::cancelled() or
# QueryBudget::cancelled(), the engines' poll of a resolved budget;
# `Expired` is Deadline::Expired(); CheckStop wraps both.
POLL_MARKERS = {"CheckStop", "cancelled", "Expired"}

# Body calls that make unordered iteration order observable.
ORDER_SINKS = {"push_back", "emplace_back", "insert", "append", "Add", "Set"}

PRNG_TYPE_RE = re.compile(r"\b(Rng|OctoRng|SplitMix64|Xoshiro\w*)\b")

FLOAT_TYPES = {"float", "double", "long double"}

PARSE_ARGS = ["-x", "c++", "-std=c++20"]


def load_cindex():
    """Imports clang.cindex and points it at a loadable libclang.
    Returns the module, or None when the bindings or the shared library
    are missing (the caller decides whether that is a skip or an error).
    """
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None

    import ctypes
    import ctypes.util

    candidates: List[Optional[str]] = []
    env = os.environ.get("SKYPREF_LIBCLANG")
    if env:
        candidates.append(env)
    found = ctypes.util.find_library("clang")
    if found:
        candidates.append(found)
    for ver in range(21, 12, -1):
        candidates.extend([
            f"libclang-{ver}.so.{ver}",
            f"libclang-{ver}.so.1",
            f"libclang.so.{ver}",
            f"libclang-{ver}.so",
        ])
    candidates.append("libclang.so")
    candidates.append(None)  # whatever the bindings default to

    for candidate in candidates:
        if candidate is not None:
            try:
                ctypes.CDLL(candidate)
            except OSError:
                continue
            try:
                cindex.Config.set_library_file(candidate)
            except Exception:  # already loaded; keep what works
                pass
        try:
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


class Finding(NamedTuple):
    path: Path  # repo-relative
    line: int
    check: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


class FileContext:
    """Caches per-file source lines for suppression lookups."""

    def __init__(self) -> None:
        self._lines: Dict[Path, List[str]] = {}

    def lines(self, path: Path) -> List[str]:
        if path not in self._lines:
            try:
                self._lines[path] = path.read_text(
                    encoding="utf-8").split("\n")
            except OSError:
                self._lines[path] = []
        return self._lines[path]

    def is_suppressed(self, path: Path, line: int, check: str) -> bool:
        """True if an allow(<check>) comment sits on `line` or on the
        contiguous run of //-comment lines directly above it."""
        lines = self.lines(path)
        if not 1 <= line <= len(lines):
            return False

        def allows(text: str) -> bool:
            return any(m.group(1) == check
                       for m in ALLOW_RE.finditer(text))

        if allows(lines[line - 1]):
            return True
        i = line - 2
        while i >= 0 and lines[i].strip().startswith("//"):
            if allows(lines[i]):
                return True
            i -= 1
        return False


class Analyzer:
    def __init__(self, cindex, repo_root: Path) -> None:
        self.cindex = cindex
        self.repo_root = repo_root
        self.index = cindex.Index.create()
        self.files = FileContext()
        self._seen: Set[Tuple[str, int, str]] = set()
        self.findings: List[Finding] = []
        self.parse_errors: List[str] = []

    # ---------------- plumbing ----------------

    def rel(self, cursor) -> Optional[Path]:
        """Repo-relative path of the cursor's file, or None if it lies
        outside the repo (system headers)."""
        loc = cursor.location
        if loc.file is None:
            return None
        try:
            return Path(loc.file.name).resolve().relative_to(self.repo_root)
        except ValueError:
            return None

    def add(self, cursor, check: str, message: str) -> None:
        rel = self.rel(cursor)
        if rel is None:
            return
        line = cursor.location.line
        key = (rel.as_posix(), line, check)
        if key in self._seen:
            return
        self._seen.add(key)
        abs_path = self.repo_root / rel
        if self.files.is_suppressed(abs_path, line, check):
            return
        self.findings.append(Finding(rel, line, check, message))

    def tokens(self, tu, extent) -> List:
        return list(tu.get_tokens(extent=extent))

    def called_names(self, tu, extent) -> Set[str]:
        """Identifiers followed by '(' within the extent — the names this
        region calls (token-level, so macros and uninstantiated templates
        are seen too). Comments are skipped."""
        kinds = self.cindex.TokenKind
        toks = [t for t in self.tokens(tu, extent)
                if t.kind != kinds.COMMENT]
        names: Set[str] = set()
        for tok, nxt in zip(toks, toks[1:]):
            if (tok.kind == kinds.IDENTIFIER
                    and nxt.spelling == "("):
                names.add(tok.spelling)
        return names

    # ---------------- traversal ----------------

    LOOP_KINDS = None  # set in run()
    FUNC_KINDS = None

    def run(self, tu_paths: List[Path]) -> None:
        ck = self.cindex.CursorKind
        self.LOOP_KINDS = {ck.FOR_STMT, ck.CXX_FOR_RANGE_STMT,
                           ck.WHILE_STMT, ck.DO_STMT}
        self.FUNC_KINDS = {ck.FUNCTION_DECL, ck.CXX_METHOD,
                           ck.FUNCTION_TEMPLATE, ck.CONSTRUCTOR,
                           ck.DESTRUCTOR}
        for path in tu_paths:
            args = PARSE_ARGS + [f"-I{self.repo_root}"]
            try:
                tu = self.index.parse(str(path), args=args)
            except self.cindex.TranslationUnitLoadError as err:
                self.parse_errors.append(f"{path}: {err}")
                continue
            fatal = [d for d in tu.diagnostics if d.severity >= 4]
            if fatal:
                self.parse_errors.append(
                    f"{path}: {fatal[0].spelling} "
                    f"(+{len(fatal) - 1} more)" if len(fatal) > 1
                    else f"{path}: {fatal[0].spelling}")
            self.check_tu(tu)

    def check_tu(self, tu) -> None:
        ck = self.cindex.CursorKind
        parents: Dict = {}
        loops = []
        compound_assigns = []
        parallel_for_calls = []
        functions = []

        # Iterative walk: solver ASTs nest deeper than Python's default
        # recursion limit.
        stack = [(tu.cursor, None)]
        while stack:
            cursor, parent = stack.pop()
            parents[cursor.hash] = parent
            kind = cursor.kind
            if kind in self.LOOP_KINDS:
                loops.append(cursor)
            elif kind == ck.COMPOUND_ASSIGNMENT_OPERATOR:
                compound_assigns.append(cursor)
            elif kind == ck.CALL_EXPR and cursor.spelling == "ParallelFor":
                parallel_for_calls.append(cursor)
            elif kind in self.FUNC_KINDS and cursor.is_definition():
                functions.append(cursor)
            for child in cursor.get_children():
                stack.append((child, cursor))

        polls = self.polls_closure(tu, functions)
        for loop in loops:
            self.check_unordered_iter(tu, loop)
            self.check_cancel_poll(tu, loop, parents, polls)
        for assign in compound_assigns:
            self.check_kahan(tu, assign, parents)
        for call in parallel_for_calls:
            self.check_prng_capture(tu, call)

    # ---------------- check: cancel-poll ----------------

    def polls_closure(self, tu, functions) -> Set[str]:
        """Names of in-TU functions that poll cancellation, directly or
        through any same-TU function they call (transitive closure over
        the name-based call graph)."""
        calls: Dict[str, Set[str]] = {}
        direct: Set[str] = set()
        for fn in functions:
            name = fn.spelling
            if not name:
                continue
            called = self.called_names(tu, fn.extent)
            calls.setdefault(name, set()).update(called)
            if called & POLL_MARKERS:
                direct.add(name)
        closure = set(direct)
        changed = True
        while changed:
            changed = False
            for name, called in calls.items():
                if name not in closure and called & closure:
                    closure.add(name)
                    changed = True
        return closure

    def loop_body_extent(self, loop):
        """Extent of the loop's body (last child); falls back to the full
        loop extent. For the poll/work scans the difference only matters
        for for-headers, which cannot hide a poll anyway."""
        children = list(loop.get_children())
        return children[-1].extent if children else loop.extent

    def check_cancel_poll(self, tu, loop, parents, polls: Set[str]) -> None:
        rel = self.rel(loop)
        if rel is None or rel.as_posix() not in ENGINE_FILES:
            return
        poll_names = polls | POLL_MARKERS
        body = self.loop_body_extent(loop)
        called = self.called_names(tu, body)
        if not called & WORK_MARKERS:
            return
        if called & poll_names:
            return
        # A polling ancestor loop in the same function bounds the gap:
        # the outer iteration polls, the inner loop is one work unit.
        ck = self.cindex.CursorKind
        cursor = parents.get(loop.hash)
        delegated = False
        while cursor is not None:
            kind = cursor.kind
            if kind in self.LOOP_KINDS:
                outer = self.called_names(
                    tu, self.loop_body_extent(cursor))
                if outer & poll_names:
                    return
            if kind == ck.LAMBDA_EXPR:
                # Exempt loops inside lambdas handed to a polling driver
                # (e.g. RunDeterministicBlocks polls between blocks).
                call = parents.get(cursor.hash)
                while call is not None and call.kind != ck.CALL_EXPR:
                    call = parents.get(call.hash)
                if call is not None and call.spelling in polls:
                    delegated = True
            if kind in self.FUNC_KINDS:
                break
            cursor = parents.get(cursor.hash)
        if delegated:
            return
        self.add(loop, CHECK_CANCEL_POLL,
                 "engine loop does per-world work with no cancellation "
                 "poll on any path (call CheckStop / a polling helper at "
                 "a bounded cadence)")

    # ---------------- check: unordered-iter ----------------

    def check_unordered_iter(self, tu, loop) -> None:
        ck = self.cindex.CursorKind
        if loop.kind != ck.CXX_FOR_RANGE_STMT:
            return
        rel = self.rel(loop)
        if rel is None:
            return
        posix = rel.as_posix()
        if not (posix.startswith("src/core/")
                or posix.startswith("src/model/")):
            return
        children = list(loop.get_children())
        if len(children) < 2:
            return
        body = children[-1]
        over_unordered = False
        for child in children[:-1]:
            spelling = child.type.get_canonical().spelling
            if "unordered_map<" in spelling or "unordered_set<" in spelling:
                over_unordered = True
                break
        if not over_unordered:
            return
        sink_line = self.order_sensitive_sink(body)
        if sink_line is None:
            return
        self.add(loop, CHECK_UNORDERED_ITER,
                 "range-for over an unordered container feeds "
                 f"order-sensitive output (line {sink_line}); iterate a "
                 "sorted key list instead")

    def order_sensitive_sink(self, body) -> Optional[int]:
        """Line of the first float accumulation or container append in
        the loop body, or None."""
        ck = self.cindex.CursorKind
        best: Optional[int] = None
        stack = [body]
        while stack:
            cursor = stack.pop()
            kind = cursor.kind
            hit = None
            if kind == ck.COMPOUND_ASSIGNMENT_OPERATOR:
                lhs = next(cursor.get_children(), None)
                if (lhs is not None
                        and lhs.type.get_canonical().spelling
                        in FLOAT_TYPES):
                    hit = cursor.location.line
            elif kind == ck.CALL_EXPR and cursor.spelling in ORDER_SINKS:
                hit = cursor.location.line
            if hit is not None and (best is None or hit < best):
                best = hit
            stack.extend(cursor.get_children())
        return best

    # ---------------- check: kahan-discipline ----------------

    def check_kahan(self, tu, assign, parents) -> None:
        rel = self.rel(assign)
        if rel is None:
            return
        posix = rel.as_posix()
        # src/util/kahan.h (the compensated accumulators themselves) is
        # outside src/core, so the implementation's own += stays exempt.
        if not posix.startswith("src/core/"):
            return
        kinds = self.cindex.TokenKind
        ops = [t.spelling for t in self.tokens(tu, assign.extent)
               if t.kind == kinds.PUNCTUATION]
        if "+=" not in ops:
            return
        lhs = next(assign.get_children(), None)
        if lhs is None:
            return
        if lhs.type.get_canonical().spelling not in FLOAT_TYPES:
            return
        cursor = parents.get(assign.hash)
        in_loop = False
        while cursor is not None:
            if cursor.kind in self.LOOP_KINDS:
                in_loop = True
                break
            if cursor.kind in self.FUNC_KINDS:
                break
            cursor = parents.get(cursor.hash)
        if not in_loop:
            return
        self.add(assign, CHECK_KAHAN,
                 "plain floating-point += accumulation in a loop; use "
                 "KahanSum/Accumulator, or annotate why plain summation "
                 "is part of the numeric contract")

    # ---------------- check: prng-capture ----------------

    def lambda_captures(self, tu, lam) -> Tuple[Optional[str], Dict[str, str]]:
        """Parses the capture introducer tokens. Returns (default, map of
        name -> 'ref'|'value'); default is '&', '=', or None."""
        kinds = self.cindex.TokenKind
        toks = [t for t in self.tokens(tu, lam.extent)
                if t.kind != kinds.COMMENT]
        spellings = [t.spelling for t in toks]
        try:
            start = spellings.index("[")
            end = spellings.index("]", start)
        except ValueError:
            return None, {}
        intro = spellings[start + 1:end]
        default: Optional[str] = None
        named: Dict[str, str] = {}
        entries: List[List[str]] = [[]]
        for s in intro:
            if s == ",":
                entries.append([])
            else:
                entries[-1].append(s)
        for entry in entries:
            if not entry:
                continue
            if entry == ["&"]:
                default = "&"
            elif entry == ["="]:
                default = "="
            elif entry[0] == "&":
                if len(entry) > 1:
                    named[entry[1]] = "ref"
            elif entry[0] == "this" or entry[0] == "*":
                continue
            else:
                named[entry[0]] = "value"
        return default, named

    def check_prng_capture(self, tu, call) -> None:
        ck = self.cindex.CursorKind
        rel = self.rel(call)
        if rel is None:
            return
        lambdas = []
        stack = list(call.get_children())
        while stack:
            cursor = stack.pop()
            if cursor.kind == ck.LAMBDA_EXPR:
                lambdas.append(cursor)
                continue  # nested lambdas handled via their own calls
            stack.extend(cursor.get_children())
        for lam in lambdas:
            default, named = self.lambda_captures(tu, lam)
            offending = self.captured_prng_by_ref(lam, default, named)
            if offending:
                self.add(lam, CHECK_PRNG_CAPTURE,
                         f"lambda handed to ParallelFor captures PRNG "
                         f"state '{offending}' by reference; seed a "
                         "fresh generator per chunk from the chunk "
                         "index instead")

    def captured_prng_by_ref(self, lam, default, named) -> Optional[str]:
        ck = self.cindex.CursorKind
        lam_start = lam.extent.start.offset
        stack = list(lam.get_children())
        while stack:
            cursor = stack.pop()
            stack.extend(cursor.get_children())
            if cursor.kind != ck.DECL_REF_EXPR:
                continue
            ref = cursor.referenced
            if ref is None or ref.kind not in (ck.VAR_DECL, ck.PARM_DECL):
                continue
            loc = ref.location
            if loc.file is None or loc.offset >= lam_start:
                continue  # declared inside the lambda (or unknown)
            type_names = (ref.type.spelling + " "
                          + ref.type.get_canonical().spelling)
            if not PRNG_TYPE_RE.search(type_names):
                continue
            name = ref.spelling
            mode = named.get(name)
            if mode == "value":
                continue
            if mode == "ref" or default == "&":
                return name
        return None


def iter_tus(paths: Iterable[Path], repo_root: Path) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        p = p if p.is_absolute() else repo_root / p
        if p.is_file():
            if p.suffix in (".cc", ".cpp"):
                out.append(p)
        elif p.is_dir():
            out.extend(sorted(c for c in p.rglob("*.cc") if c.is_file()))
        else:
            raise FileNotFoundError(p)
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/core", "src/model"],
                        help="translation units or directories to analyze "
                             "(default: src/core src/model)")
    parser.add_argument("--repo-root", default=None,
                        help="repo root for relative paths and -I "
                             "(default: parent of tools/)")
    args = parser.parse_args(argv)

    repo_root = Path(args.repo_root).resolve() if args.repo_root \
        else Path(__file__).resolve().parent.parent

    cindex = load_cindex()
    if cindex is None:
        required = os.environ.get("SKYPREF_REQUIRE_ANALYZE") == "1"
        stream = sys.stderr if required else sys.stdout
        print("skypref_analyze: libclang python bindings unavailable"
              + (" (required by SKYPREF_REQUIRE_ANALYZE=1)" if required
                 else "; skipping"),
              file=stream)
        return 2 if required else 77

    try:
        tus = iter_tus([Path(p) for p in args.paths], repo_root)
    except FileNotFoundError as err:
        print(f"skypref_analyze: no such path: {err.args[0]}",
              file=sys.stderr)
        return 2

    analyzer = Analyzer(cindex, repo_root)
    analyzer.run(tus)

    for err in analyzer.parse_errors:
        print(f"skypref_analyze: parse warning: {err}", file=sys.stderr)
    findings = sorted(analyzer.findings,
                      key=lambda f: (f.path.as_posix(), f.line, f.check))
    for finding in findings:
        print(finding)
    if findings:
        print(f"skypref_analyze: {len(findings)} finding(s) in "
              f"{len(tus)} translation unit(s)", file=sys.stderr)
        return 1
    print(f"skypref_analyze: clean ({len(tus)} translation units)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
