#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

clang-tidy (driven by the .clang-tidy config at the repo root) covers the
generic C++ hygiene; this script enforces the invariants that are about
*this* codebase's architecture, not the language. Two engines implement
the same rules:

  * the **clang engine** (default where the `clang.cindex` libclang
    bindings import) grounds every rule in the AST: banned types are
    recognized by their resolved declaration (namespace std checked, not
    guessed), and releases/calls by cursor kind (a CALL_EXPR is a call
    site; definitions, declarations, and member-pointer uses never
    match);
  * the **regex engine** is the dependency-free fallback (comment- and
    string-blanked textual matching) so `ctest` works on machines without
    libclang. It is a slightly coarser over/under-approximation — noted
    per rule below — and CI runs the clang engine (`--engine=clang`).

The rules:

  map-ban
      std::map / std::unordered_map (and their multi* variants, and the
      <map> / <unordered_map> includes) are banned from the hot paths —
      src/core, src/pml, src/hashing. Their per-find pointer chase and
      allocation churn is exactly what the paper's flat open-addressed
      tables exist to avoid; common/flat_map.hpp is the sanctioned
      container (and lives outside the banned directories). AST mode
      resolves the template to namespace std, so a repo-local type merely
      *named* `map` never trips.

  raw-chunk-release
      Chunk nodes live and die on the pool API (Transport::acquire_chunk /
      release_chunk, ChunkPool::acquire / release). A raw `delete` of a
      chunk node, or a direct Chunk::recycle() call, bypasses the free
      list, the watermark accounting, and the ValidatingTransport
      ownership ledger. Only src/pml/mailbox.hpp — the pool and mailbox
      implementation itself — is exempt. AST mode types the delete's
      operand (any expression deleting a Chunk*, whatever the variable is
      called); the regex fallback keys on chunk-ish operand names.

  refine-full-scan
      The refine inner loops in src/core/louvain_par.cpp are frontier-
      driven: with active-vertex scheduling on, FIND must walk only the
      awake vertices, so a `for (vid_t l = 0; l < local_n; ...)` sweep in
      that translation unit is a full-partition scan in a hot path — the
      exact pattern the frontier exists to kill. AST mode applies the
      pattern to real FOR_STMT headers only. The handful of sanctioned
      sweeps carry `plv-lint: allow(refine-full-scan)` markers explaining
      why each is not a per-iteration full scan.

  rank-entry-ban
      core::louvain_rank is the per-rank engine body — a test seam for
      driving one rank inside a harness-owned fleet, not an entry point.
      Library, bench, and example code must go through the plv::louvain /
      GraphSource front door (or plv::Session for streaming), which own
      validation, fleet spawning, and result assembly. Calls are banned
      outside tests/; src/core/louvain_par.{cpp,hpp} (definition and
      declaration) are exempt.

  raw-mutex-ban
      Locks go through the annotated wrappers in src/common/sync.hpp
      (plv::Mutex / plv::CondVar / plv::MutexLock) so Clang Thread Safety
      Analysis sees every capability. Declaring std::mutex,
      std::condition_variable, or their timed/recursive/shared variants
      anywhere else — including via std::unique_lock<std::mutex> — is an
      error; only sync.hpp itself (the wrapper implementation) is exempt.
      AST mode checks the canonical type of every variable, field, and
      parameter declaration.

  explicit-memory-order
      Every std::atomic load/store/RMW in src/pml and src/core must name
      its std::memory_order: the lock-free mailbox's orderings are
      deliberate, reviewed decisions, and a bare `.load()` silently
      buying seq_cst hides the reasoning. AST mode also catches the
      operator forms (`++`, `+=`, assignment, implicit conversion reads)
      that cannot take an order argument — rewrite them as named calls.
      The regex fallback checks named calls only, and skips bare
      `.exchange(` (ambiguous with Comm::exchange) — the clang engine
      covers both precisely.

A genuine exception can be grandfathered with `plv-lint: allow(<rule>)`
in a comment on the offending line (or the line directly above it) — the
allow marker is read from the raw source, before any blanking.

Exit status: 0 when clean, 1 with one `path:line: [rule] message` per
violation, 2 when the requested engine is unusable (e.g. --engine=clang
without libclang, or a file fails to parse in strict clang mode). No
dependencies beyond the standard library; `clang.cindex` is used when
available or demanded.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

MAP_BAN_DIRS = ("src/core", "src/pml", "src/hashing")
CHUNK_DIRS = ("src/core", "src/pml", "src/hashing")
CHUNK_EXEMPT = ("src/pml/mailbox.hpp",)
# louvain_rank is callable from tests only; the engine's own translation
# unit and header hold the definition/declaration.
RANK_ENTRY_DIRS = ("src", "bench", "examples")
RANK_ENTRY_EXEMPT = ("src/core/louvain_par.cpp", "src/core/louvain_par.hpp")
# Full-partition sweeps are banned only in the refine engine's own TU —
# that is where the frontier lives and where an unmarked `< local_n` loop
# means a hot path silently scanning every vertex per iteration.
REFINE_SCAN_FILES = ("src/core/louvain_par.cpp",)
# Raw lock primitives are banned repo-wide; the wrapper implementation is
# the single place allowed to touch the std types.
RAW_MUTEX_DIRS = ("src", "tests", "bench", "examples")
RAW_MUTEX_EXEMPT = ("src/common/sync.hpp",)
# Memory-order discipline covers the concurrency core, where the orders
# carry protocol meaning (mailbox wake-ups, barrier generations, abort
# flags), not the whole tree.
MEMORY_ORDER_DIRS = ("src/pml", "src/core")
# Trees of deliberate violations consumed by the static-contract ctests;
# the repo-root scan must not trip over them.
FIXTURE_DIRS = ("tests/static_contracts",)

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

MAP_BAN_RE = re.compile(
    r"\bstd\s*::\s*(?:unordered_)?(?:multi)?map\b|#\s*include\s*<(?:unordered_)?map>"
)
# A raw delete of a chunk node. Chunk pointers in this codebase are
# consistently named c / chunk / *_chunk and declared as Chunk*; the rule
# fires on a `delete` whose line also involves a chunk-ish name so plain
# deletes of other types stay out of scope. (The clang engine types the
# operand instead and has no naming dependence.)
RAW_DELETE_RE = re.compile(r"\bdelete\b[^;]*\b(?:[Cc]hunk\w*|c)\s*;")
RECYCLE_RE = re.compile(r"(?:\.|->)\s*recycle\s*\(")
RANK_ENTRY_RE = re.compile(r"\blouvain_rank\s*\(")
# A for loop whose bound is the local partition size: `for (vid_t l = 0;
# l < local_n; ...)` and spacing/name variants. The bound name is what
# makes it a full-partition sweep; the induction variable is free.
REFINE_SCAN_RE = re.compile(r"\bfor\s*\(\s*vid_t\s+\w+\s*=\s*0\s*;\s*\w+\s*<\s*local_n\b")
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?)\b"
)
# Named atomic operations the regex engine can attribute safely. `.wait(`
# / `.clear(` collide with containers and condition variables, and bare
# `.exchange(` collides with Comm::exchange — the clang engine resolves
# those by receiver type instead.
ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(load|store|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"compare_exchange_weak|compare_exchange_strong|test_and_set)\s*(\()"
)

ALLOW_RE = re.compile(r"plv-lint:\s*allow\(([\w,\s-]+)\)")

# Method names that are atomic operations when the receiver resolves to
# std::atomic (clang engine). Operators are violations outright: they
# cannot carry a memory_order argument.
ATOMIC_OP_NAMES = {
    "load", "store", "exchange", "compare_exchange_weak",
    "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "test_and_set", "clear", "wait",
}
ATOMIC_PARENTS = {
    "atomic", "__atomic_base", "__atomic_float", "atomic_flag",
    "__atomic_flag_base",
}

MESSAGES = {
    "map-ban": (
        "std::map/std::unordered_map in a hot path; use "
        "common/flat_map.hpp (plv::FlatMap) instead"
    ),
    "raw-chunk-release": (
        "chunk node released outside the pool API; use "
        "Transport::release_chunk / ChunkPool::release"
    ),
    "refine-full-scan": (
        "full-partition vertex sweep in the refine engine; iterate the "
        "active frontier instead, or mark a sanctioned once-per-level "
        "sweep with plv-lint: allow(refine-full-scan)"
    ),
    "rank-entry-ban": (
        "direct louvain_rank call outside tests/; go through plv::louvain "
        "/ GraphSource (or plv::Session) — the front door owns "
        "validation, fleet spawning, and result assembly"
    ),
    "raw-mutex-ban": (
        "raw std lock primitive declared outside common/sync.hpp; use the "
        "annotated plv::Mutex / plv::CondVar / plv::MutexLock wrappers so "
        "thread-safety analysis sees the capability"
    ),
    "explicit-memory-order": (
        "std::atomic operation without an explicit std::memory_order; the "
        "concurrency core names every ordering deliberately (operator "
        "forms: rewrite as load/store/fetch_* with an order)"
    ),
}


def blank_comments_and_strings(text: str) -> str:
    """Replaces comment/string-literal contents with spaces, preserving
    offsets and newlines so line numbers keep matching the source."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if ch == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                mode = "str"
                out.append(ch)
                i += 1
                continue
            if ch == "'":
                mode = "chr"
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif mode == "line":
            if ch == "\n":
                mode = "code"
                out.append(ch)
            else:
                out.append(" ")
        elif mode == "block":
            if ch == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append(ch if ch == "\n" else " ")
        else:  # str | chr
            quote = '"' if mode == "str" else "'"
            if ch == "\\" and nxt:
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                mode = "code"
                out.append(ch)
            elif ch == "\n":  # unterminated (raw string etc.) — bail to code
                mode = "code"
                out.append(ch)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allowed(raw_lines: list[str], line_no: int, rule: str) -> bool:
    """True when line `line_no` (1-based) or the line above carries a
    plv-lint: allow(<rule>) marker (call expressions span lines, so the
    marker may sit in a comment directly above the call)."""
    for idx in (line_no - 1, line_no - 2):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m and rule in {r.strip() for r in m.group(1).split(",")}:
                return True
    return False


def extract_call_args(code: str, open_paren: int) -> str:
    """Returns the text between the matching parens starting at
    code[open_paren] == '(' (empty on imbalance)."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:i]
    return ""


class FileScope:
    """Which rules apply to one file, derived from its repo-relative path."""

    def __init__(self, rel: str):
        self.rel = rel
        self.map_ban = rel.startswith(MAP_BAN_DIRS)
        self.chunk = rel.startswith(CHUNK_DIRS) and rel not in CHUNK_EXEMPT
        self.rank_entry = rel.startswith(RANK_ENTRY_DIRS) and rel not in RANK_ENTRY_EXEMPT
        self.refine_scan = rel in REFINE_SCAN_FILES
        self.raw_mutex = rel.startswith(RAW_MUTEX_DIRS) and rel not in RAW_MUTEX_EXEMPT
        self.memory_order = rel.startswith(MEMORY_ORDER_DIRS)

    def any(self) -> bool:
        return (self.map_ban or self.chunk or self.rank_entry
                or self.refine_scan or self.raw_mutex or self.memory_order)


class RegexEngine:
    """Dependency-free textual engine over comment/string-blanked source."""

    name = "regex"

    def lint_file(self, path: pathlib.Path, scope: FileScope, report) -> None:
        raw = path.read_text(encoding="utf-8", errors="replace")
        code = blank_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        code_lines = code.splitlines()

        def hit(idx: int, rule: str) -> None:
            if not allowed(raw_lines, idx + 1, rule):
                report(path, idx + 1, rule, MESSAGES[rule])

        for idx, code_line in enumerate(code_lines):
            if scope.map_ban and MAP_BAN_RE.search(code_line):
                hit(idx, "map-ban")
            if scope.chunk and (RAW_DELETE_RE.search(code_line)
                                or RECYCLE_RE.search(code_line)):
                hit(idx, "raw-chunk-release")
            if scope.rank_entry and RANK_ENTRY_RE.search(code_line):
                hit(idx, "rank-entry-ban")
            if scope.refine_scan and REFINE_SCAN_RE.search(code_line):
                hit(idx, "refine-full-scan")
            if scope.raw_mutex and RAW_MUTEX_RE.search(code_line):
                hit(idx, "raw-mutex-ban")

        if scope.memory_order:
            for m in ATOMIC_CALL_RE.finditer(code):
                args = extract_call_args(code, m.start(2))
                if "memory_order" in args:
                    continue
                line_no = code.count("\n", 0, m.start()) + 1
                if not allowed(raw_lines, line_no, "explicit-memory-order"):
                    report(path, line_no, "explicit-memory-order",
                           MESSAGES["explicit-memory-order"])


def load_cindex():
    """Imports clang.cindex and verifies libclang actually loads; returns
    the module or None. Tries the packaged default first, then common
    distro locations (python3-clang does not always pin the library)."""
    try:
        import clang.cindex as ci  # type: ignore[import-not-found]
    except ImportError:
        return None
    try:
        ci.Index.create()
        return ci
    except Exception:
        pass
    import glob
    candidates = sorted(
        glob.glob("/usr/lib/llvm-*/lib/libclang*.so*")
        + glob.glob("/usr/lib/*/libclang*.so*"),
        reverse=True)
    for lib in candidates:
        try:
            ci.Config.loaded = False
            ci.Config.set_library_file(lib)
            ci.Index.create()
            return ci
        except Exception:
            continue
    return None


class ClangEngine:
    """libclang cursor engine: rules grounded in the resolved AST."""

    name = "clang"

    def __init__(self, ci, root: pathlib.Path, strict: bool):
        self.ci = ci
        self.root = root
        self.strict = strict  # fatal parse diagnostics fail the run
        self.index = ci.Index.create()
        self.args = ["-x", "c++", "-std=c++20", f"-I{root / 'src'}"]
        self.fallback = RegexEngine()
        self.parse_failures: list[str] = []

    # -- helpers -----------------------------------------------------------

    def _in_std(self, cursor) -> bool:
        """True when the (referenced) declaration lives in namespace std
        (directly or in a nested inline/detail namespace under std)."""
        decl = cursor.referenced if cursor.referenced is not None else cursor
        parent = decl.semantic_parent
        ci = self.ci
        while parent is not None and parent.kind != ci.CursorKind.TRANSLATION_UNIT:
            if parent.kind == ci.CursorKind.NAMESPACE and parent.spelling == "std":
                return True
            parent = parent.semantic_parent
        return False

    @staticmethod
    def _type_names_any(type_spelling: str, names: tuple[str, ...]) -> bool:
        return any(re.search(rf"\bstd::{n}\b", type_spelling) for n in names)

    # -- per-file lint -----------------------------------------------------

    def lint_file(self, path: pathlib.Path, scope: FileScope, report) -> None:
        ci = self.ci
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        try:
            tu = self.index.parse(
                str(path), args=self.args,
                options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
        except ci.TranslationUnitLoadError:
            tu = None
        fatal = tu is None or any(
            d.severity >= ci.Diagnostic.Fatal for d in tu.diagnostics)
        if fatal:
            first = next((d.spelling for d in tu.diagnostics
                          if d.severity >= ci.Diagnostic.Fatal), "parse failed"
                         ) if tu is not None else "parse failed"
            self.parse_failures.append(f"{scope.rel}: {first}")
            if not self.strict:
                # Degrade to the textual rules for this file so local runs
                # stay useful on partial checkouts / exotic includes.
                print(f"plv-lint: note: {scope.rel}: libclang parse failed "
                      f"({first}); falling back to the regex engine for "
                      "this file", file=sys.stderr)
                self.fallback.lint_file(path, scope, report)
            return

        def hit(line_no: int, rule: str) -> None:
            if not allowed(raw_lines, line_no, rule):
                report(path, line_no, rule, MESSAGES[rule])

        this_file = str(path)

        def in_this_file(cursor) -> bool:
            loc = cursor.location
            return loc.file is not None and loc.file.name == this_file

        def walk(cursor) -> None:
            for child in cursor.get_children():
                if in_this_file(child):
                    visit(child)
                walk(child)

        def visit(c) -> None:
            kind = c.kind
            line = c.location.line

            if scope.map_ban:
                if kind == ci.CursorKind.INCLUSION_DIRECTIVE and c.spelling in (
                        "map", "unordered_map"):
                    hit(line, "map-ban")
                elif kind in (ci.CursorKind.TEMPLATE_REF, ci.CursorKind.TYPE_REF) \
                        and c.spelling in ("map", "multimap", "unordered_map",
                                           "unordered_multimap") \
                        and self._in_std(c):
                    hit(line, "map-ban")

            if scope.chunk:
                if kind == ci.CursorKind.CXX_DELETE_EXPR:
                    children = list(c.get_children())
                    if children:
                        pointee = children[0].type.get_canonical().get_pointee()
                        if re.search(r"\bChunk\b", pointee.spelling):
                            hit(line, "raw-chunk-release")
                elif kind == ci.CursorKind.CALL_EXPR and c.spelling == "recycle":
                    ref = c.referenced
                    parent = ref.semantic_parent.spelling if (
                        ref is not None and ref.semantic_parent is not None) else None
                    if parent in (None, "Chunk"):
                        hit(line, "raw-chunk-release")

            if scope.rank_entry and kind == ci.CursorKind.CALL_EXPR \
                    and c.spelling == "louvain_rank":
                hit(line, "rank-entry-ban")

            if scope.refine_scan and kind == ci.CursorKind.FOR_STMT:
                ext = c.extent
                header = raw[ext.start.offset:min(ext.start.offset + 300,
                                                  ext.end.offset)]
                if REFINE_SCAN_RE.search(blank_comments_and_strings(header)):
                    hit(line, "refine-full-scan")

            if scope.raw_mutex and kind in (ci.CursorKind.VAR_DECL,
                                            ci.CursorKind.FIELD_DECL,
                                            ci.CursorKind.PARM_DECL):
                canon = c.type.get_canonical().spelling
                if self._type_names_any(canon, (
                        "mutex", "timed_mutex", "recursive_mutex",
                        "recursive_timed_mutex", "shared_mutex",
                        "shared_timed_mutex", "condition_variable",
                        "condition_variable_any")):
                    hit(line, "raw-mutex-ban")

            if scope.memory_order and kind == ci.CursorKind.CALL_EXPR:
                ref = c.referenced
                if ref is not None and ref.kind == ci.CursorKind.CXX_METHOD:
                    parent = ref.semantic_parent
                    if parent is not None and parent.spelling in ATOMIC_PARENTS \
                            and self._in_std(ref):
                        name = ref.spelling
                        if name.startswith("operator"):
                            hit(line, "explicit-memory-order")
                        elif name in ATOMIC_OP_NAMES:
                            has_order = any(
                                "memory_order" in a.type.get_canonical().spelling
                                for a in c.get_arguments() if a is not None)
                            if not has_order:
                                hit(line, "explicit-memory-order")

        walk(tu.cursor)


class Linter:
    def __init__(self, root: pathlib.Path, engine):
        self.root = root
        self.engine = engine
        self.violations: list[str] = []

    def report(self, path: pathlib.Path, line_no: int, rule: str, message: str) -> None:
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{line_no}: [{rule}] {message}")

    def files_under(self, dirs: tuple[str, ...]):
        seen = set()
        for d in dirs:
            base = self.root / d
            if not base.is_dir():
                continue
            for p in sorted(base.rglob("*")):
                if p.suffix not in CPP_SUFFIXES or p in seen:
                    continue
                rel = p.relative_to(self.root).as_posix()
                # Deliberate-violation fixtures (the static-contract
                # harness points --root inside them instead).
                if any(rel.startswith(f + "/") for f in FIXTURE_DIRS):
                    continue
                seen.add(p)
                yield p

    def collect(self) -> list[str]:
        """Lints the tree and returns the violations without printing
        (the seam the self-test suite drives)."""
        self.scanned = 0
        all_dirs = tuple(sorted({*MAP_BAN_DIRS, *CHUNK_DIRS,
                                 *RANK_ENTRY_DIRS, *RAW_MUTEX_DIRS,
                                 *MEMORY_ORDER_DIRS}))
        for p in self.files_under(all_dirs):
            scope = FileScope(p.relative_to(self.root).as_posix())
            if not scope.any():
                continue
            self.scanned += 1
            self.engine.lint_file(p, scope, self.report)
        self.violations.sort()
        return self.violations

    def run(self) -> int:
        self.collect()
        for v in self.violations:
            print(v)
        strict_failures = getattr(self.engine, "parse_failures", [])
        if getattr(self.engine, "strict", False) and strict_failures:
            for f in strict_failures:
                print(f"plv-lint: parse failure: {f}", file=sys.stderr)
            print("plv-lint: clang engine could not parse the tree "
                  "(missing headers?); fix the include path or use "
                  "--engine=auto", file=sys.stderr)
            return 2
        if self.violations:
            print(f"plv-lint: {len(self.violations)} violation(s)", file=sys.stderr)
            return 1
        print(f"plv-lint: clean ({self.scanned} files, {self.engine.name} engine)")
        return 0


def make_engine(choice: str, root: pathlib.Path):
    """Resolves --engine. Returns (engine, error): error is a message when
    the demanded engine is unavailable."""
    if choice == "regex":
        return RegexEngine(), None
    ci = load_cindex()
    if ci is None:
        if choice == "clang":
            return None, ("the clang engine needs the libclang python "
                          "bindings (python3-clang) and a loadable "
                          "libclang.so")
        print("plv-lint: note: libclang unavailable; using the regex "
              "engine (install python3-clang for AST-grounded rules)",
              file=sys.stderr)
        return RegexEngine(), None
    return ClangEngine(ci, root, strict=(choice == "clang")), None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--engine", choices=("auto", "clang", "regex"), default="auto",
                    help="auto: clang when libclang imports, else regex; "
                         "clang: require libclang and fail on parse errors "
                         "(CI); regex: force the textual fallback")
    args = ap.parse_args()
    root = (pathlib.Path(args.root) if args.root
            else pathlib.Path(__file__).resolve().parent.parent.parent)
    engine, err = make_engine(args.engine, root.resolve())
    if engine is None:
        print(f"plv-lint: error: {err}", file=sys.stderr)
        return 2
    return Linter(root.resolve(), engine).run()


if __name__ == "__main__":
    sys.exit(main())
