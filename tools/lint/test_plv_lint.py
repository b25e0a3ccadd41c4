#!/usr/bin/env python3
"""Self-test suite for tools/lint/plv_lint.py (the `lint_selftest` ctest).

Each rule gets fixture snippets written into a throwaway repo-shaped tree:
a positive case (the violation fires), a negative case (clean code stays
clean), and an allow-marker case (the grandfather escape works). The
fixtures run through the regex engine always, and through the clang
engine too when libclang is importable — so CI (which installs
python3-clang) proves the AST grounding, while a bare container still
verifies the fallback everyone's local ctest uses.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import plv_lint  # noqa: E402

CINDEX = plv_lint.load_cindex()


def lint_tree(tree: dict[str, str], engine_name: str = "regex") -> list[str]:
    """Writes `tree` (relpath -> content) to a temp root, lints it with the
    chosen engine, and returns the violation lines."""
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td).resolve()
        for rel, content in tree.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content, encoding="utf-8")
        if engine_name == "clang":
            engine = plv_lint.ClangEngine(CINDEX, root, strict=True)
        else:
            engine = plv_lint.RegexEngine()
        linter = plv_lint.Linter(root, engine)
        violations = list(linter.collect())
        if engine_name == "clang" and engine.parse_failures:
            raise AssertionError(f"fixture failed to parse: {engine.parse_failures}")
        return violations


def rules_of(violations: list[str]) -> list[str]:
    return [v.split("[", 1)[1].split("]", 1)[0] for v in violations if "[" in v]


class BlankingTest(unittest.TestCase):
    def test_preserves_offsets_and_newlines(self):
        src = 'int a; // std::map\n/* std::mutex */ int b;\nconst char* s = "std::map";\n'
        blanked = plv_lint.blank_comments_and_strings(src)
        self.assertEqual(len(blanked), len(src))
        self.assertEqual(blanked.count("\n"), src.count("\n"))
        self.assertNotIn("std::map", blanked)
        self.assertNotIn("std::mutex", blanked)
        self.assertIn("int a;", blanked)
        self.assertIn("int b;", blanked)

    def test_comments_do_not_trip_rules(self):
        tree = {"src/pml/doc.cpp": "// discussing std::map and std::mutex here\n"
                                   "/* delete chunk; a.load(); */\n"
                                   'const char* s = "std::condition_variable";\n'}
        self.assertEqual(lint_tree(tree), [])


class EngineMixin:
    """Rule cases shared by both engines; subclasses pin `engine`."""

    engine = "regex"

    def lint(self, tree):
        return lint_tree(tree, self.engine)

    # -- map-ban ----------------------------------------------------------

    def test_map_ban_fires_in_hot_dirs(self):
        tree = {"src/core/bad.cpp": "#include <map>\nstd::map<int, int> m;\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["map-ban", "map-ban"])

    def test_map_ban_ignores_cold_dirs(self):
        tree = {"src/graph/ok.cpp": "#include <map>\nstd::map<int, int> m;\n"}
        self.assertNotIn("map-ban", rules_of(self.lint(tree)))

    def test_map_ban_allow_marker(self):
        tree = {"src/core/ok.cpp":
                "#include <map>  // plv-lint: allow(map-ban)\n"}
        self.assertEqual(self.lint(tree), [])

    # -- raw-chunk-release ------------------------------------------------

    CHUNK_STUB = "struct Chunk { void recycle(); };\n"

    def test_raw_delete_of_chunk_fires(self):
        tree = {"src/pml/bad.cpp":
                self.CHUNK_STUB + "void f(Chunk* chunk) { delete chunk; }\n"}
        self.assertIn("raw-chunk-release", rules_of(self.lint(tree)))

    def test_recycle_call_fires(self):
        tree = {"src/pml/bad.cpp":
                self.CHUNK_STUB + "void f(Chunk* c) { c->recycle(); }\n"}
        self.assertIn("raw-chunk-release", rules_of(self.lint(tree)))

    def test_mailbox_is_exempt(self):
        tree = {"src/pml/mailbox.hpp":
                self.CHUNK_STUB + "inline void f(Chunk* c) { delete c; }\n"}
        self.assertEqual(self.lint(tree), [])

    # -- refine-full-scan -------------------------------------------------

    def test_full_scan_in_refine_tu_fires(self):
        tree = {"src/core/louvain_par.cpp":
                "using vid_t = unsigned;\n"
                "void f(vid_t local_n) {\n"
                "  for (vid_t v = 0; v < local_n; ++v) {}\n"
                "}\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["refine-full-scan"])

    def test_full_scan_elsewhere_is_clean(self):
        tree = {"src/core/other.cpp":
                "using vid_t = unsigned;\n"
                "void f(vid_t local_n) {\n"
                "  for (vid_t v = 0; v < local_n; ++v) {}\n"
                "}\n"}
        self.assertEqual(self.lint(tree), [])

    def test_full_scan_allow_marker(self):
        tree = {"src/core/louvain_par.cpp":
                "using vid_t = unsigned;\n"
                "void f(vid_t local_n) {\n"
                "  // per-level setup: plv-lint: allow(refine-full-scan)\n"
                "  for (vid_t v = 0; v < local_n; ++v) {}\n"
                "}\n"}
        self.assertEqual(self.lint(tree), [])

    # -- raw-mutex-ban ----------------------------------------------------

    def test_raw_mutex_fires(self):
        tree = {"src/graph/bad.cpp": "#include <mutex>\nstd::mutex m;\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["raw-mutex-ban"])

    def test_raw_condition_variable_fires(self):
        tree = {"tests/bad.cpp":
                "#include <condition_variable>\nstd::condition_variable cv;\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["raw-mutex-ban"])

    def test_sync_hpp_is_exempt(self):
        tree = {"src/common/sync.hpp": "#include <mutex>\nstd::mutex m;\n"}
        self.assertEqual(self.lint(tree), [])

    def test_wrapper_usage_is_clean(self):
        tree = {"src/graph/ok.cpp":
                "namespace plv { class Mutex {}; }\nplv::Mutex m;\n"}
        self.assertEqual(self.lint(tree), [])

    def test_raw_mutex_allow_marker(self):
        tree = {"src/graph/ok.cpp":
                "#include <mutex>\n"
                "std::mutex m;  // plv-lint: allow(raw-mutex-ban)\n"}
        self.assertEqual(self.lint(tree), [])

    # -- explicit-memory-order --------------------------------------------

    ATOMIC_STUB = "#include <atomic>\nstd::atomic<int> a{0};\n"

    def test_bare_load_fires(self):
        tree = {"src/pml/bad.cpp": self.ATOMIC_STUB +
                "int f() { return a.load(); }\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["explicit-memory-order"])

    def test_bare_store_fires(self):
        tree = {"src/core/bad.cpp": self.ATOMIC_STUB +
                "void f() { a.store(1); }\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["explicit-memory-order"])

    def test_ordered_ops_are_clean(self):
        tree = {"src/pml/ok.cpp": self.ATOMIC_STUB +
                "int f() {\n"
                "  a.store(1, std::memory_order_release);\n"
                "  a.fetch_add(1, std::memory_order_seq_cst);\n"
                "  return a.load(std::memory_order_acquire);\n"
                "}\n"}
        self.assertEqual(self.lint(tree), [])

    def test_outside_concurrency_core_is_clean(self):
        tree = {"src/graph/ok.cpp": self.ATOMIC_STUB +
                "int f() { return a.load(); }\n"}
        self.assertEqual(self.lint(tree), [])

    def test_memory_order_allow_marker(self):
        tree = {"src/pml/ok.cpp": self.ATOMIC_STUB +
                "int f() { return a.load(); }  // plv-lint: allow(explicit-memory-order)\n"}
        self.assertEqual(self.lint(tree), [])


class RegexEngineTest(EngineMixin, unittest.TestCase):
    engine = "regex"


@unittest.skipUnless(CINDEX is not None, "libclang python bindings unavailable")
class ClangEngineTest(EngineMixin, unittest.TestCase):
    engine = "clang"

    # AST-only precision the regex fallback cannot express.

    def test_repo_local_map_type_is_clean(self):
        # A type merely *named* map must not trip the std::map ban.
        tree = {"src/core/ok.cpp":
                "namespace plv { template <class K, class V> class map {}; }\n"
                "plv::map<int, int> m;\n"}
        self.assertEqual(self.lint(tree), [])

    def test_atomic_increment_operator_fires(self):
        tree = {"src/pml/bad.cpp": self.ATOMIC_STUB + "void f() { a++; }\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["explicit-memory-order"])

    def test_bare_exchange_fires(self):
        # The regex engine skips bare .exchange( (Comm::exchange collision);
        # the AST resolves the receiver and catches it.
        tree = {"src/pml/bad.cpp": self.ATOMIC_STUB +
                "int f() { return a.exchange(1); }\n"}
        self.assertEqual(rules_of(self.lint(tree)), ["explicit-memory-order"])

    def test_non_atomic_exchange_is_clean(self):
        tree = {"src/pml/ok.cpp":
                "struct Comm { int exchange(int); };\n"
                "int f(Comm& c) { return c.exchange(1); }\n"}
        self.assertEqual(self.lint(tree), [])

    def test_delete_of_non_chunk_is_clean(self):
        # Regex keys on chunk-ish names; the AST types the operand, so a
        # stray pointer named `c` of another type stays clean.
        tree = {"src/pml/ok.cpp":
                "struct Cfg {};\nvoid f(Cfg* other) { delete other; }\n"}
        self.assertEqual(self.lint(tree), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
