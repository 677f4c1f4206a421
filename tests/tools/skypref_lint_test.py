"""Tests for tools/skypref_lint.py.

Run directly (python3 tests/tools/skypref_lint_test.py) or through ctest
(the `skypref_lint_selftest` test). Each case writes a miniature src/
tree into a temp dir and asserts on the findings the linter reports.
"""

import io
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import skypref_lint  # noqa: E402


class LintHarness(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        (self.root / "tools").mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, relpath, text):
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def run_lint(self, *paths):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = skypref_lint.main(
                list(paths or ("src",)) + ["--repo-root", str(self.root)])
        return code, out.getvalue(), err.getvalue()

    def findings(self, relpath):
        path = self.root / relpath
        return skypref_lint.check_file(path, self.root)

    def rules(self, relpath):
        return [f.rule for f in self.findings(relpath)]


class NoExceptionsRule(LintHarness):
    def test_throw_flagged(self):
        self.write("src/core/x.cc", 'void F() { throw 1; }\n')
        self.assertIn("no-exceptions", self.rules("src/core/x.cc"))

    def test_try_catch_flagged(self):
        self.write("src/core/x.cc",
                   "void F() { try { G(); } catch (...) {} }\n")
        rules = self.rules("src/core/x.cc")
        self.assertEqual(rules.count("no-exceptions"), 2)

    def test_try_emplace_is_not_try(self):
        self.write("src/core/x.cc", "void F() { m.try_emplace(k, v); }\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_throw_in_comment_ignored(self):
        self.write("src/core/x.cc",
                   "// never throw here\n/* try hard */\nvoid F() {}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_throw_in_string_ignored(self):
        self.write("src/core/x.cc",
                   'const char* kMsg = "do not throw";\n')
        self.assertEqual(self.rules("src/core/x.cc"), [])


class NoRawRandomRule(LintHarness):
    def test_rand_flagged_outside_random_home(self):
        self.write("src/core/x.cc", "int F() { return rand() % 6; }\n")
        self.assertIn("no-raw-random", self.rules("src/core/x.cc"))

    def test_random_device_flagged(self):
        self.write("src/model/x.cc", "std::random_device rd;\n")
        self.assertIn("no-raw-random", self.rules("src/model/x.cc"))

    def test_allowed_inside_random_home(self):
        self.write("src/util/random.cc", "std::random_device rd;\n")
        self.assertEqual(self.rules("src/util/random.cc"), [])

    def test_operand_suffix_not_flagged(self):
        self.write("src/core/x.cc", "int F() { return operand(3); }\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_splitmix_construction_flagged_outside_util(self):
        self.write("src/core/x.cc",
                   "void F(uint64_t s) { SplitMix64 mixer(s ^ 7); }\n")
        self.assertIn("no-raw-random", self.rules("src/core/x.cc"))

    def test_xoshiro_construction_flagged_outside_util(self):
        self.write("src/model/x.cc",
                   "void F() { Xoshiro256PlusPlus gen{1, 2, 3, 4}; }\n")
        self.assertIn("no-raw-random", self.rules("src/model/x.cc"))

    def test_prng_construction_allowed_in_util(self):
        self.write("src/util/hash.cc",
                   "void F(uint64_t s) { SplitMix64 mixer(s); }\n")
        self.assertEqual(self.rules("src/util/hash.cc"), [])

    def test_prng_construction_allowed_in_sampler_engines(self):
        body = "void F(uint64_t s) { SplitMix64 mixer(s); }\n"
        self.write("src/core/monte_carlo.cc", body)
        self.write("src/core/sam_parallel.cc", body)
        self.write("src/core/sam_bitslice.cc", body)
        self.assertEqual(self.rules("src/core/monte_carlo.cc"), [])
        self.assertEqual(self.rules("src/core/sam_parallel.cc"), [])
        self.assertEqual(self.rules("src/core/sam_bitslice.cc"), [])

    def test_prng_mention_in_comment_ignored(self):
        self.write("src/core/x.cc",
                   "// seeded via SplitMix64(seed ^ b) upstream\n"
                   "void F() {}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_splitseed_helper_call_not_flagged(self):
        # Deriving a sub-stream through the blessed helper is the fix the
        # rule suggests; it must not itself trip the rule.
        self.write("src/core/x.cc",
                   "void F(uint64_t s) { Rng rng(SplitSeed(s, 3)); }\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])


class NoStdoutRule(LintHarness):
    def test_cout_flagged(self):
        self.write("src/io/x.cc", 'void F() { std::cout << "hi"; }\n')
        self.assertIn("no-stdout", self.rules("src/io/x.cc"))

    def test_bare_printf_flagged(self):
        self.write("src/io/x.cc", 'void F() { printf("hi"); }\n')
        self.assertIn("no-stdout", self.rules("src/io/x.cc"))

    def test_std_printf_flagged(self):
        self.write("src/io/x.cc", 'void F() { std::printf("hi"); }\n')
        self.assertIn("no-stdout", self.rules("src/io/x.cc"))

    def test_fprintf_stderr_allowed(self):
        self.write("src/util/x.cc",
                   'void F() { std::fprintf(stderr, "fatal\\n"); }\n')
        self.assertEqual(self.rules("src/util/x.cc"), [])

    def test_snprintf_allowed(self):
        self.write("src/util/x.cc",
                   "void F(char* b) { snprintf(b, 4, \"x\"); }\n")
        self.assertEqual(self.rules("src/util/x.cc"), [])


class FloatEqRule(LintHarness):
    def test_equality_with_literal_flagged_in_core(self):
        self.write("src/core/x.cc", "bool F(double p) { return p == 1.0; }\n")
        self.assertIn("float-eq", self.rules("src/core/x.cc"))

    def test_literal_on_left_flagged(self):
        self.write("src/core/x.cc", "bool F(double p) { return 0.5 != p; }\n")
        self.assertIn("float-eq", self.rules("src/core/x.cc"))

    def test_integer_equality_not_flagged(self):
        self.write("src/core/x.cc", "bool F(int i) { return i == 10; }\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_outside_core_not_flagged(self):
        self.write("src/util/x.cc", "bool F(double p) { return p == 1.0; }\n")
        self.assertEqual(self.rules("src/util/x.cc"), [])

    def test_suppression_comment(self):
        self.write(
            "src/core/x.cc",
            "bool F(double p) {\n"
            "  return p == 0.0;  // skypref-lint: allow(float-eq)\n"
            "}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_suppression_is_rule_specific(self):
        self.write(
            "src/core/x.cc",
            "bool F(double p) {\n"
            "  return p == 0.0;  // skypref-lint: allow(no-stdout)\n"
            "}\n")
        self.assertIn("float-eq", self.rules("src/core/x.cc"))


class DeadlineAfterRule(LintHarness):
    def test_deadline_after_flagged_in_core(self):
        self.write("src/core/x.cc",
                   "Deadline F(double s) { return Deadline::After(s); }\n")
        self.assertIn("deadline-after", self.rules("src/core/x.cc"))

    def test_allowed_in_cancel_home(self):
        self.write("src/util/cancel.h",
                   "#ifndef SKYPREF_UTIL_CANCEL_H_\n"
                   "#define SKYPREF_UTIL_CANCEL_H_\n"
                   "Deadline F(double s) { return Deadline::After(s); }\n"
                   "#endif\n")
        self.assertEqual(self.rules("src/util/cancel.h"), [])

    def test_mention_in_comment_ignored(self):
        self.write("src/core/x.cc", "// Deadline::After(s) lives in cancel.h\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_suppression_comment(self):
        self.write(
            "src/core/x.cc",
            "Deadline F(double s) {\n"
            "  return Deadline::After(s);  // skypref-lint: allow(deadline-after)\n"
            "}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])


class IncludeGuardRule(LintHarness):
    GOOD = ("#ifndef SKYPREF_CORE_X_H_\n"
            "#define SKYPREF_CORE_X_H_\n"
            "#endif  // SKYPREF_CORE_X_H_\n")

    def test_correct_guard_passes(self):
        self.write("src/core/x.h", self.GOOD)
        self.assertEqual(self.rules("src/core/x.h"), [])

    def test_wrong_guard_flagged(self):
        self.write("src/core/x.h",
                   "#ifndef X_H\n#define X_H\n#endif\n")
        self.assertIn("include-guard", self.rules("src/core/x.h"))

    def test_missing_guard_flagged(self):
        self.write("src/core/x.h", "int x;\n")
        self.assertIn("include-guard", self.rules("src/core/x.h"))

    def test_source_files_exempt(self):
        self.write("src/core/x.cc", "int x;\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])


class DiscardedStatusRule(LintHarness):
    DECLS = ("Status Validate(const Dataset& data);\n"
             "Result<double> Solve(ObjectId target);\n")

    def test_bare_call_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS + "void F() {\n  Validate(data);\n}\n")
        self.assertIn("discarded-status", self.rules("src/core/x.cc"))

    def test_bare_result_call_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS + "void F() {\n  Solve(0);\n}\n")
        self.assertIn("discarded-status", self.rules("src/core/x.cc"))

    def test_qualified_bare_call_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS + "void F() {\n  data.Validate(data);\n}\n")
        self.assertIn("discarded-status", self.rules("src/core/x.cc"))

    def test_assignment_not_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS + "void F() {\n  auto s = Validate(data);\n}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_return_not_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS + "Status F() {\n  return Validate(data);\n}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_if_condition_not_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS +
                   "void F() {\n  if (Validate(data).ok()) return;\n}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_chained_consumption_not_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS +
                   "void F() {\n  Validate(data).CheckOK();\n}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_continuation_line_not_flagged(self):
        # The wrapped argument of SKYPREF_ASSIGN_OR_RETURN looks exactly
        # like a bare call; the statement-start tracking must skip it.
        self.write("src/core/x.cc",
                   self.DECLS +
                   "Status F() {\n"
                   "  SKYPREF_ASSIGN_OR_RETURN(\n"
                   "      double p,\n"
                   "      Solve(0));\n"
                   "  return Status::OK();\n"
                   "}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_wrapped_assignment_rhs_not_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS +
                   "void F() {\n"
                   "  auto survival =\n"
                   "      Solve(0);\n"
                   "}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_unregistered_function_not_flagged(self):
        self.write("src/core/x.cc",
                   self.DECLS + "void F() {\n  Notify(data);\n}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_suppression_comment(self):
        self.write(
            "src/core/x.cc",
            self.DECLS +
            "void F() {\n"
            "  Validate(data);  // skypref-lint: allow(discarded-status)\n"
            "}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_registry_spans_files_through_main(self):
        # Declaration in the header, discarded call in another file: the
        # tree-wide pass wires them together.
        self.write("src/core/api.h",
                   "#ifndef SKYPREF_CORE_API_H_\n"
                   "#define SKYPREF_CORE_API_H_\n"
                   "Status Validate(const Dataset& data);\n"
                   "#endif  // SKYPREF_CORE_API_H_\n")
        self.write("src/core/user.cc", "void F() {\n  Validate(data);\n}\n")
        code, out, _ = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("src/core/user.cc:2: [discarded-status]", out)


class MutexGuardedByRule(LintHarness):
    def test_unguarded_std_mutex_member_flagged(self):
        self.write("src/core/x.cc",
                   "class C {\n"
                   "  std::mutex mutex_;\n"
                   "  int value_ = 0;\n"
                   "};\n")
        self.assertIn("mutex-guarded-by", self.rules("src/core/x.cc"))

    def test_unguarded_wrapper_mutex_flagged(self):
        self.write("src/core/x.cc",
                   "class C {\n"
                   "  Mutex mutex_;\n"
                   "  int value_ = 0;\n"
                   "};\n")
        self.assertIn("mutex-guarded-by", self.rules("src/core/x.cc"))

    def test_guarded_sibling_passes(self):
        self.write("src/core/x.cc",
                   "class C {\n"
                   "  Mutex mutex_;\n"
                   "  int value_ SKYPREF_GUARDED_BY(mutex_) = 0;\n"
                   "};\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_guard_must_name_the_same_mutex(self):
        self.write("src/core/x.cc",
                   "class C {\n"
                   "  Mutex a_;\n"
                   "  Mutex b_;\n"
                   "  int value_ SKYPREF_GUARDED_BY(a_) = 0;\n"
                   "};\n")
        self.assertEqual(self.rules("src/core/x.cc").count("mutex-guarded-by"),
                         1)

    def test_mutex_lock_local_not_flagged(self):
        self.write("src/core/x.cc",
                   "void F(Mutex& m) {\n"
                   "  MutexLock lock(m);\n"
                   "}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_wrapper_home_exempt(self):
        self.write("src/util/thread_annotations.h",
                   "#ifndef SKYPREF_UTIL_THREAD_ANNOTATIONS_H_\n"
                   "#define SKYPREF_UTIL_THREAD_ANNOTATIONS_H_\n"
                   "class Mutex {\n"
                   "  std::mutex mutex_;\n"
                   "};\n"
                   "#endif  // SKYPREF_UTIL_THREAD_ANNOTATIONS_H_\n")
        self.assertEqual(self.rules("src/util/thread_annotations.h"), [])

    def test_mutex_mention_in_comment_ignored(self):
        self.write("src/core/x.cc",
                   "// takes std::mutex coordination_ by contract\n"
                   "void F() {}\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])

    def test_suppression_comment(self):
        self.write("src/core/x.cc",
                   "class C {\n"
                   "  Mutex mutex_;  // skypref-lint: allow(mutex-guarded-by)\n"
                   "};\n")
        self.assertEqual(self.rules("src/core/x.cc"), [])


class FailpointSiteRule(LintHarness):
    """Failpoint-site checks need the tree-wide pass (main) because the

    known-site set is harvested from src/util/failpoint.cc.  The two-arg
    check_file path used by the other suites skips the rule by design.
    """

    REGISTRY = ("constexpr KnownSite kKnownSites[] = {\n"
                '    {"exact.dfs", SiteClass::kExecution},\n'
                '    {"threadpool.wait", SiteClass::kWait},\n'
                '    {"alloc.exact.flat_instance", SiteClass::kAllocation},\n'
                "};\n")

    def test_registered_site_clean(self):
        self.write("src/util/failpoint.cc", self.REGISTRY)
        self.write("src/core/x.cc",
                   'void F() { if (SKYPREF_FAILPOINT("exact.dfs")) return; }\n')
        code, out, _ = self.run_lint()
        self.assertEqual(code, 0, out)

    def test_unregistered_site_flagged(self):
        self.write("src/util/failpoint.cc", self.REGISTRY)
        self.write("src/core/x.cc",
                   'void F() { if (SKYPREF_FAILPOINT("exact.typo")) return; }\n')
        code, out, _ = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("src/core/x.cc:1: [failpoint-site]", out)
        self.assertIn("exact.typo", out)

    def test_alloc_macro_checked_too(self):
        self.write("src/util/failpoint.cc", self.REGISTRY)
        self.write("src/core/x.cc",
                   'void F() {\n'
                   '  if (SKYPREF_ALLOC_FAILPOINT("alloc.exact.flat_instance"))'
                   ' return;\n'
                   '  if (SKYPREF_ALLOC_FAILPOINT("alloc.nope")) return;\n'
                   '}\n')
        code, out, _ = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("src/core/x.cc:3: [failpoint-site]", out)
        self.assertNotIn("x.cc:2:", out)

    def test_wake_macro_checked_too(self):
        self.write("src/util/failpoint.cc", self.REGISTRY)
        self.write("src/core/x.cc",
                   'void F() {\n'
                   '  if (SKYPREF_WAKE_FAILPOINT("threadpool.sleep")) return;\n'
                   '}\n')
        code, out, _ = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("[failpoint-site]", out)

    def test_comment_mention_ignored(self):
        self.write("src/util/failpoint.cc", self.REGISTRY)
        self.write("src/core/x.cc",
                   '// e.g. SKYPREF_FAILPOINT("bogus.site") fires here\n'
                   "void F() {}\n")
        code, out, _ = self.run_lint()
        self.assertEqual(code, 0, out)

    def test_missing_registry_skips_rule(self):
        # No src/util/failpoint.cc in the tree: the rule cannot know the
        # site table, so it must stay silent rather than flag everything.
        self.write("src/core/x.cc",
                   'void F() { if (SKYPREF_FAILPOINT("exact.typo")) return; }\n')
        code, out, _ = self.run_lint()
        self.assertEqual(code, 0, out)


class CliBehavior(LintHarness):
    def test_clean_tree_exits_zero(self):
        self.write("src/core/x.cc", "int F() { return 1; }\n")
        code, out, _ = self.run_lint()
        self.assertEqual(code, 0)
        self.assertIn("clean", out)

    def test_findings_exit_one_with_locations(self):
        self.write("src/core/x.cc", "void F() { throw 1; }\n")
        code, out, err = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("src/core/x.cc:1: [no-exceptions]", out)
        self.assertIn("1 finding(s)", err)

    def test_missing_path_exits_two(self):
        code, _, err = self.run_lint("src/nope")
        self.assertEqual(code, 2)
        self.assertIn("no such path", err)


if __name__ == "__main__":
    unittest.main()
