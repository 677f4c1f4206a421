"""Tests for tools/skypref_analyze.py.

Run directly (python3 tests/tools/skypref_analyze_test.py) or through
ctest (the `skypref_analyze_selftest` test). Each case writes a
miniature, freestanding src/ tree into a temp dir — no repo headers, the
fixtures stub exactly the shapes each check keys on — and asserts on the
findings the analyzer reports.

Exits 77 (ctest's skip code) when libclang python bindings are missing,
the same gate the analyzer itself applies, unless
SKYPREF_REQUIRE_ANALYZE=1.
"""

import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import skypref_analyze  # noqa: E402

_CINDEX = skypref_analyze.load_cindex()
if _CINDEX is None:
    if os.environ.get("SKYPREF_REQUIRE_ANALYZE") == "1":
        print("skypref_analyze_test: libclang required but unavailable",
              file=sys.stderr)
        sys.exit(2)
    print("skypref_analyze_test: libclang unavailable; skipping")
    sys.exit(77)


# Freestanding stub of the unordered containers: canonical type spelling
# must contain "unordered_map<"/"unordered_set<", which a same-named
# template in namespace std provides without pulling in real headers.
UNORDERED_STUB = """\
namespace std {
template <class K, class V>
struct unordered_map {
  struct value_type { K first; V second; };
  value_type* begin();
  value_type* end();
};
template <class K>
struct unordered_set {
  K* begin();
  K* end();
};
}  // namespace std
"""

POOL_STUB = """\
struct Rng {
  unsigned long next();
};
struct ThreadPool {
  template <class F>
  void ParallelFor(unsigned long count, F fn) { fn(0); }
};
"""


class AnalyzeHarness(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, relpath, text):
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def analyze(self, *relpaths):
        analyzer = skypref_analyze.Analyzer(_CINDEX, self.root)
        analyzer.run([self.root / rel for rel in relpaths])
        return analyzer.findings

    def checks(self, *relpaths):
        return [f.check for f in self.analyze(*relpaths)]

    def run_cli(self, *paths):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = skypref_analyze.main(
                list(paths) + ["--repo-root", str(self.root)])
        return code, out.getvalue(), err.getvalue()


class UnorderedIterCheck(AnalyzeHarness):
    FIRING = UNORDERED_STUB + """\
struct Model { void Set(int dim, double p); };
void Build(std::unordered_map<int, double>& counts, Model& model) {
  for (auto& kv : counts) {
    model.Set(kv.first, kv.second);
  }
}
"""

    def test_set_call_from_unordered_iteration_fires(self):
        self.write("src/model/estimation.cc", self.FIRING)
        self.assertIn("unordered-iter", self.checks("src/model/estimation.cc"))

    def test_float_accumulation_fires(self):
        self.write("src/model/estimation.cc", UNORDERED_STUB + """\
double Total(std::unordered_map<int, double>& counts) {
  double total = 0.0;
  for (auto& kv : counts) {
    total += kv.second;
  }
  return total;
}
""")
        self.assertIn("unordered-iter", self.checks("src/model/estimation.cc"))

    def test_unordered_set_append_fires(self):
        self.write("src/model/estimation.cc", UNORDERED_STUB + """\
struct Out { void push_back(int v); };
void Collect(std::unordered_set<int>& keys, Out& out) {
  for (int k : keys) {
    out.push_back(k);
  }
}
""")
        self.assertIn("unordered-iter", self.checks("src/model/estimation.cc"))

    def test_pure_counting_is_clean(self):
        self.write("src/model/estimation.cc", UNORDERED_STUB + """\
unsigned long Count(std::unordered_map<int, double>& counts) {
  unsigned long n = 0;
  for (auto& kv : counts) {
    if (kv.second > 0.5) ++n;
  }
  return n;
}
""")
        self.assertEqual(self.checks("src/model/estimation.cc"), [])

    def test_vector_iteration_is_clean(self):
        self.write("src/model/estimation.cc", """\
struct Model { void Set(int dim, double p); };
struct Vec { double* begin(); double* end(); };
void Build(Vec& v, Model& model) {
  for (double p : v) {
    model.Set(0, p);
  }
}
""")
        self.assertEqual(self.checks("src/model/estimation.cc"), [])

    def test_outside_core_and_model_is_clean(self):
        self.write("src/io/estimation.cc", self.FIRING)
        self.assertEqual(self.checks("src/io/estimation.cc"), [])

    def test_suppression_comment(self):
        self.write("src/model/estimation.cc", UNORDERED_STUB + """\
struct Model { void Set(int dim, double p); };
void Build(std::unordered_map<int, double>& counts, Model& model) {
  // Orderings verified equivalent downstream.
  // skypref-analyze: allow(unordered-iter)
  for (auto& kv : counts) {
    model.Set(kv.first, kv.second);
  }
}
""")
        self.assertEqual(self.checks("src/model/estimation.cc"), [])


class CancelPollCheck(AnalyzeHarness):
    FIRING = """\
struct Sampler { bool SampleWorld(); };
unsigned long Run(Sampler& s, unsigned long n) {
  unsigned long hits = 0;
  for (unsigned long h = 0; h < n; ++h) {
    if (s.SampleWorld()) ++hits;
  }
  return hits;
}
"""

    def test_unpolled_engine_loop_fires(self):
        self.write("src/core/monte_carlo.cc", self.FIRING)
        self.assertIn("cancel-poll", self.checks("src/core/monte_carlo.cc"))

    def test_unpolled_chunk_loop_fires(self):
        # The shared-world estimator's 64-world chunk loop is per-world
        # work too.
        self.write("src/core/all_worlds.cc", """\
struct Sampler {
  void NextChunk();
  unsigned long ChunkSurvivors(unsigned long i);
};
unsigned long Run(Sampler& s, unsigned long n, unsigned long chunks) {
  unsigned long words = 0;
  for (unsigned long c = 0; c < chunks; ++c) {
    s.NextChunk();
    for (unsigned long i = 0; i < n; ++i) words |= s.ChunkSurvivors(i);
  }
  return words;
}
""")
        self.assertIn("cancel-poll", self.checks("src/core/all_worlds.cc"))

    def test_direct_poll_is_clean(self):
        self.write("src/core/monte_carlo.cc", """\
struct Sampler { bool SampleWorld(); };
struct Status { bool ok(); };
Status CheckStop();
unsigned long Run(Sampler& s, unsigned long n) {
  unsigned long hits = 0;
  for (unsigned long h = 0; h < n; ++h) {
    if ((h & 63) == 0 && !CheckStop().ok()) return hits;
    if (s.SampleWorld()) ++hits;
  }
  return hits;
}
""")
        self.assertEqual(self.checks("src/core/monte_carlo.cc"), [])

    def test_budget_poll_is_clean(self):
        # The engines poll a resolved QueryBudget: its cancelled() and its
        # deadline's Expired() are the markers.
        self.write("src/core/monte_carlo.cc", """\
struct Sampler { bool SampleWorld(); };
struct Deadline { bool Expired() const; };
struct QueryBudget {
  Deadline deadline;
  bool cancelled() const;
};
unsigned long Run(Sampler& s, const QueryBudget& budget, unsigned long n) {
  unsigned long hits = 0;
  for (unsigned long h = 0; h < n; ++h) {
    if (s.SampleWorld()) ++hits;
    if ((h & 63) == 0 && (budget.cancelled() || budget.deadline.Expired())) {
      return hits;
    }
  }
  return hits;
}
""")
        self.assertEqual(self.checks("src/core/monte_carlo.cc"), [])

    def test_transitive_poll_through_helper_is_clean(self):
        # The loop polls through ChargeVisit -> CheckStop: the name-based
        # call graph closure must see it.
        self.write("src/core/exact.cc", """\
struct Sampler { bool SampleWorld(); };
struct Status { bool ok(); };
Status CheckStop();
Status ChargeVisit() { return CheckStop(); }
unsigned long Run(Sampler& s, unsigned long n) {
  unsigned long hits = 0;
  for (unsigned long h = 0; h < n; ++h) {
    if (!ChargeVisit().ok()) return hits;
    if (s.SampleWorld()) ++hits;
  }
  return hits;
}
""")
        self.assertEqual(self.checks("src/core/exact.cc"), [])

    def test_polling_outer_loop_exempts_inner(self):
        self.write("src/core/all_worlds.cc", """\
struct Sampler { bool Survives(unsigned long i); void NextWorld(); };
struct Status { bool ok(); };
Status CheckStop();
unsigned long Run(Sampler& s, unsigned long n, unsigned long worlds) {
  unsigned long hits = 0;
  for (unsigned long h = 0; h < worlds; ++h) {
    if ((h & 63) == 0 && !CheckStop().ok()) return hits;
    s.NextWorld();
    for (unsigned long i = 0; i < n; ++i) {
      if (s.Survives(i)) ++hits;
    }
  }
  return hits;
}
""")
        self.assertEqual(self.checks("src/core/all_worlds.cc"), [])

    def test_lambda_handed_to_polling_driver_is_exempt(self):
        self.write("src/core/sam_bitslice.cc", """\
struct Sampler { bool SampleWorld(); };
struct Status { bool ok(); };
Status CheckStop();
template <class F>
void RunBlocks(unsigned long blocks, F fn) {
  for (unsigned long b = 0; b < blocks; ++b) {
    if (!CheckStop().ok()) return;
    fn(b);
  }
}
unsigned long Run(Sampler& s, unsigned long n) {
  unsigned long hits = 0;
  RunBlocks(4, [&](unsigned long) {
    for (unsigned long h = 0; h < n; ++h) {
      if (s.SampleWorld()) ++hits;
    }
  });
  return hits;
}
""")
        self.assertEqual(self.checks("src/core/sam_bitslice.cc"), [])

    def test_non_engine_file_is_clean(self):
        self.write("src/core/partition.cc", self.FIRING)
        self.assertEqual(self.checks("src/core/partition.cc"), [])

    def test_loop_without_work_markers_is_clean(self):
        self.write("src/core/monte_carlo.cc", """\
unsigned long Sum(const unsigned long* xs, unsigned long n) {
  unsigned long total = 0;
  for (unsigned long i = 0; i < n; ++i) total += xs[i];
  return total;
}
""")
        self.assertEqual(self.checks("src/core/monte_carlo.cc"), [])

    def test_suppression_comment(self):
        self.write("src/core/monte_carlo.cc", """\
struct Sampler { bool SampleWorld(); };
unsigned long Run(Sampler& s, unsigned long n) {
  unsigned long hits = 0;
  // Bounded to n <= 64 by the caller; cancellation handled upstream.
  // skypref-analyze: allow(cancel-poll)
  for (unsigned long h = 0; h < n; ++h) {
    if (s.SampleWorld()) ++hits;
  }
  return hits;
}
""")
        self.assertEqual(self.checks("src/core/monte_carlo.cc"), [])


class KahanDisciplineCheck(AnalyzeHarness):
    def test_float_accumulation_in_loop_fires(self):
        self.write("src/core/reduce.cc", """\
double Sum(const double* xs, unsigned long n) {
  double total = 0.0;
  for (unsigned long i = 0; i < n; ++i) {
    total += xs[i];
  }
  return total;
}
""")
        self.assertIn("kahan-discipline", self.checks("src/core/reduce.cc"))

    def test_integer_accumulation_is_clean(self):
        self.write("src/core/reduce.cc", """\
unsigned long Sum(const unsigned long* xs, unsigned long n) {
  unsigned long total = 0;
  for (unsigned long i = 0; i < n; ++i) {
    total += xs[i];
  }
  return total;
}
""")
        self.assertEqual(self.checks("src/core/reduce.cc"), [])

    def test_float_multiply_assign_is_clean(self):
        # *= products are the solver's bread and butter (survival
        # probabilities multiply); only += summation drifts in a way
        # Kahan compensation addresses.
        self.write("src/core/reduce.cc", """\
double Product(const double* xs, unsigned long n) {
  double product = 1.0;
  for (unsigned long i = 0; i < n; ++i) {
    product *= xs[i];
  }
  return product;
}
""")
        self.assertEqual(self.checks("src/core/reduce.cc"), [])

    def test_accumulation_outside_loop_is_clean(self):
        self.write("src/core/reduce.cc", """\
double Bump(double total, double x) {
  total += x;
  return total;
}
""")
        self.assertEqual(self.checks("src/core/reduce.cc"), [])

    def test_outside_core_is_clean(self):
        self.write("src/util/reduce.cc", """\
double Sum(const double* xs, unsigned long n) {
  double total = 0.0;
  for (unsigned long i = 0; i < n; ++i) {
    total += xs[i];
  }
  return total;
}
""")
        self.assertEqual(self.checks("src/util/reduce.cc"), [])

    def test_suppression_comment(self):
        self.write("src/core/reduce.cc", """\
double Sum(const double* xs, unsigned long n) {
  double total = 0.0;
  for (unsigned long i = 0; i < n; ++i) {
    // Fixed-order sum is part of the numeric contract here.
    // skypref-analyze: allow(kahan-discipline)
    total += xs[i];
  }
  return total;
}
""")
        self.assertEqual(self.checks("src/core/reduce.cc"), [])


class PrngCaptureCheck(AnalyzeHarness):
    def test_default_ref_capture_of_outer_rng_fires(self):
        self.write("src/core/engine.cc", POOL_STUB + """\
void Run(ThreadPool& pool) {
  Rng rng;
  unsigned long total = 0;
  pool.ParallelFor(4, [&](unsigned long) { total += rng.next(); });
}
""")
        self.assertIn("prng-capture", self.checks("src/core/engine.cc"))

    def test_explicit_ref_capture_fires(self):
        self.write("src/core/engine.cc", POOL_STUB + """\
void Run(ThreadPool& pool) {
  Rng rng;
  pool.ParallelFor(4, [&rng](unsigned long) { rng.next(); });
}
""")
        self.assertIn("prng-capture", self.checks("src/core/engine.cc"))

    def test_value_capture_is_clean(self):
        self.write("src/core/engine.cc", POOL_STUB + """\
void Run(ThreadPool& pool) {
  Rng rng;
  pool.ParallelFor(4, [rng](unsigned long) mutable { rng.next(); });
}
""")
        self.assertEqual(self.checks("src/core/engine.cc"), [])

    def test_per_chunk_generator_is_clean(self):
        # The blessed pattern: construct the generator inside the lambda,
        # seeded from the chunk index.
        self.write("src/core/engine.cc", POOL_STUB + """\
void Run(ThreadPool& pool) {
  pool.ParallelFor(4, [](unsigned long c) {
    Rng rng;
    rng.next();
    (void)c;
  });
}
""")
        self.assertEqual(self.checks("src/core/engine.cc"), [])

    def test_non_prng_ref_capture_is_clean(self):
        self.write("src/core/engine.cc", POOL_STUB + """\
void Run(ThreadPool& pool) {
  unsigned long counts[4] = {0, 0, 0, 0};
  pool.ParallelFor(4, [&](unsigned long c) { ++counts[c]; });
}
""")
        self.assertEqual(self.checks("src/core/engine.cc"), [])

    def test_suppression_comment(self):
        self.write("src/core/engine.cc", POOL_STUB + """\
void Run(ThreadPool& pool) {
  Rng rng;
  // Single-threaded pool in this configuration.
  // skypref-analyze: allow(prng-capture)
  pool.ParallelFor(1, [&](unsigned long) { rng.next(); });
}
""")
        self.assertEqual(self.checks("src/core/engine.cc"), [])


class CliBehavior(AnalyzeHarness):
    def test_clean_tree_exits_zero(self):
        self.write("src/core/x.cc", "int F() { return 1; }\n")
        code, out, _ = self.run_cli("src/core")
        self.assertEqual(code, 0)
        self.assertIn("clean", out)

    def test_findings_exit_one_with_locations(self):
        self.write("src/core/monte_carlo.cc", CancelPollCheck.FIRING)
        code, out, err = self.run_cli("src/core")
        self.assertEqual(code, 1)
        self.assertIn("src/core/monte_carlo.cc:4: [cancel-poll]", out)
        self.assertIn("finding(s)", err)

    def test_missing_path_exits_two(self):
        code, _, err = self.run_cli("src/nope")
        self.assertEqual(code, 2)
        self.assertIn("no such path", err)


if __name__ == "__main__":
    unittest.main()
