"""Unit tests for the ExecutionPlan layer: planner, subset runtime, LRU cache."""

import pytest

from repro.automata import transforms
from repro.automata.analysis import statistics
from repro.automata.transforms import va_to_eva
from repro.core.documents import DocumentCollection
from repro.regex.compiler import compile_to_va
from repro.regex.parser import parse_regex
from repro.runtime.plan import (
    ENGINE_CHOICES,
    KERNEL_CHOICES,
    ExecutionPlan,
    choose_plan,
)
from repro.runtime.subset import CompiledSubsetEVA, count_subset, evaluate_subset_arena
from repro.spanners.spanner import Spanner
from repro.workloads.spanners import figure3_eva


def sequential_eva(pattern: str, alphabet: str = "ab"):
    return va_to_eva(compile_to_va(parse_regex(pattern), alphabet))


def stats_of(automaton):
    from dataclasses import replace

    return replace(statistics(automaton), deterministic=automaton.is_deterministic())


class TestChoosePlan:
    def test_deterministic_input_compiles_upfront(self):
        plan = choose_plan(stats_of(figure3_eva()))
        assert plan.engine == "compiled"
        assert plan.determinize_upfront

    def test_small_nondeterministic_input_determinizes_upfront(self):
        plan = choose_plan(stats_of(sequential_eva("x{a*}a*")))
        assert plan.engine == "compiled"

    def test_large_nondeterministic_input_goes_on_the_fly(self):
        automaton = sequential_eva("(aa|a)*x{b}")
        plan = choose_plan(stats_of(automaton), otf_state_threshold=1)
        assert plan.engine == "compiled-otf"
        assert not plan.determinize_upfront

    def test_forced_engines_skip_statistics(self):
        for engine in ("compiled", "compiled-otf", "reference"):
            plan = choose_plan(engine=engine)
            assert plan.engine == engine
            assert plan.reason == "forced by caller"

    def test_auto_requires_statistics(self):
        with pytest.raises(ValueError):
            choose_plan(engine="auto")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            choose_plan(engine="warp")

    def test_plan_must_be_concrete(self):
        with pytest.raises(ValueError):
            ExecutionPlan("auto", True, "nope")


class TestKernelAxis:
    def test_plans_default_to_auto_kernel(self):
        assert choose_plan(engine="compiled").kernel == "auto"

    def test_kernel_is_carried_through_choose_plan(self):
        for kernel in KERNEL_CHOICES:
            plan = choose_plan(engine="compiled", kernel=kernel)
            assert plan.kernel == kernel
        plan = choose_plan(stats_of(figure3_eva()), kernel="runlength")
        assert plan.kernel == "runlength"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            choose_plan(engine="compiled", kernel="warp")
        with pytest.raises(ValueError):
            ExecutionPlan("compiled", True, "forced", kernel="warp")

    def test_runlength_kernel_needs_a_class_table_engine(self):
        with pytest.raises(ValueError):
            choose_plan(engine="reference", kernel="runlength")
        with pytest.raises(ValueError):
            ExecutionPlan("reference", False, "forced", kernel="runlength")
        assert (
            choose_plan(engine="compiled-otf", kernel="runlength").kernel
            == "runlength"
        )

    def test_streaming_plans_pin_the_scalar_kernel(self):
        plan = choose_plan(
            stats_of(figure3_eva()), streaming=True, kernel="auto"
        )
        assert plan.kernel == "scalar"
        with pytest.raises(ValueError):
            choose_plan(
                stats_of(figure3_eva()), streaming=True, kernel="runlength"
            )

    def test_facade_kernel_choices_agree(self):
        spanner = Spanner.from_regex("x{a+}b")
        expected = spanner.count("aab", kernel="scalar")
        for kernel in KERNEL_CHOICES:
            assert spanner.count("aab", kernel=kernel) == expected
            assert (
                len(list(spanner.enumerate("aab", kernel=kernel))) == expected
            )
            assert spanner.plan("aab", kernel=kernel).kernel == kernel

    def test_facade_constructor_kernel_is_the_default(self):
        spanner = Spanner.from_regex("x{a+}b", kernel="runlength")
        assert spanner.kernel == "runlength"
        assert spanner.plan("aab", engine="compiled").kernel == "runlength"
        assert spanner.count("aab") == spanner.count("aab", kernel="scalar")

    def test_facade_rejects_unknown_kernel(self):
        spanner = Spanner.from_regex("x{a}")
        with pytest.raises(ValueError):
            Spanner("x{a}", kernel="warp")
        with pytest.raises(ValueError):
            spanner.count("a", kernel="warp")


class TestSubsetRuntime:
    def test_nondeterministic_eva_without_upfront_determinize(self, monkeypatch):
        automaton = sequential_eva("(aa|a)*x{b}")
        assert not automaton.is_deterministic()

        def forbidden(*args, **kwargs):
            raise AssertionError("compiled-otf must not determinize up front")

        monkeypatch.setattr(transforms, "determinize", forbidden)
        subset = CompiledSubsetEVA(automaton)
        result = evaluate_subset_arena(subset, "aab")
        assert {str(m) for m in result} == {
            str(m) for m in automaton.evaluate("aab")
        }
        assert count_subset(subset, "aab") == result.count()

    def test_rows_cached_across_documents(self):
        subset = CompiledSubsetEVA(sequential_eva("(aa|a)*x{b}"))
        count_subset(subset, "ababab")
        discovered = subset.num_subset_states
        count_subset(subset, "bababa")
        # Same alphabet and shape: the second document reuses every row.
        assert subset.num_subset_states == discovered

    def test_only_reachable_subsets_are_interned(self):
        automaton = sequential_eva("x{a+}y{b+}")
        subset = CompiledSubsetEVA(automaton)
        evaluate_subset_arena(subset, "ab")
        assert subset.num_subset_states <= 2 ** automaton.num_states

    def test_portable_keys_survive_different_interning_orders(self):
        automaton = sequential_eva("x{a*}a*")
        first = CompiledSubsetEVA(automaton)
        arena = evaluate_subset_arena(first, "aaa")
        second = CompiledSubsetEVA(automaton)
        count_subset(second, "a")  # warm with a different discovery order
        rebuilt = arena.from_portable(arena.to_portable(), second)
        assert {str(m) for m in rebuilt} == {str(m) for m in arena}
        assert rebuilt.count() == arena.count()


class TestSpannerPlanIntegration:
    def test_facade_engine_choices(self):
        spanner = Spanner.from_regex("x{a+}b")
        expected = set(spanner.evaluate("aab", engine="reference"))
        for engine in ENGINE_CHOICES:
            assert set(spanner.evaluate("aab", engine=engine)) == expected
            assert spanner.count("aab", engine=engine) == len(expected)

    def test_unknown_engine_rejected_everywhere(self):
        spanner = Spanner.from_regex("x{a}")
        with pytest.raises(ValueError):
            Spanner("x{a}", engine="warp")
        with pytest.raises(ValueError):
            spanner.evaluate("a", engine="warp")
        with pytest.raises(ValueError):
            spanner.count("a", engine="warp")

    def test_plan_exposed(self):
        spanner = Spanner.from_regex("x{a}b")
        plan = spanner.plan("ab")
        assert plan.engine in ("compiled", "compiled-otf")
        forced = spanner.plan("ab", engine="reference")
        assert forced.engine == "reference"

    def test_otf_engine_through_facade_never_determinizes(self, monkeypatch):
        import repro.spanners.pipeline as pipeline_module

        spanner = Spanner.from_regex("(aa|a)*x{b}", engine="compiled-otf")
        for module in (transforms, pipeline_module):
            monkeypatch.setattr(
                module,
                "determinize",
                lambda *a, **k: pytest.fail("compiled-otf must not determinize"),
            )
        expected = {str(m) for m in sequential_eva("(aa|a)*x{b}").evaluate("aab")}
        assert {str(m) for m in spanner.enumerate("aab")} == expected
        assert spanner.count("aab") == len(expected)

    def test_run_batch_with_otf_engine(self):
        spanner = Spanner.from_regex("(aa|a)*x{b}")
        collection = DocumentCollection.from_texts(["aab", "b", "aaab"])
        otf = {
            doc_id: result.count()
            for doc_id, result in spanner.run_batch(collection, engine="compiled-otf")
        }
        compiled = {
            doc_id: result.count()
            for doc_id, result in spanner.run_batch(collection, engine="compiled")
        }
        assert otf == compiled

    def test_run_batch_with_otf_engine_across_processes(self):
        # Subset ids are interned per process; the portable member-tuple
        # keys must still land results on the parent's runtime.
        spanner = Spanner.from_regex("(aa|a)*x{b}")
        collection = DocumentCollection.from_texts(["aab", "b", "aaab"])
        serial = {
            doc_id: (result.count(), {str(m) for m in result})
            for doc_id, result in spanner.run_batch(collection, engine="compiled-otf")
        }
        parallel = {
            doc_id: (result.count(), {str(m) for m in result})
            for doc_id, result in spanner.run_batch(
                collection, engine="compiled-otf", mode="processes", max_workers=2
            )
        }
        assert parallel == serial

    def test_run_batch_engine_runtime_mismatch_rejected(self):
        from repro.runtime.batch import run_batch

        spanner = Spanner.from_regex("(aa|a)*x{b}")
        otf = spanner.otf_runtime("ab")
        with pytest.raises(ValueError, match="CompiledEVA"):
            next(run_batch(otf, ["ab"], engine="compiled"))
        runtime = spanner.runtime("ab")
        with pytest.raises(ValueError, match="CompiledSubsetEVA"):
            next(run_batch(runtime, ["ab"], engine="compiled-otf"))


class TestBoundedCache:
    """The spanner keeps one compiled state, whatever the documents."""

    def test_cache_is_bounded_and_recycles_lru(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        spanner.count("ab")
        spanner.count("ac")
        spanner.count("ad")
        stats = spanner.cache_stats()
        assert (stats.entries, stats.max_entries, stats.misses) == (1, 1, 1)

    def test_recently_used_entry_survives(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        kept = spanner.runtime("ab")
        spanner.count("ac")
        spanner.count("ab")
        spanner.count("ad")
        assert spanner.runtime("ab") is kept

    def test_cache_reused_for_same_alphabet(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        assert spanner.runtime("aba") is spanner.runtime("aab")
