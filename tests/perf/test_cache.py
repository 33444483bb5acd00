"""LRU cache, content-addressed extraction cache, and the transient
factor cache."""

import numpy as np
import pytest

from repro.perf.cache import (
    LRUCache,
    cache_stats,
    clear_cache,
    fingerprint_segments,
    load_matrix,
    store_matrix,
)


class TestLRUCache:
    def test_bounded_with_lru_eviction(self):
        cache = LRUCache(3)
        for k in "abcd":
            cache.put(k, k.upper())
        assert len(cache) == 3
        assert "a" not in cache  # oldest evicted
        assert cache.get("b") == "B"
        cache.put("e", "E")  # evicts "c" ("b" was just refreshed)
        assert "c" not in cache
        assert "b" in cache
        assert cache.evictions == 2

    def test_get_miss_returns_default(self):
        cache = LRUCache(2)
        assert cache.get("nope") is None
        assert cache.get("nope", 7) == 7

    def test_put_existing_key_updates_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.evictions == 0

    def test_stats_and_clear(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_never_exceeds_maxsize_under_churn(self):
        cache = LRUCache(16)
        for k in range(1000):
            cache.put(float(k), object())
            assert len(cache) <= 16


class TestFingerprint:
    def make_segments(self, **overrides):
        from repro.geometry.segment import Direction, Segment

        kwargs = dict(
            name="s0", net="clk", layer="M5", direction=Direction.X,
            origin=(0.0, 0.0, 1e-6), length=100e-6, width=2e-6,
            thickness=0.5e-6,
        )
        kwargs.update(overrides)
        return [Segment(**kwargs)]

    def test_same_geometry_same_digest(self):
        assert fingerprint_segments(self.make_segments()) == \
            fingerprint_segments(self.make_segments())

    def test_rename_does_not_change_digest(self):
        assert fingerprint_segments(self.make_segments()) == \
            fingerprint_segments(self.make_segments(name="renamed"))

    def test_geometry_edit_changes_digest(self):
        base = fingerprint_segments(self.make_segments())
        assert base != fingerprint_segments(self.make_segments(width=2.1e-6))
        assert base != fingerprint_segments(
            self.make_segments(origin=(1e-6, 0.0, 1e-6))
        )
        assert base != fingerprint_segments(self.make_segments(layer="M6"))

    def test_params_change_digest(self):
        segments = self.make_segments()
        assert fingerprint_segments(segments, {"close_ratio": 4.0}) != \
            fingerprint_segments(segments, {"close_ratio": 5.0})

    def test_param_order_is_irrelevant(self):
        segments = self.make_segments()
        assert fingerprint_segments(segments, {"a": 1.0, "b": 2.0}) == \
            fingerprint_segments(segments, {"b": 2.0, "a": 1.0})


@pytest.fixture()
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestMatrixStore:
    def test_memory_roundtrip_returns_equal_copy(self, fresh_cache):
        matrix = np.arange(9.0).reshape(3, 3)
        store_matrix("deadbeef", matrix)
        loaded = load_matrix("deadbeef")
        assert np.array_equal(loaded, matrix)
        loaded[0, 0] = 99.0  # mutating the copy must not corrupt the cache
        assert load_matrix("deadbeef")[0, 0] == 0.0

    def test_unknown_digest_misses(self, fresh_cache):
        assert load_matrix("0" * 64) is None

    def test_disk_tier_survives_memory_clear(self, fresh_cache,
                                             tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        matrix = np.eye(4) * 3.5
        store_matrix("cafe", matrix)
        assert (tmp_path / "partialL_cafe.npz").exists()
        clear_cache()  # drop the in-process tier
        loaded = load_matrix("cafe")
        assert np.array_equal(loaded, matrix)
        assert cache_stats()["disk_hits"] >= 1

    def test_corrupt_disk_file_is_a_miss(self, fresh_cache,
                                         tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "partialL_bad.npz").write_bytes(b"not an npz")
        assert load_matrix("bad") is None

    def test_env_kill_switch_disables_cache(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_EXTRACTION_CACHE", "off")
        store_matrix("feed", np.eye(2))
        assert load_matrix("feed") is None


class TestOperatorStore:
    @staticmethod
    def stripe_segments():
        from repro.geometry.segment import Direction, Segment

        segments = []
        for i in range(8):
            line = Segment(net=f"n{i}", layer="M6", direction=Direction.X,
                           origin=(0.0, i * 4e-6, 7e-6), length=160e-6,
                           width=1e-6, thickness=0.5e-6, name=f"s{i}")
            segments.extend(line.split(4))
        return segments

    def test_memory_roundtrip(self, fresh_cache):
        from repro.extraction.hierarchical import build_hierarchical_operator
        from repro.perf.cache import load_operator, store_operator

        operator = build_hierarchical_operator(
            self.stripe_segments(), leaf_size=4
        )
        store_operator("feedface", operator)
        assert load_operator("feedface") is operator

    def test_disk_tier_roundtrips_operator(self, fresh_cache, tmp_path,
                                           monkeypatch):
        from repro.extraction.hierarchical import build_hierarchical_operator
        from repro.perf.cache import (
            load_operator, operator_cache_stats, store_operator,
        )

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        operator = build_hierarchical_operator(
            self.stripe_segments(), leaf_size=4
        )
        store_operator("beefcafe", operator)
        assert (tmp_path / "partialL_hier_beefcafe.npz").exists()
        clear_cache()
        loaded = load_operator("beefcafe")
        assert loaded is not operator  # rebuilt from disk
        assert np.array_equal(loaded.to_dense(), operator.to_dense())
        rng = np.random.default_rng(2)
        x = rng.standard_normal(operator.n) + 1j * rng.standard_normal(
            operator.n
        )
        assert np.array_equal(loaded.matvec(x), operator.matvec(x))
        assert loaded.params == operator.params
        assert loaded.aca_fallbacks == operator.aca_fallbacks
        assert operator_cache_stats()["disk_hits"] >= 1

    def test_corrupt_operator_file_is_a_miss(self, fresh_cache, tmp_path,
                                             monkeypatch):
        from repro.perf.cache import load_operator

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "partialL_hier_bad.npz").write_bytes(b"not an npz")
        assert load_operator("bad") is None

    def test_kill_switch_disables_operator_cache(self, fresh_cache,
                                                 monkeypatch):
        from repro.extraction.hierarchical import build_hierarchical_operator
        from repro.perf.cache import load_operator, store_operator

        operator = build_hierarchical_operator(
            self.stripe_segments(), leaf_size=4
        )
        monkeypatch.setenv("REPRO_EXTRACTION_CACHE", "off")
        store_operator("feed", operator)
        assert load_operator("feed") is None

    def test_digest_distinguishes_eta_and_tol(self):
        segments = self.stripe_segments()

        def digest(eta, tol):
            return fingerprint_segments(segments, {
                "assembly": "hierarchical", "eta": eta, "tol": tol,
                "leaf_size": 32, "close_ratio": 4.0,
                "close_subdivisions": 3,
            })

        digests = {
            digest(2.0, 1e-6), digest(1.5, 1e-6),
            digest(2.0, 1e-4), digest(1.5, 1e-4),
        }
        assert len(digests) == 4

    def test_hierarchical_extraction_memoizes(self, fresh_cache):
        from repro.extraction.partial_matrix import (
            extract_partial_inductance,
        )
        from repro.perf.cache import operator_cache_stats

        segments = self.stripe_segments()
        first = extract_partial_inductance(
            segments, assembly="hierarchical", leaf_size=4
        )
        before = operator_cache_stats()["hits"]
        second = extract_partial_inductance(
            segments, assembly="hierarchical", leaf_size=4
        )
        assert operator_cache_stats()["hits"] == before + 1
        assert np.array_equal(first.matrix, second.matrix)

    def test_tol_change_recomputes(self, fresh_cache):
        from repro.extraction.partial_matrix import (
            extract_partial_inductance,
        )
        from repro.perf.cache import operator_cache_stats

        segments = self.stripe_segments()
        extract_partial_inductance(
            segments, assembly="hierarchical", leaf_size=4, tol=1e-6
        )
        before = operator_cache_stats()["misses"]
        extract_partial_inductance(
            segments, assembly="hierarchical", leaf_size=4, tol=1e-5
        )
        assert operator_cache_stats()["misses"] > before


class TestExtractionMemoization:
    def test_repeat_extraction_hits_and_matches(self, fresh_cache,
                                                signal_grid_structure):
        from repro.extraction.partial_matrix import extract_for_layout

        layout, _ = signal_grid_structure
        first, _ = extract_for_layout(layout)
        before = cache_stats()
        second, _ = extract_for_layout(layout)
        after = cache_stats()
        assert np.array_equal(first.matrix, second.matrix)
        assert after["hits"] == before["hits"] + 1

    def test_cached_result_is_safe_to_mutate(self, fresh_cache,
                                             signal_grid_structure):
        from repro.extraction.partial_matrix import extract_for_layout

        layout, _ = signal_grid_structure
        first, _ = extract_for_layout(layout)
        pristine = first.matrix.copy()
        second, _ = extract_for_layout(layout)
        second.matrix[:] = 0.0  # the PEEC builder zeroes mutuals in place
        third, _ = extract_for_layout(layout)
        assert np.array_equal(third.matrix, pristine)

    def test_parameter_change_recomputes(self, fresh_cache,
                                         signal_grid_structure):
        from repro.extraction.partial_matrix import extract_for_layout

        layout, _ = signal_grid_structure
        extract_for_layout(layout)
        before = cache_stats()["misses"]
        extract_for_layout(layout, close_ratio=6.0)
        assert cache_stats()["misses"] > before


class TestFactorCacheIntegration:
    @staticmethod
    def rlc():
        from repro.circuit.netlist import GROUND, Circuit
        from repro.circuit.waveforms import Ramp

        c = Circuit("rlc")
        c.add_vsource("vin", "a", GROUND, Ramp(0.0, 1.0, 0.1e-9, 50e-12))
        c.add_resistor("r", "a", "b", 5.0)
        c.add_inductor("l", "b", "c", 1e-9)
        c.add_capacitor("c1", "c", GROUND, 0.5e-12)
        return c

    def test_fixed_step_result_matches_reference_after_lru_swap(self):
        # Force the transient engine through failed-solve step halving so
        # the factor cache sees the halved-substep alphas; the waveform
        # must still track an undisturbed run (halved steps integrate
        # with backward Euler, so exact equality is not expected).
        import numpy as np

        from repro.circuit.transient import transient_analysis
        from repro.resilience.faults import FaultSpec, inject_faults

        rlc = self.rlc
        with inject_faults():
            clean = transient_analysis(rlc(), 2e-9, 1e-12, record=["c"])
        # The first hit fails the backward-Euler factor's LU rung on the
        # run's one block, so the block re-runs step by step; the second
        # fails its equilibrated rung there, and both backward-Euler
        # steps are halved onto the next alpha.
        with inject_faults(FaultSpec("transient.*", "nan", max_hits=2)):
            faulted = transient_analysis(rlc(), 2e-9, 1e-12, record=["c"])
        assert not faulted.report.clean  # the faults really fired
        assert faulted.report.by_kind("step-halving")
        err = np.max(np.abs(faulted.voltage("c") - clean.voltage("c")))
        assert err < 0.05

    def test_exhausted_chain_is_evicted(self):
        # A NaN on the last rung of the trapezoidal factor exhausts its
        # chain.  Kept in the cache, the dead chain failed every later step
        # (3796 halvings, 0.028 V off); rebuilt, one step is halved.
        import numpy as np

        from repro.circuit.transient import transient_analysis
        from repro.resilience.faults import FaultSpec, inject_faults

        with inject_faults():
            clean = transient_analysis(self.rlc(), 2e-9, 1e-12, record=["c"])
        with inject_faults(
            FaultSpec("transient.lu", "nan", after=1),
            FaultSpec("transient.equilibrated", "nan", after=100),
        ):
            faulted = transient_analysis(
                self.rlc(), 2e-9, 1e-12, record=["c"]
            )
        halvings = faulted.report.by_kind("step-halving")
        assert 1 <= len(halvings) <= 2
        err = np.max(np.abs(faulted.voltage("c") - clean.voltage("c")))
        assert err <= 1e-3

    def test_halved_substeps_reuse_the_trapezoidal_factor(self):
        # Six NaNs fail the backward-Euler chain on the first step, then
        # the chains its first two halvings solve with.  A step halved
        # once integrates at 2/dt, the trapezoidal alpha bit for bit, so
        # it opens no factor of its own; the second and third halvings
        # open 4/dt and 8/dt, and the third succeeds.  The exhausted
        # backward-Euler and trapezoidal chains are rebuilt when next
        # asked for.
        from repro.circuit.transient import transient_analysis
        from repro.obs.trace import tracing
        from repro.resilience.faults import FaultSpec, inject_faults

        dt = 1e-12
        with inject_faults(FaultSpec("transient.*", "nan", max_hits=6)), \
                tracing() as trace:
            faulted = transient_analysis(self.rlc(), 2e-9, dt, record=["c"])
        assert len(faulted.report.by_kind("step-halving")) == 3
        factors = [s for s in trace.find("circuit.transient").children
                   if s.name == "circuit.transient.factor"]
        assert [s.attrs["alpha"] * dt for s in factors] == pytest.approx(
            [1, 2, 4, 8, 1, 2], rel=1e-12)
        assert [s.attrs["serves"] for s in factors] == [
            "be", "trap", "halved", "halved", "be", "trap"]
        assert all(s.attrs["rung"] == "lu" for s in factors)

    def test_rebuilt_trapezoidal_factor_is_labelled_by_its_alpha(self):
        # A NaN on the LU rung sends the run step by step on the
        # equilibrated rung; a NaN there later exhausts the trapezoidal
        # chain, so that step is halved once and asks for 2/dt before any
        # trapezoidal step does.  The factor rebuilt at 2/dt serves every
        # later trapezoidal step, and its span says so.
        from repro.circuit.transient import transient_analysis
        from repro.obs.trace import tracing
        from repro.resilience.faults import FaultSpec, inject_faults

        dt = 1e-12
        with inject_faults(
            FaultSpec("transient.lu", "nan", after=1),
            FaultSpec("transient.equilibrated", "nan", after=100),
        ), tracing() as trace:
            faulted = transient_analysis(self.rlc(), 2e-9, dt, record=["c"])
        assert faulted.report.by_kind("step-halving")
        factors = [s for s in trace.find("circuit.transient").children
                   if s.name == "circuit.transient.factor"]
        assert [s.attrs["alpha"] * dt for s in factors] == pytest.approx(
            [1, 2, 2], rel=1e-12)
        assert [s.attrs["serves"] for s in factors] == ["be", "trap", "trap"]
