"""Tests for the unified content-hash cache (:mod:`repro.compilecache`)."""

import threading

import pytest

from repro.compilecache import (
    ContentCache,
    cache_stats,
    clear_all_regions,
    region,
    region_names,
)
from repro.errors import DomainError


class TestContentCacheCore:
    def test_get_put_and_counters(self):
        cache = ContentCache(maxsize=8)
        assert cache.get("k") is None
        cache.put("k", {"a": 1})
        assert cache.get("k") == {"a": 1}
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1
        assert "k" in cache and "other" not in cache

    def test_lru_eviction(self):
        cache = ContentCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_maxsize_must_be_positive(self):
        with pytest.raises(DomainError):
            ContentCache(maxsize=0)

    def test_get_or_create_runs_factory_once(self):
        cache = ContentCache()
        calls = []

        def factory():
            calls.append(1)
            return "built"

        assert cache.get_or_create("k", factory) == "built"
        assert cache.get_or_create("k", factory) == "built"
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_clear_resets_everything(self):
        cache = ContentCache()
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_thread_safety_smoke(self):
        cache = ContentCache(maxsize=64)
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    cache.put(f"{tag}-{i % 50}", i)
                    cache.get(f"{tag}-{(i * 7) % 50}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64


class TestRegions:
    def test_same_name_shares_one_instance(self):
        a = region("test.shared_instance")
        b = region("test.shared_instance")
        assert a is b
        a.put("k", 1)
        assert b.get("k") == 1
        a.clear()

    def test_region_requires_name(self):
        with pytest.raises(DomainError):
            region("")

    def test_stats_cover_created_regions(self):
        cache = region("test.stats_region")
        cache.put("k", 1)
        cache.get("k")
        stats = cache_stats()
        assert "test.stats_region" in stats
        assert stats["test.stats_region"]["entries"] == 1
        assert stats["test.stats_region"]["hits"] == 1
        assert "test.stats_region" in region_names()
        cache.clear()

    def test_compiled_layers_share_the_unified_cache(self):
        # The three legacy memoisers are gone: network and case
        # compilation live in named regions of repro.compilecache.
        import pathlib

        from repro.arguments import compile_case, load_case
        from repro.arguments.compiled import clear_case_caches
        from repro.bbn import (
            CPT,
            BayesianNetwork,
            Variable,
            clear_compile_cache,
            compile_network,
        )

        clear_compile_cache()
        clear_case_caches()
        network = BayesianNetwork()
        flip = Variable("flip", ("true", "false"))
        network.add(CPT(flip, [], {(): [0.5, 0.5]}))
        compile_network(network)
        assert cache_stats()["bbn.network"]["entries"] >= 1

        case_file = str(
            pathlib.Path(__file__).resolve().parents[1]
            / "examples" / "case_confidence.yaml"
        )
        compile_case(load_case(case_file))
        assert cache_stats()["arguments.case"]["entries"] >= 1
        assert cache_stats()["arguments.case_file"]["entries"] >= 1
        clear_compile_cache()
        clear_case_caches()

    def test_clear_all_regions(self):
        cache = region("test.clear_all")
        cache.put("k", 1)
        clear_all_regions()
        assert len(cache) == 0

    def test_two_leg_template_is_one_lookup(self):
        # The batch-kernel hot path must not rebuild or re-hash the
        # template network per call: repeated calls return the same
        # compiled object from the fixed-key cache entry.
        from repro.arguments.multileg import _two_leg_template

        first = _two_leg_template()
        assert _two_leg_template() is first
        assert "template:two_leg" in region("bbn.network")
