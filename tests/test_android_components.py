"""Tests for the Android simulator components."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.android.app import AppSpec, apps_by_category, build_app_catalog
from repro.android.memory import FlashModel, MemoryModel
from repro.android.policies import FifoKillPolicy, LruKillPolicy
from repro.android.process import ProcessRecord, ProcessState
from repro.android.tracer import Tracer
from repro.datasets.phone_usage import APP_CATEGORIES


class TestCatalog:
    def test_44_apps_cover_all_categories(self, catalog_44):
        assert len(catalog_44) == 44
        categories = {app.category for app in catalog_44}
        assert categories == set(APP_CATEGORIES)

    def test_unique_names(self, catalog_44):
        names = [app.name for app in catalog_44]
        assert len(set(names)) == 44

    def test_system_apps_flagged(self, catalog_44):
        system = [app for app in catalog_44 if app.is_system]
        assert system
        assert all(app.category in ("Settings", "System_App") for app in system)

    def test_footprints_positive(self, catalog_44):
        for app in catalog_44:
            assert app.ram_mb > 0
            assert app.flash_load_mb > 0
            assert app.flash_load_bytes == int(app.flash_load_mb * 1024 * 1024)

    def test_too_few_apps_rejected(self):
        with pytest.raises(ValueError):
            build_app_catalog(5)

    def test_grouping(self, catalog_44):
        grouped = apps_by_category(catalog_44)
        assert sum(len(v) for v in grouped.values()) == 44


class TestMemoryModel:
    def _app(self, ram=100.0):
        return AppSpec("test", "Messaging", ram, 50.0)

    def test_allocate_release(self):
        mem = MemoryModel(capacity_mb=2048, system_reserved_mb=1024)
        app = self._app(512.0)
        mem.allocate(app)
        assert mem.available_mb == pytest.approx(512.0)
        mem.release(app)
        assert mem.used_mb == 0.0

    def test_cannot_overcommit(self):
        mem = MemoryModel(capacity_mb=1200, system_reserved_mb=1024)
        with pytest.raises(MemoryError):
            mem.allocate(self._app(200.0))

    def test_release_more_than_allocated(self):
        mem = MemoryModel()
        with pytest.raises(ValueError):
            mem.release(self._app(10.0))

    def test_reserved_validation(self):
        with pytest.raises(ValueError):
            MemoryModel(capacity_mb=512, system_reserved_mb=512)

    @given(st.lists(st.floats(1.0, 500.0), min_size=1, max_size=30))
    @example([19.87, 133.72, 107.71, 421.37, 292.64, 74.79, 352.69, 484.39,
              227.36, 114.8])  # a running float total left 1.09e-12 MB
    @settings(max_examples=40, deadline=None)
    def test_property_accounting_invariants(self, sizes):
        mem = MemoryModel(capacity_mb=4096, system_reserved_mb=1024)
        allocated = []
        for i, size in enumerate(sizes):
            app = AppSpec(f"a{i}", "Messaging", size, 10.0)
            if mem.can_fit(app):
                mem.allocate(app)
                allocated.append(app)
            assert 0.0 <= mem.used_mb <= mem.capacity_mb - mem.system_reserved_mb + 1e-9
        for app in allocated:
            mem.release(app)
        assert mem.used_mb == pytest.approx(0.0)


class TestFlashModel:
    def test_load_accounting(self):
        flash = FlashModel(read_mb_per_s=100.0, init_overhead_s=0.5)
        app = AppSpec("x", "Video", 200.0, 100.0)
        load_bytes, load_time = flash.load(app)
        assert load_bytes == 100 * 1024 * 1024
        assert load_time == pytest.approx(1.0 + 0.5)
        assert flash.loads == 1
        assert flash.total_loaded_bytes == load_bytes


class TestProcessRecord:
    def _proc(self):
        return ProcessRecord(app=AppSpec("x", "Video", 100.0, 50.0))

    def test_lifecycle(self):
        proc = self._proc()
        proc.start(1.0)
        assert proc.state == ProcessState.FOREGROUND
        proc.to_background(2.0)
        assert proc.state == ProcessState.BACKGROUND
        proc.kill(5.0)
        assert proc.state == ProcessState.DEAD
        assert proc.spans == [(1.0, 5.0)]
        assert proc.kills == 1

    def test_double_start_rejected(self):
        proc = self._proc()
        proc.start(0.0)
        with pytest.raises(RuntimeError):
            proc.start(1.0)

    def test_kill_dead_rejected(self):
        with pytest.raises(RuntimeError):
            self._proc().kill(1.0)

    def test_close_ends_open_span(self):
        proc = self._proc()
        proc.start(1.0)
        proc.close(9.0)
        assert proc.spans == [(1.0, 9.0)]
        assert proc.kills == 0

    def test_restart_after_kill(self):
        proc = self._proc()
        proc.start(0.0)
        proc.to_background(1.0)
        proc.kill(2.0)
        proc.start(3.0)
        proc.close(4.0)
        assert proc.spans == [(0.0, 2.0), (3.0, 4.0)]
        assert proc.cold_starts == 2


class TestPolicies:
    def _procs(self):
        a = ProcessRecord(app=AppSpec("a", "Video", 1, 1))
        b = ProcessRecord(app=AppSpec("b", "Video", 1, 1))
        a.start(0.0)
        b.start(5.0)
        a.to_background(6.0)
        b.to_background(6.0)
        a.last_used = 10.0
        b.last_used = 5.0
        return a, b

    def test_fifo_kills_oldest_start(self):
        a, b = self._procs()
        assert FifoKillPolicy().choose_victim([a, b]) is a

    def test_lru_kills_least_recently_used(self):
        a, b = self._procs()
        assert LruKillPolicy().choose_victim([a, b]) is b

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FifoKillPolicy().choose_victim([])
        with pytest.raises(ValueError):
            LruKillPolicy().choose_victim([])


class TestTracer:
    def test_event_aggregation(self):
        tracer = Tracer()
        tracer.record(0.0, "cold_start", "a", detail=100.0)
        tracer.record(1.0, "kill", "a")
        tracer.record(2.0, "cold_start", "b", detail=50.0)
        assert tracer.count("cold_start") == 2
        assert tracer.cold_start_bytes() == 150.0
        assert tracer.kills_of("a") == 1
        assert [e.kind for e in tracer.timeline("a")] == ["cold_start", "kill"]
