"""The stable ``repro.api`` facade.

Two contracts are pinned here: the README quickstart runs **verbatim**
through the facade, and the facade stays warning-free.  The deprecation
shims the stability policy kept for one minor release (``DEFAULT_ENGINE``
and the per-knob ``resolve_*``/``default_*`` resolvers) are gone since
1.2.0, the evaluation-protocol option is gone since 1.3.0, and the
monitor's per-tick listener channel since 1.4.0.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.options import ExecutionOptions
from repro.engine.plan import Plan
from repro.errors import ReproError
from repro.service import QueryState
from repro.stats import StatisticsManager
from repro.storage import Catalog, Table, schema_of

README = Path(__file__).resolve().parents[2] / "README.md"


def small_catalog(rows=2000):
    catalog = Catalog("api-test")
    catalog.add_table(Table(
        "t",
        schema_of("t", "x:int", "g:int"),
        [(i, i % 7) for i in range(rows)],
    ))
    StatisticsManager(catalog).analyze_all()
    return catalog


class TestReadmeQuickstart:
    def test_quickstart_runs_verbatim(self, capsys):
        text = README.read_text()
        section = text.split("## Quickstart", 1)[1]
        code = section.split("```python", 1)[1].split("```", 1)[0]
        # The quickstart is the facade's showcase: it must not touch any
        # deprecated spelling.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exec(compile(code, str(README), "exec"), {})
        out = capsys.readouterr().out
        assert "total getnext calls:" in out
        assert "state: done" in out


class TestSession:
    def test_connect_is_keyword_only(self):
        with pytest.raises(TypeError):
            repro.connect(Catalog())

    def test_sql_returns_plan_without_executing(self):
        with repro.connect(catalog=small_catalog()) as session:
            plan = session.sql("SELECT COUNT(*) FROM t")
            assert isinstance(plan, Plan)

    def test_execute_returns_rows_and_accounting(self):
        with repro.connect(catalog=small_catalog()) as session:
            result = session.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
            assert result.row_count == 7
            assert result.total_getnext > 0

    def test_run_accepts_plan_or_sql(self):
        with repro.connect(catalog=small_catalog()) as session:
            from_text = session.run(
                "SELECT COUNT(*) FROM t", target_samples=10
            )
            from_plan = session.run(
                session.sql("SELECT COUNT(*) FROM t"), target_samples=10
            )
            assert from_text.total == from_plan.total
            assert from_text.trace.samples == from_plan.trace.samples

    def test_run_rejects_other_query_types(self):
        with repro.connect(catalog=small_catalog()) as session:
            with pytest.raises(ReproError):
                session.run(42)

    def test_submit_round_trip_matches_run(self):
        with repro.connect(catalog=small_catalog(), target_samples=10) as session:
            solo = session.run("SELECT COUNT(*) FROM t")
            handle = session.submit("SELECT COUNT(*) FROM t")
            report = handle.result(timeout=60.0)
            assert handle.state is QueryState.DONE
            assert report.trace.samples == solo.trace.samples

    def test_close_shuts_service_down(self):
        session = repro.connect(catalog=small_catalog())
        handle = session.submit("SELECT COUNT(*) FROM t")
        assert handle.wait(60.0)
        session.close()
        with pytest.raises(ReproError):
            session.service

    def test_package_reexports(self):
        assert repro.connect is not None
        assert repro.Session is not None
        assert repro.QueryService is not None
        assert repro.QueryState is QueryState
        assert issubclass(repro.AdmissionError, repro.ReproError)
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestEngineResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        assert ExecutionOptions(engine="fused").resolve().engine == "fused"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        assert ExecutionOptions().resolve().engine == "interpreted"
        monkeypatch.delenv("REPRO_ENGINE")
        assert ExecutionOptions().resolve().engine == "fused"

    def test_rejects_unknown_engine(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ExecutionOptions(engine="bogus").resolve()

    def test_env_read_at_resolve_time(self, monkeypatch):
        options = ExecutionOptions()
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        assert options.resolve().engine == "interpreted"

    def test_session_engine_uses_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        session = repro.connect(catalog=small_catalog())
        assert session.engine == "interpreted"
        session.close()


class TestDeprecationShims:
    @pytest.mark.parametrize("module,name", [
        ("repro.engine", "DEFAULT_ENGINE"),
        ("repro.engine", "default_engine"),
        ("repro.engine", "resolve_engine"),
        ("repro.engine.executor", "DEFAULT_ENGINE"),
        ("repro.engine.executor", "default_engine"),
        ("repro.engine.executor", "resolve_engine"),
        ("repro.core", "default_protocol"),
        ("repro.core", "resolve_protocol"),
        ("repro.core.runner", "cached_total_work"),
        ("repro.core.runner", "default_protocol"),
        ("repro.core.runner", "resolve_protocol"),
        ("repro.service", "default_backend"),
        ("repro.service", "resolve_backend"),
        ("repro.service", "default_start_method"),
        ("repro.service", "resolve_start_method"),
        ("repro.service.procpool", "default_backend"),
        ("repro.service.procpool", "resolve_backend"),
        ("repro.service.procpool", "default_start_method"),
        ("repro.service.procpool", "resolve_start_method"),
    ])
    def test_shims_removed_in_1_2_0(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("module,fragment", [
        ("repro.options", "protocol"),
        ("repro.core", "protocol"),
        ("repro.core.runner", "protocol"),
        ("repro.core.runner", "total_work"),
    ])
    def test_protocol_surface_removed_in_1_3_0(self, module, fragment):
        # Matched by fragment so every spelling of the removed evaluation
        # protocol option (the choice tuple, the resolver, the oracle-total
        # cache and its lock) is covered at once.
        names = [
            name for name in dir(importlib.import_module(module))
            if fragment in name.lower()
        ]
        assert names == []

    @pytest.mark.parametrize("name", [
        "TickListener", "add_tick_listener", "remove_tick_listener",
    ])
    def test_tick_listener_channel_removed_in_1_4_0(self, name):
        from repro.engine import monitor

        assert not hasattr(monitor, name)
        assert not hasattr(monitor.ExecutionMonitor, name)

    def test_protocol_keyword_raises_type_error(self):
        from repro.core import DneEstimator, ProgressRunner
        from repro.service import QueryService

        with pytest.raises(TypeError):
            ExecutionOptions(protocol="single_pass")
        with pytest.raises(TypeError):
            repro.connect(catalog=small_catalog(), protocol="single_pass")
        with repro.connect(catalog=small_catalog()) as session:
            plan = session.sql("SELECT COUNT(*) FROM t")
        with pytest.raises(TypeError):
            ProgressRunner(plan, [DneEstimator()], protocol="single_pass")
        with pytest.raises(TypeError):
            QueryService(small_catalog(), protocol="single_pass")

    def test_cli_protocol_flag_is_an_argparse_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["sql", "--scale", "0.0003", "--protocol", "single_pass",
                  "SELECT COUNT(*) FROM nation"])
        assert exit_info.value.code == 2
        assert "--protocol" in capsys.readouterr().err

    def test_version_has_one_source(self):
        setup_py = README.parent / "setup.py"
        result = subprocess.run(
            [sys.executable, str(setup_py), "--version"],
            cwd=str(README.parent), capture_output=True, text=True,
            check=True,
        )
        assert result.stdout.strip().splitlines()[-1] == repro.__version__

    def test_facade_paths_are_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with repro.connect(catalog=small_catalog()) as session:
                session.execute("SELECT COUNT(*) FROM t")
                session.run("SELECT COUNT(*) FROM t", target_samples=5)
                session.submit("SELECT COUNT(*) FROM t").result(timeout=60.0)
