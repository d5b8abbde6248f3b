"""The experiment registry: one record per experiment drives the CLI,
``repro bench`` and ``repro report``."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments as package
from repro.__main__ import main
from repro.bench import default_baseline_dir
from repro.experiments import Experiment, registry

BENCH_RECORDS = [r.name for r in registry().values() if r.bench is not None]


def _spy(monkeypatch, name, **overrides):
    """Swap ``name``'s record for one whose runner records its arguments."""
    calls = []

    def run(quick, seed, jobs):
        calls.append((quick, seed, jobs))
        return []

    fields = {"run": run, "format": repr, **overrides}
    monkeypatch.setitem(
        registry(), name, dataclasses.replace(registry()[name], **fields)
    )
    return calls


class TestRecords:
    def test_every_module_registers_records_with_unique_names(self):
        names = []
        for module_name in package.__all__:
            if module_name == "common":
                continue
            module = importlib.import_module(f"repro.experiments.{module_name}")
            records = module.EXPERIMENTS
            assert len(records) >= 1, module_name
            assert all(isinstance(r, Experiment) for r in records)
            names += [r.name for r in records]
        assert len(names) == len(set(names))
        assert list(registry()) == names

    def test_bench_names_match_committed_baselines(self):
        committed = {
            path.stem[len("BENCH_"):]
            for path in default_baseline_dir().glob("BENCH_*.json")
        }
        assert {r.bench for r in registry().values() if r.bench} == committed

    def test_importing_one_module_imports_no_other(self):
        """perfbench imports cluster_scale; the registry must stay lazy."""
        src = str(Path(package.__file__).resolve().parents[2])
        code = (
            "import sys; import repro.experiments.cluster_scale; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.experiments.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "['repro.experiments.cluster_scale']"


class TestRunCli:
    @pytest.mark.parametrize("name", BENCH_RECORDS)
    def test_fast_run_prints_committed_quick_digest(self, name, capsys):
        record = registry()[name]
        baseline = json.loads(
            (default_baseline_dir() / f"BENCH_{record.bench}.json").read_text()
        )
        assert main(["run", name, "--fast"]) == 0
        out = capsys.readouterr().out
        assert f"sim_results_digest: {baseline['quick']['sim_results_digest']}" in out

    def test_default_seed_and_explicit_default_run_the_same_grid(
        self, monkeypatch, capsys
    ):
        from repro.experiments import fig10_porter

        calls = []

        def run(config, jobs=1):
            calls.append((config, jobs))
            return []

        monkeypatch.setattr(fig10_porter, "run", run)
        assert main(["run", "fig10"]) == 0
        assert main(["run", "fig10", "--seed", "42"]) == 0
        assert len(calls) == 2
        assert calls[0] == calls[1]

    def test_fast_passes_quick(self, monkeypatch, capsys):
        calls = _spy(monkeypatch, "fig7")
        assert main(["run", "fig7", "--fast"]) == 0
        assert main(["run", "fig7"]) == 0
        assert calls == [(True, None, 1), (False, None, 1)]

    def test_seed_defaults_to_the_record_seed(self, monkeypatch, capsys):
        calls = _spy(monkeypatch, "failure-sweep")
        assert main(["run", "failure-sweep"]) == 0
        assert main(["run", "failure-sweep", "--seed", "3", "--jobs", "2"]) == 0
        assert calls == [(False, 0, 1), (False, 3, 2)]

    def test_failed_check_exits_nonzero(self, monkeypatch, capsys):
        _spy(monkeypatch, "table1", check=lambda result: ["2 leaked frames"])
        assert main(["run", "table1"]) == 1
        assert "FAIL: 2 leaked frames" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fig7", "table1"])
    def test_negative_jobs_rejected(self, name, capsys):
        assert main(["run", name, "--jobs", "-1"]) == 2
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_jobs_rejected_for_unsharded_record(self, capsys):
        assert main(["run", "table1", "--jobs", "2"]) == 2
        assert "does not shard over --jobs" in capsys.readouterr().err

    def test_seed_rejected_for_unseeded_record(self, capsys):
        assert main(["run", "table1", "--seed", "1"]) == 2
        assert "does not take a seed" in capsys.readouterr().err
