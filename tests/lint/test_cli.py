"""CLI behavior of ``python -m repro.lint``, plus the repo self-check."""

import json
import os
import subprocess
import sys

from repro.lint.cli import main

from .conftest import FIXTURE_DIR, REPO_ROOT


def run_module(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


class TestSelfCheck:
    def test_src_repro_lints_clean_strict(self):
        proc = run_module("src/repro", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout


class TestExitCodes:
    def test_findings_exit_one(self):
        proc = run_module(str(FIXTURE_DIR))
        assert proc.returncode == 1
        assert "PKL001" in proc.stdout

    def test_no_targets_exit_two(self):
        proc = run_module()
        assert proc.returncode == 2

    def test_unknown_rule_exit_two(self):
        proc = run_module("src/repro", "--select", "BOGUS999")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr


class TestOutputs:
    def test_rules_table(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("PKL001", "AIO001", "CAP001", "TEL001",
                        "RACE001", "DET001"):
            assert rule_id in out

    def test_json_report_to_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([str(FIXTURE_DIR), "--json", str(report)])
        capsys.readouterr()
        assert code == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["diagnostics"]

    def test_select_family_via_cli(self, capsys):
        code = main([str(FIXTURE_DIR), "--select", "DET", "--quiet"])
        out = capsys.readouterr().out
        assert code == 1
        assert "4 finding(s)" in out

    def test_baseline_roundtrip_via_cli(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(FIXTURE_DIR), "--write-baseline",
                     str(baseline)]) == 0
        capsys.readouterr()
        code = main([str(FIXTURE_DIR), "--baseline", str(baseline),
                     "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "baselined" in out

    def test_missing_baseline_exit_two(self, tmp_path, capsys):
        code = main([str(FIXTURE_DIR), "--baseline",
                     str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert code == 2
