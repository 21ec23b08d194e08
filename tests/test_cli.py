import functools
import importlib.util
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorpriv.cli import CompareSpec, PrivacySpec, load_config, main
from anchorpriv.evaluation import InstanceSpec

BASE_CONFIG = {
    "domain": {"lower": [0.0, 0.0], "upper": [2.0, 2.0], "grid": [2, 2]},
    "metric": {"p": 2.0},
    "privacy": {"eps": [0.4, 0.8], "budget_mode": "equal"},
    "instance": {
        "seed": 3,
        "outputs": [2, 2],
        "graph_size": 5,
        "samples_per_cell": 2,
        "n_tasks": 5,
    },
    "compare": {
        "methods": ["AIPO", "EM", "LB"],
        "audit_samples": 80,
        "coarse_grid": [2, 2],
    },
}


def write_config(tmp_path, override=None):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if override:
        for key, section in override.items():
            cfg.setdefault(key, {}).update(section)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynthesize:
    def test_writes_mechanisms_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["synthesize", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        assert (out / "mechanism_eps0.4.json").exists()
        assert (out / "mechanism_eps0.8.json").exists()
        manifest = json.loads((out / "manifest_synthesize.json").read_text())
        assert manifest["command"] == "synthesize"
        assert manifest["seed"] == 3
        assert len(manifest["config_sha256"]) == 64

    def test_sweep_mode_emits_curve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"privacy": {"budget_mode": "sweep", "sweep_resolution": 2, "eps": [0.6]}},
        )
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out)]) == 0
        curve = (out / "sweep_eps0.6.csv").read_text().strip().splitlines()
        assert curve[0] == "eps1,eps2,loss"
        assert len(curve) > 2

    def test_eps_override_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([
            "synthesize", "--config", str(cfg), "--out-dir", str(out), "--eps", "0.5",
        ]) == 0
        assert (out / "mechanism_eps0.5.json").exists()
        assert not (out / "mechanism_eps0.4.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)


class TestAudit:
    def test_report_and_histogram(self, tmp_path):
        cfg = write_config(tmp_path)
        mech_dir = tmp_path / "mech"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(mech_dir)]) == 0
        out = tmp_path / "audit"
        code = main([
            "audit", "--mechanism", str(mech_dir / "mechanism_eps0.4.json"),
            "--eps", "0.4", "--samples", "100", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["violation_ratio_percent"] == 0.0
        hist = (out / "ppr_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"

    def test_missing_mechanism_maps_to_io_exit(self, tmp_path):
        code = main([
            "audit", "--mechanism", str(tmp_path / "nope.json"),
            "--eps", "0.4", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 4


class TestCompare:
    def test_results_table(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "method,eps,utility_loss,violation_ratio,wall_time_ms"
        assert len(lines) == 1 + 3 * 2  # methods x eps
        rows = [ln.split(",") for ln in lines[1:]]
        by_method = {}
        for method, eps, loss, viol, ms in rows:
            by_method.setdefault(method, {})[eps] = (loss, viol, ms)
            assert ms == ""  # timing off by default keeps reruns identical
        for eps in ("0.4", "0.8"):
            lb = float(by_method["LB"][eps][0])
            assert lb <= float(by_method["AIPO"][eps][0]) + 1e-9
            assert lb <= float(by_method["EM"][eps][0]) + 1e-9
        assert by_method["LB"]["0.4"][1] == ""  # no audit for the bound

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_replicates_add_ci_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"compare": {"replicates": 2, "methods": ["EM"]}})
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == (
            "method,eps,utility_loss,utility_loss_ci95,"
            "violation_ratio,violation_ratio_ci95,wall_time_ms"
        )

    def test_unknown_method_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main([
            "compare", "--config", str(cfg), "--out-dir", str(tmp_path / "x"),
            "--method", "Quantum",
        ])
        assert code == 2

    def test_method_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert main([
            "compare", "--config", str(cfg), "--out-dir", str(out),
            "--method", "EM", "--eps", "0.4",
        ]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("EM,")


class TestLowerBound:
    def test_values_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "lb"
        assert main(["lower-bound", "--config", str(cfg), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "lower_bound.json").read_text())
        assert set(payload["values"]) == {"0.4", "0.8"}
        assert all(v >= 0 for v in payload["values"].values())

    def test_benchmark_tracer_counts_lp_statistics(self, tmp_path):
        # perfbench/tracer.py rebinds LinearProgram.matrices, lpcore.linprog
        # and the apo stages by name; a rename there must fail here.
        cfg = write_config(tmp_path)
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [
                sys.executable, str(root / "perfbench" / "launch.py"), "trace",
                str(tmp_path / "marks.json"), "lower-bound", "--config", str(cfg),
                "--eps", "0.8", "--threads", "1", "--out-dir", str(tmp_path),
            ],
            cwd=root, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        counters = json.loads((tmp_path / "marks.spans.json").read_text())["counters"]
        for key in ("lpcore.rows", "lpcore.nnz", "lpcore.highs.nit"):
            assert counters.get(key, 0) > 0, key


class TestErrors:
    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["synthesize", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2

    def test_invalid_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("privacy: [unclosed")
        assert main(["synthesize", "--config", str(path)]) == 2

    def test_bad_budget_mode_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"privacy": {"budget_mode": "magic"}})
        assert main(["synthesize", "--config", str(cfg)]) == 2

    def test_nonpositive_eps_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"privacy": {"eps": [0.0]}})
        assert main(["synthesize", "--config", str(cfg)]) == 2

    def test_bad_threads_env_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ANCHORPRIV_THREADS", "abc")
        cfg = write_config(tmp_path)
        code = main(["lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "lb")])
        assert code == 2
        assert "config error: ANCHORPRIV_THREADS" in capsys.readouterr().err

    def test_bad_eps_flag_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main([
            "lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "lb"),
            "--eps", "0.4,abc",
        ])
        assert code == 2
        assert "config error: --eps" in capsys.readouterr().err


class TestStrictConfig:
    """Every key is checked against the settings classes; no silent default."""

    def _run(self, tmp_path, capsys, override, command="lower-bound"):
        cfg = write_config(tmp_path, override)
        code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    def test_misspelled_key_rejected(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"privacy": {"budget_mod": "equal"}})
        assert code == 2
        assert "privacy.budget_mod: unknown key" in err

    def test_string_for_bool_rejected(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"instance": {"prior_on_anchors": "no"}})
        assert code == 2
        assert "instance.prior_on_anchors: expected bool" in err

    def test_fraction_for_int_rejected(self, tmp_path, capsys):
        code, err = self._run(
            tmp_path, capsys,
            {"privacy": {"budget_mode": "sweep", "sweep_resolution": 2.7}}, "synthesize",
        )
        assert code == 2
        assert "privacy.sweep_resolution: expected int" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"privcy": {"eps": [0.4]}})
        assert code == 2
        assert "unknown config section 'privcy'" in err

    def test_defaults_come_from_the_settings_classes(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        run = load_config(path)
        assert run.instance == InstanceSpec()
        assert run.privacy == PrivacySpec()
        assert run.compare == CompareSpec()
        assert run.seed == 0

    def test_infinite_p_accepted_bare_and_quoted(self, tmp_path):
        for text in ("metric: {p: inf}\n", "metric: {p: 'inf'}\n"):
            path = tmp_path / "inf.yaml"
            path.write_text(text)
            assert load_config(path).privacy.p == math.inf

    def test_benchmark_inputs_load_strictly(self, monkeypatch):
        # The example config and the frozen benchmark inputs must stay
        # readable; the frozen ones must give the instance the benchmark's
        # own checks build from them.
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", root / "perfbench" / "checks.py"
        )
        checks = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, checks)  # its dataclass looks itself up
        spec.loader.exec_module(checks)
        load_config(root / "configs" / "example.yaml")
        for name in ("desk.yaml", "grid8.yaml"):
            path = root / "perfbench" / "inputs" / name
            run = load_config(path)
            assert run.instance == checks.instance_spec(yaml.safe_load(path.read_text()))
            assert run.seed == 6


class TestInputGuards:
    def _mechanism(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == 0
        return tmp_path / "m" / "mechanism_eps0.4.json"

    def _audit(self, tmp_path, mech, *flags):
        return main([
            "audit", "--mechanism", str(mech), "--out-dir", str(tmp_path / "a"), *flags,
        ])

    def test_audit_single_sample_is_config_error(self, tmp_path, capsys):
        code = self._audit(tmp_path, self._mechanism(tmp_path), "--eps", "0.4", "--samples", "1")
        assert code == 2
        assert "at least 2 sample points" in capsys.readouterr().err

    def test_audit_nonpositive_eps_is_config_error(self, tmp_path, capsys):
        code = self._audit(tmp_path, self._mechanism(tmp_path), "--eps", "-1")
        assert code == 2
        assert "eps must be positive" in capsys.readouterr().err

    def test_compare_single_audit_sample_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"compare": {"audit_samples": 1, "methods": ["EM"]}})
        code = main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path / "c")])
        assert code == 2
        assert "at least 2 sample points" in capsys.readouterr().err

    def test_foreign_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"x": 1}')
        assert self._audit(tmp_path, path, "--eps", "0.4") == 2
        assert "not an anchorpriv mechanism" in capsys.readouterr().err

    def test_missing_mechanism_field_is_named(self, tmp_path, capsys):
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        del payload["partition"]["counts"]
        mech.write_text(json.dumps(payload))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        assert "'partition.counts'" in capsys.readouterr().err

    def test_out_of_domain_is_an_internal_fault(self, tmp_path, monkeypatch):
        # Commands only evaluate points inside the domain, so an
        # OutOfDomainError is a bug to surface, not a config error.
        from anchorpriv import evaluation
        from anchorpriv.errors import OutOfDomainError

        def fault(*args, **kwargs):
            raise OutOfDomainError("point outside the domain")

        monkeypatch.setattr(evaluation, "synth_instance", fault)
        cfg = write_config(tmp_path)
        with pytest.raises(OutOfDomainError):
            main(["lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "lb")])


# One value of each YAML/JSON type: whatever a key expects, some are wrong.
WRONG_VALUES = ("x", True, 2.7, [1], {"a": 1}, None)


def _key_paths(tree, prefix=()):
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated(draw, tree):
    """``tree`` with one key dropped, misspelled or set to a wrong-typed value."""
    tree = json.loads(json.dumps(tree))
    *parents, key = draw(st.sampled_from(sorted(_key_paths(tree))))
    node = tree
    for name in parents:
        node = node[name]
    kind = draw(st.sampled_from(("drop", "misspell", "retype")))
    if kind == "drop":
        del node[key]
    elif kind == "misspell":
        node[key[:-1] if len(key) > 1 else key + "_"] = node.pop(key)
    else:
        node[key] = draw(st.sampled_from(WRONG_VALUES))
    return tree


@functools.cache
def _mechanism_dict():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp))
        assert main(["synthesize", "--config", str(cfg), "--out-dir", tmp, "--eps", "0.8"]) == 0
        return json.loads((Path(tmp) / "mechanism_eps0.8.json").read_text())


class TestFuzz:
    """Malformed inputs end in a documented exit code, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=mutated(BASE_CONFIG),
           command=st.sampled_from(["synthesize", "lower-bound", "compare"]))
    def test_mutated_config(self, cfg, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.yaml"
            path.write_text(yaml.safe_dump(cfg))
            code = main([command, "--config", str(path), "--out-dir", str(Path(tmp) / "o")])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_mechanism(self, data):
        payload = data.draw(mutated(_mechanism_dict()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mechanism.json"
            path.write_text(json.dumps(payload))
            code = main([
                "audit", "--mechanism", str(path), "--eps", "0.8", "--samples", "20",
                "--out-dir", str(Path(tmp) / "o"),
            ])
        assert code in (0, 2, 3, 4)
