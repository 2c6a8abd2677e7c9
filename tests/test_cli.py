import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import time
import weakref
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from cdbench.cli import (
    RESULT_COLUMNS,
    ExperimentConfig,
    _apply_overrides,
    _atomic_write,
    _check_ratios,
    _openblas_threads,
    _teacher_pass,
    cmd_analyze,
    cmd_gen,
    cmd_run,
    cmd_sweep,
    cmd_teachers,
    load_config,
    main,
    parse_config,
    read_results_csv,
    run_grid,
)
import cdbench.benchmark
import cdbench.cli
import cdbench.domains
import cdbench.engine
from cdbench.benchmark import train_benchmark_teacher
from cdbench.distill import METHODS, MethodConfig
from cdbench.domains import LabeledSet, build_scenario, distill_pools, generate_domains
from cdbench.engine import (
    RunConfig,
    deserialize_model,
    frozen_logits,
    new_student,
    run_sequence,
    serialize_model,
)
from cdbench.errors import ConfigError, DivergenceError, FormatError, InvalidArgumentError
from cdbench.metrics import entropy_histogram
from cdbench.nn_core import Layer, MlpModel, init_mlp

from conftest import loaders, traced_peak

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def base_config(out_dir, **overrides):
    doc = {
        "schema_version": 1,
        "scenario": {
            "classes": 3,
            "feature_dim": 6,
            "n_domains": 4,
            "shared_domains": [0],
            "teacher_exclusive_domains": [[1], [2]],
            "external_domains": [3],
            "ed_ratio": 0.5,
            "samples_per_class": 20,
            "seed": 5,
            "external_relation": "related",
        },
        "methods": ["kl", "se2d"],
        "run": {
            "epochs": 2,
            "batch_size": 16,
            "learning_rate": 0.01,
            "temperature": 3.0,
            "seeds": [1, 2, 3],
            "teacher_epochs": 15,
            "teacher_hidden": [16, 16],
            "student_hidden": [16, 16],
        },
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def overwrite(path, data):
    """Replace the file at `path` with these bytes, or with an empty directory for None."""
    path.unlink(missing_ok=True)
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)


def teachers_at_sgd_rate(tmp_path, capsys, rate):
    """gen, then teachers on quick.json at this sgd teacher rate: its exit code, stderr and config."""
    doc = json.loads((CONFIG_DIR / "quick.json").read_text())
    doc["methods"] = ["kl"]
    doc["run"].update(optimizer="sgd", teacher_learning_rate=rate)
    doc["output_dir"] = str(tmp_path / "out")
    path = str(write_config(tmp_path, doc))
    assert main(["gen", "--config", path]) == 0
    capsys.readouterr()
    return main(["teachers", "--config", path]), capsys.readouterr().err, path


def stage_argv(command, config_path, out):
    """The argv of one stage on this config; sweep runs ratios 0 and 0.5, analyze reads `out`."""
    return {
        "teachers": ["teachers", "--config", config_path],
        "run": ["run", "--config", config_path],
        "sweep": ["sweep", "--config", config_path, "--ratio", "0,0.5"],
        "analyze": ["analyze", "--out", str(out)],
    }[command]


@pytest.fixture
def serial_teachers(monkeypatch):
    """cmd_teachers trains in this process: its setter lookup finds no OpenBLAS setter.

    For the tests that spy on teacher training, whose recorders would
    otherwise run in the forked workers.
    """
    monkeypatch.setattr(cdbench.cli, "_openblas_threads", lambda action: None)


def quick_teachers(out):
    """gen, then cmd_teachers, on quick.json at `out`: the report's and each checkpoint's bytes."""
    doc = json.loads((CONFIG_DIR / "quick.json").read_text())
    doc["output_dir"] = str(out)
    config = parse_config(doc)
    cmd_gen(config)
    cmd_teachers(config)
    paths = [out / "teacher_report.json", *sorted((out / "checkpoints").iterdir())]
    return {path.relative_to(out): path.read_bytes() for path in paths}


TEST_PID = os.getpid()


def die(*args):
    """A pool worker's death; it fails the test if it is called in the test process."""
    if os.getpid() == TEST_PID:
        raise AssertionError("a pool's call ran in the test process")
    os._exit(1)


class TestConfigValidation:
    def test_valid_config_parses(self, tmp_path):
        cfg = parse_config(base_config(tmp_path / "out"))
        assert cfg.methods == (MethodConfig("kl"), MethodConfig("se2d"))
        assert cfg.run.seeds == (1, 2, 3)

    def test_missing_field_is_named(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["scenario"]["classes"]
        with pytest.raises(ConfigError, match="scenario.classes"):
            parse_config(doc)

    def test_unknown_field_is_named(self, tmp_path):
        doc = base_config(tmp_path)
        doc["run"]["warmup"] = 5
        with pytest.raises(ConfigError, match="run.warmup"):
            parse_config(doc)

    def test_unknown_top_level_field(self, tmp_path):
        doc = base_config(tmp_path)
        doc["notes"] = "hello"
        with pytest.raises(ConfigError, match="notes"):
            parse_config(doc)

    def test_unknown_method_lists_valid_names(self, tmp_path):
        doc = base_config(tmp_path, methods=["kl", "magic"])
        with pytest.raises(ConfigError, match="kl, ls, dkd, mds, self_distill, se2d"):
            parse_config(doc)

    def test_unknown_method_is_not_a_run_setting(self, tmp_path):
        doc = base_config(tmp_path, methods=["kl", "magic"])
        with pytest.raises(ConfigError, match="^unknown method 'magic'; valid methods: kl,"):
            parse_config(doc)

    @pytest.mark.parametrize("floor", [1.5, -0.2])
    def test_floor_outside_unit_interval(self, tmp_path, floor):
        doc = base_config(tmp_path)
        doc["run"]["teacher_accuracy_floor"] = floor
        with pytest.raises(ConfigError, match="teacher_accuracy_floor must lie in"):
            parse_config(doc)

    def test_wrong_schema_version(self, tmp_path):
        doc = base_config(tmp_path)
        doc["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(doc)

    def test_schema_version_is_checked_before_the_sections(self, tmp_path):
        # Another version may write its sections differently.
        doc = base_config(tmp_path, schema_version=2, scenario={"classes": "three"})
        with pytest.raises(ConfigError, match="^schema_version 2 unsupported"):
            parse_config(doc)

    @pytest.mark.parametrize("entry", [{"method": "kl"}, ["kl"], None])
    def test_method_must_be_a_name(self, tmp_path, entry):
        with pytest.raises(ConfigError, match="field methods has the wrong type"):
            parse_config(base_config(tmp_path, methods=["se2d", entry]))

    def test_sweep_ratio_out_of_range(self, tmp_path):
        doc = base_config(tmp_path, sweep_ratios=[0.0, 1.0])
        with pytest.raises(ConfigError, match="ratio"):
            parse_config(doc)

    def test_empty_sweep_ratios(self, tmp_path):
        doc = base_config(tmp_path, sweep_ratios=[])
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("data", [b"\xff", None], ids=["not-utf8", "directory"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, data):
        path = tmp_path / "config.json"
        overwrite(path, data)
        assert main(["gen", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "epochs", True),
            ("run", "learning_rate", True),
            ("run", "dkd_beta", False),
            ("run", "seeds", [1, True]),
            ("scenario", "ed_ratio", False),
            ("scenario", "classes", True),
            (None, "external_entropy_max", True),
            (None, "sweep_ratios", [0.5, False]),
            (None, "schema_version", True),
            ("run", "learning_rate", float("nan")),
            ("run", "teacher_learning_rate", float("inf")),
            ("run", "dkd_alpha", float("nan")),
            ("run", "mds_low_q", True),
            ("run", "mds_high_q", "x"),
            (None, "external_entropy_max", float("nan")),
            pytest.param("run", "learning_rate", 10**400, id="run-learning_rate-bigint"),
            ("run", "optimizer", "rmsprop"),
            ("run", "student_hidden", [0]),
            ("run", "teacher_learning_rate", -0.5),
            ("run", "teacher_learning_rate", 0),
            ("scenario", "classes", 8),  # more classes than feature_dim 6
        ],
    )
    def test_boolean_in_numeric_field_rejected(self, tmp_path, capsys, section, key, value):
        doc = base_config(tmp_path / "out")
        (doc if section is None else doc[section])[key] = value
        assert main(["gen", "--config", str(write_config(tmp_path, doc))]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_omitted_fields_take_dataclass_defaults(self, tmp_path):
        doc = base_config(tmp_path / "out")
        del doc["scenario"]["ed_ratio"], doc["scenario"]["external_relation"]
        doc["run"] = {}
        config = parse_config(doc)
        assert config.scenario.ed_ratio == 0.0
        assert config.scenario.external_relation == "related"
        assert config.run == RunConfig()
        assert config.methods == (MethodConfig("kl"), MethodConfig("se2d"))

    @pytest.mark.parametrize(
        "key, value, named",
        [("seeds", [1, 2, 1], "seed 1"), ("methods", ["kl", "se2d", "kl"], "'kl'")],
    )
    def test_repeated_seed_or_method_rejected(self, tmp_path, capsys, key, value, named):
        doc = base_config(tmp_path / "out")
        (doc["run"] if key == "seeds" else doc)[key] = value
        assert main(["gen", "--config", str(write_config(tmp_path, doc))]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_seeds_flag_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", "--config", str(path), "--seeds", "1,2,1"]) == 2
        assert "seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--out", ""],
            ["run", "--out", ""],
            ["run", "--seeds", ""],
            ["sweep", "--ratio", ""],
            ["analyze", "--out", ""],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_empty_flag_is_refused(self, finished_run, tmp_path, monkeypatch, argv):
        # Each command would succeed without the flag; `analyze` runs in the results directory.
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = str(write_config(tmp_path, base_config(out, sweep_ratios=[0.5])))
        monkeypatch.chdir(out)
        config = [] if argv[0] == "analyze" else ["--config", path]
        assert main([argv[0], *config, *argv[1:]]) == 2
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("ratios", [[0.5, 0.5], [0.12341, 0.12342]])
    def test_repeated_sweep_ratio_rejected(self, tmp_path, ratios):
        with pytest.raises(ConfigError, match="ratio_0_5|ratio_0_1234"):
            parse_config(base_config(tmp_path, sweep_ratios=ratios))

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("external_entropy_max", -1.0, "external_entropy_max"),
            ("external_entropy_max", float("nan"), "external_entropy_max"),
            ("sweep_ratios", (0.5, 1.0), "sweep ratio 1.0"),
            ("sweep_ratios", (0.5, 0.5), "ratio_0_5"),
            ("methods", (MethodConfig("kl"), MethodConfig("kl")), "'kl'"),
            ("methods", (), "at least one method"),
        ],
        ids=["entropy-negative", "entropy-nan", "ratio-1", "ratio-twice", "method-twice", "none"],
    )
    @pytest.mark.parametrize("build", ["replace", "constructor"])
    def test_config_built_in_code_is_checked(self, tmp_path, key, value, named, build):
        config = parse_config(base_config(tmp_path))
        with pytest.raises(ConfigError, match=named):
            if build == "replace":
                replace(config, **{key: value})
            else:
                kwargs = {"methods": config.methods, key: value}
                ExperimentConfig(config.scenario, run=config.run, output_dir=tmp_path, **kwargs)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_bundled_config_parses(path):
    config = load_config(path)
    if config.sweep_ratios is not None:
        _check_ratios(config.sweep_ratios)


def test_bundled_configs_present():
    assert {p.name for p in CONFIG_DIR.glob("*.json")} >= {"benchmark.json", "quick.json"}


class TestGen:
    def test_idempotent_byte_output(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["gen", "--config", str(path)]) == 0
        first = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in sorted((tmp_path / "out").rglob("*"))
            if p.is_file()
        }
        assert main(["gen", "--config", str(path)]) == 0
        second = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in sorted((tmp_path / "out").rglob("*"))
            if p.is_file()
        }
        assert first == second

    def test_manifest_counts_match_spec(self, tmp_path):
        config = parse_config(base_config(tmp_path / "out"))
        cmd_gen(config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["domains"]) == 4
        for entry in manifest["domains"]:
            assert entry["train_rows"] + entry["test_rows"] == 3 * 20

    def test_domain_csvs_reload_with_own_loader(self, tmp_path):
        # No stage reads the CSVs back; the stdlib csv module must recover
        # the scenario's domains from them exactly.
        out = tmp_path / "out"
        config = parse_config(base_config(out))
        cmd_gen(config)
        domains = generate_domains(config.scenario)
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["id"] for entry in manifest["domains"]] == list(range(4))
        for entry in manifest["domains"]:
            ds = domains[entry["id"]]
            with open(out / entry["csv"], newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert header == [f"feature_{i}" for i in range(6)] + ["label", "domain"]
            assert entry["train_rows"] == len(ds.train)
            assert len(rows) == len(ds.train) + len(ds.test)
            features = np.array([[float(v) for v in row[:-2]] for row in rows])
            expected = np.concatenate([ds.train.features, ds.test.features])
            assert features.tobytes() == expected.tobytes()
            labels = np.concatenate([ds.train.labels, ds.test.labels])
            assert [int(row[-2]) for row in rows] == labels.tolist()
            assert {int(row[-1]) for row in rows} == {entry["id"]}


class TestTeachers:
    def test_requires_generated_scenario(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["teachers", "--config", str(path)]) == 2

    def test_report_contents(self, tmp_path):
        config = parse_config(base_config(tmp_path / "out"))
        cmd_gen(config)
        cmd_teachers(config)
        report = json.loads((tmp_path / "out" / "teacher_report.json").read_text())
        assert len(report["teachers"]) == 2
        for teacher in report["teachers"]:
            for acc in teacher["accuracy"].values():
                assert 0.0 <= acc <= 1.0
        assert (tmp_path / "out" / "checkpoints" / "teacher_0.ckpt").exists()
        assert report["settings"] == {
            "teacher_hidden": [16, 16],
            "teacher_epochs": 15,
            "teacher_learning_rate": 0.01,
            "optimizer": "adam",
            "batch_size": 16,
        }

    def test_meets_floor_on_separable_scenario(self, tmp_path):
        # single-domain teachers: separability of one generated domain
        doc = base_config(tmp_path / "out")
        doc["scenario"]["teacher_exclusive_domains"] = [[], []]
        doc["scenario"]["samples_per_class"] = 60
        doc["run"]["teacher_epochs"] = 50
        doc["run"]["batch_size"] = 32
        config = parse_config(doc)
        cmd_gen(config)
        cmd_teachers(config)
        report = json.loads((tmp_path / "out" / "teacher_report.json").read_text())
        assert all(t["meets_floor"] for t in report["teachers"])

    def test_changed_scenario_rejected(self, tmp_path):
        config = parse_config(base_config(tmp_path / "out"))
        cmd_gen(config)
        changed = parse_config(base_config(tmp_path / "out"))
        object.__setattr__(changed.scenario, "seed", 6)
        with pytest.raises(ConfigError, match="manifest"):
            cmd_teachers(changed)

    def test_overflowing_teacher_is_named(self, tmp_path, capsys):
        # At this rate the teacher overflows float32. The per-epoch check
        # stops it before its checkpoint is written.
        code, err, _ = teachers_at_sgd_rate(tmp_path, capsys, 10.0)
        assert code == 4
        assert re.search(r"teacher \d+, epoch \d+: the teacher diverged", err), err
        assert not (tmp_path / "out" / "teacher_report.json").exists()

    @pytest.mark.usefixtures("serial_teachers")
    def test_holds_one_teacher_at_a_time(self, tmp_path):
        # One 6-128-128-3 teacher's parameters take 139 KiB as float64, more
        # than the slack, so keeping a teacher while the next one trains fails.
        doc = base_config(tmp_path / "out")
        doc["scenario"].update(
            n_domains=5, teacher_exclusive_domains=[[1], [2], [3]], external_domains=[4]
        )
        doc["run"].update(teacher_epochs=2, teacher_hidden=[128, 128])
        config = parse_config(doc)
        cmd_gen(config)
        spec = config.scenario
        one = max(
            traced_peak(lambda: train_benchmark_teacher(spec, config.run, t)) for t in range(3)
        )
        assert traced_peak(lambda: cmd_teachers(config)) <= one + 32 * 1024

    @pytest.mark.usefixtures("serial_teachers")
    def test_each_teacher_trains_on_its_own_rows_alone(self, tmp_path, monkeypatch):
        # Every train split that domain generation returns is dead when a
        # teacher starts: the teacher's rows come as one concatenated set.
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        config = parse_config(doc)
        cmd_gen(config)
        generate, train_teacher = cdbench.domains.generate_domain, cdbench.engine.train_teacher
        splits, starts = [], []

        def generate_recorded(*args, **kwargs):
            ds = generate(*args, **kwargs)
            splits.append(weakref.ref(ds.train))
            return ds

        def train_checked(train, *args, **kwargs):
            starts.append((type(train), len(splits), sum(ref() is not None for ref in splits)))
            return train_teacher(train, *args, **kwargs)

        monkeypatch.setattr(cdbench.domains, "generate_domain", generate_recorded)
        monkeypatch.setattr(cdbench.benchmark, "train_teacher", train_checked)
        cmd_teachers(config)
        # The report's 4 domains, then each teacher's shared and own domain.
        assert starts == [(LabeledSet, 6, 0), (LabeledSet, 8, 0)]

    def test_teacher_diverging_inside_float32_fails_loudly(self, tmp_path, capsys):
        # At this rate the epoch-0 loss is 2e5 times the first batch's for
        # teacher 0 and 2e27 times for teacher 1, with every value finite in
        # float32; unchecked, both end at chance accuracy. At rate 1.0 the
        # ratios stay at 1.4 and 3.0.
        code, err, path = teachers_at_sgd_rate(tmp_path, capsys, 3.0)
        assert code == 4
        assert "teacher 0, epoch 0: the teacher diverged" in err
        assert not (tmp_path / "out" / "teacher_report.json").exists()
        assert main(["run", "--config", path]) == 2

    @pytest.mark.parametrize("t", [0, 1])
    def test_train_benchmark_teacher_names_the_diverging_teacher(self, t):
        # Both teachers diverge at this rate (see the test above).
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["run"].update(optimizer="sgd", teacher_learning_rate=3.0)
        config = parse_config(doc)
        with pytest.raises(DivergenceError, match=f"^teacher {t}, epoch 0: the teacher diverged"):
            train_benchmark_teacher(config.scenario, config.run, t)


@pytest.fixture
def pool_available():
    """Skip a test of the forked pool where _pool_map would run its calls serially."""
    if len(os.sched_getaffinity(0)) < 2 or _openblas_threads("set") is None:
        pytest.skip("needs two usable cores and an OpenBLAS thread setter")


@pytest.mark.usefixtures("pool_available")
class TestTeacherPool:
    """With two cores and an OpenBLAS setter, cmd_teachers trains in forked workers."""

    def test_workers_write_the_serial_bytes(self, tmp_path, monkeypatch):
        train_teacher, trained_here = cdbench.benchmark.train_teacher, []

        def recorded(*args, **kwargs):
            # A forked worker appends to its own copy of the list.
            trained_here.append(os.getpid())
            return train_teacher(*args, **kwargs)

        monkeypatch.setattr(cdbench.benchmark, "train_teacher", recorded)
        pooled = quick_teachers(tmp_path / "pool")
        assert trained_here == []
        monkeypatch.setattr(cdbench.cli, "_openblas_threads", lambda action: None)
        serial = quick_teachers(tmp_path / "serial")
        assert trained_here == [os.getpid()] * 2
        assert len(pooled) == 3 and pooled == serial

    def test_leaves_this_process_thread_count(self, tmp_path):
        get, set_threads = _openblas_threads("get"), _openblas_threads("set")
        before = get()
        set_threads(2)
        try:
            quick_teachers(tmp_path / "out")
            assert get() == 2
        finally:
            set_threads(before)

    def test_dead_worker_fails_the_stage(self, tmp_path, capsys, monkeypatch):
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        path = str(write_config(tmp_path, doc))
        assert main(["gen", "--config", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cdbench.cli, "_make_teacher", die)
        assert main(["teachers", "--config", path]) == 4
        assert "terminated abruptly" in capsys.readouterr().err
        assert not (tmp_path / "out" / "teacher_report.json").exists()
        assert main(["run", "--config", path]) == 2


@pytest.mark.usefixtures("pool_available")
class TestGridPool:
    """With two cores and an OpenBLAS setter, `run --jobs 2` runs its cells in forked workers."""

    @pytest.fixture
    def out(self, finished_run, tmp_path):
        """A copy of finished_run's teachers, without its results."""
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        (out / "results.csv").unlink()
        return out

    def test_cells_run_in_the_workers(self, out, monkeypatch):
        cells, sequences = [], []
        run_cell, sequence = cdbench.cli._run_cell, cdbench.cli.run_sequence

        def cell_recorded(*args):
            # A forked worker appends to its own copy of the list.
            cells.append(os.getpid())
            return run_cell(*args)

        def sequence_recorded(*args, **kwargs):
            sequences.append(os.getpid())
            return sequence(*args, **kwargs)

        monkeypatch.setattr(cdbench.cli, "_run_cell", cell_recorded)
        monkeypatch.setattr(cdbench.cli, "run_sequence", sequence_recorded)
        cmd_run(parse_config(base_config(out)), jobs=2)
        assert (out / "results.csv").exists()
        assert cells == [] and sequences == []

    def test_leaves_this_process_thread_count(self, out):
        get, set_threads = _openblas_threads("get"), _openblas_threads("set")
        before = get()
        set_threads(2)
        try:
            cmd_run(parse_config(base_config(out)), jobs=2)
            assert get() == 2
        finally:
            set_threads(before)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_each_checkpoint_is_read_once_in_this_process(
        self, out, tmp_path, monkeypatch, command
    ):
        # The workers inherit the teacher logits through the fork. Each read
        # appends its process and file to a log, which a worker's read would
        # reach too.
        log, read_teacher = tmp_path / "reads.log", cdbench.cli._read_teacher

        def read_logged(path, spec):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {path.name}\n")
            return read_teacher(path, spec)

        monkeypatch.setattr(cdbench.cli, "_read_teacher", read_logged)
        argv = [command, "--config", str(write_config(tmp_path, base_config(out))), "--jobs", "2"]
        if command == "sweep":
            argv += ["--ratio", "0,0.5"]
        assert main(argv) == 0
        reads = [f"{os.getpid()} teacher_{t}.ckpt" for t in range(2)]
        assert log.read_text().splitlines() == reads

    def test_dead_worker_fails_the_stage(self, out, tmp_path, capsys, monkeypatch):
        path = str(write_config(tmp_path, base_config(out)))
        monkeypatch.setattr(cdbench.cli, "_run_cell", die)
        assert main(["run", "--config", path, "--jobs", "2"]) == 4
        assert "terminated abruptly" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


def three_wide_teachers(out):
    """gen and teachers at `out` for three 6-128-128-3 teachers trained for 2 epochs.

    Returns the config and the largest tracemalloc peak of reading one
    teacher's checkpoint.
    """
    doc = base_config(out)
    doc["scenario"].update(
        n_domains=5, teacher_exclusive_domains=[[1], [2], [3]], external_domains=[4]
    )
    doc["run"].update(teacher_epochs=2, teacher_hidden=[128, 128])
    config = parse_config(doc)
    cmd_gen(config)
    cmd_teachers(config)
    spec = config.scenario
    paths = cdbench.cli._teacher_paths(out, spec)
    return config, max(traced_peak(lambda: cdbench.cli._read_teacher(p, spec)) for p in paths)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    config = parse_config(base_config(tmp_path / "out"))
    cmd_gen(config)
    cmd_teachers(config)
    cmd_run(config)
    return tmp_path / "out", config


@pytest.fixture(scope="module")
def diverging_quick(tmp_path_factory):
    """quick.json's teachers, and a config whose sgd student diverges at lr 1e4."""
    tmp_path = tmp_path_factory.mktemp("diverging")
    doc = json.loads((CONFIG_DIR / "quick.json").read_text())
    doc["methods"] = ["kl"]
    doc["run"].update(seeds=[1], optimizer="sgd", learning_rate=1e4, teacher_learning_rate=0.01)
    doc["output_dir"] = str(tmp_path / "out")
    path = str(write_config(tmp_path, doc))
    assert main(["gen", "--config", path]) == 0
    assert main(["teachers", "--config", path]) == 0
    return tmp_path / "out", path


class TestRun:
    def test_requires_teachers(self, tmp_path):
        config = parse_config(base_config(tmp_path / "out"))
        cmd_gen(config)
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 2

    def test_grid_cardinality(self, finished_run):
        out, config = finished_run
        rows = read_results_csv(out / "results.csv", config.scenario)
        # 2 methods x 3 seeds x 2 tasks x 4 domains
        assert len(rows) == 2 * 3 * 2 * 4
        keys = {(r["seed"], r["method"], r["task"], r["domain"]) for r in rows}
        assert len(keys) == len(rows)

    def test_grid_holds_no_train_split(self, tmp_path, monkeypatch):
        # The student sees training rows only through the distillation set:
        # every train split that domain generation returns is dead when a
        # task starts.
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        config = parse_config(doc)
        cmd_gen(config)
        cmd_teachers(config)
        generate, distill_task = cdbench.domains.generate_domain, cdbench.engine.distill_task
        splits, starts = [], []

        def generate_recorded(*args, **kwargs):
            ds = generate(*args, **kwargs)
            splits.append(weakref.ref(ds.train))
            return ds

        def distill_checked(*args, **kwargs):
            starts.append((len(splits), sum(ref() is not None for ref in splits)))
            return distill_task(*args, **kwargs)

        monkeypatch.setattr(cdbench.domains, "generate_domain", generate_recorded)
        monkeypatch.setattr(cdbench.engine, "distill_task", distill_checked)
        cmd_run(config)
        # The 4 domains, generated once; 2 methods x 2 seeds x 2 tasks, less
        # se2d's task 0, which is kl's.
        assert starts == [(4, 0)] * 6

    def test_serial_cells_run_at_one_blas_thread(self, tmp_path, monkeypatch):
        # A serial grid computes as a forked worker does, and hands the
        # caller's thread count back.
        get, set_threads = _openblas_threads("get"), _openblas_threads("set")
        if set_threads is None:
            pytest.skip("needs an OpenBLAS thread setter")
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        config = parse_config(doc)
        cmd_gen(config)
        cmd_teachers(config)
        sequence, threads = cdbench.cli.run_sequence, []

        def sequence_recorded(*args, **kwargs):
            threads.append(get())
            return sequence(*args, **kwargs)

        monkeypatch.setattr(cdbench.cli, "run_sequence", sequence_recorded)
        before = get()
        set_threads(2)
        try:
            cmd_run(config, jobs=1)
            assert get() == 2
        finally:
            set_threads(before)
        # 2 methods x 2 seeds
        assert threads == [1] * 4

    def test_unchained_teacher_checkpoint_is_a_data_error(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        unchained = MlpModel([Layer(np.zeros((4, 3)), np.zeros(4)), Layer(np.zeros((2, 5)), np.zeros(2))])
        (out / "checkpoints" / "teacher_1.ckpt").write_bytes(serialize_model(unchained))
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 3
        assert "layer 1" in capsys.readouterr().err

    def test_non_finite_teacher_checkpoint_is_a_data_error(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        ckpt = out / "checkpoints" / "teacher_1.ckpt"
        data = bytearray(ckpt.read_bytes())
        # Layer 1's first weight: after the 12-byte header, layer 0's shape
        # (8 bytes), 16 x 6 weights and 16 biases, and layer 1's shape.
        offset = 12 + 8 + 4 * (16 * 6 + 16) + 8
        data[offset : offset + 4] = np.float32("nan").tobytes()
        ckpt.write_bytes(bytes(data))
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "teacher_1.ckpt" in err and "layer 1" in err
        assert (out / "results.csv").read_bytes() == (finished_run[0] / "results.csv").read_bytes()

    @pytest.mark.parametrize(
        "widths", [[5, 32, 32, 3], [6, 32, 32, 4], None], ids=["input", "output", "directory"]
    )
    @pytest.mark.parametrize("command", ["run", "sweep", "analyze"])
    def test_teacher_width_mismatch_is_a_data_error(
        self, finished_run, tmp_path, capsys, command, widths
    ):
        # The scenario has 6 features and 3 classes; None puts a directory
        # in place of the checkpoint.
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        data = None if widths is None else serialize_model(init_mlp(3, widths))
        overwrite(out / "checkpoints" / "teacher_1.ckpt", data)
        path = str(write_config(tmp_path, base_config(out)))
        argv = {
            "run": ["run", "--config", path],
            "sweep": ["sweep", "--config", path, "--ratio", "0,0.5"],
            "analyze": ["analyze", "--out", str(out)],
        }[command]
        assert main(argv) == 3
        assert "teacher_1.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_student_fails_loudly(self, tmp_path, capsys, jobs):
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["methods"] = ["kl", "se2d"]
        doc["run"].update(seeds=[1], optimizer="sgd", learning_rate=1e4, teacher_learning_rate=0.01)
        doc["output_dir"] = str(tmp_path / "out")
        path = str(write_config(tmp_path, doc))
        assert main(["gen", "--config", path]) == 0
        assert main(["teachers", "--config", path]) == 0
        capsys.readouterr()
        # At --jobs 2, where a pool can start, the error is raised in a worker.
        assert main(["run", "--config", path, "--jobs", jobs]) == 4
        assert "method kl, seed 1, task 0, epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "screen"])
    def test_one_teacher_is_alive_at_each_teacher_pass(self, tmp_path, monkeypatch, command):
        # Every model _read_teacher returns is recorded. At each pass of a
        # teacher, the teacher being run is the only one alive.
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        if command == "screen":
            doc["external_entropy_max"] = 100.0
        path = str(write_config(tmp_path, doc))
        assert main(["gen", "--config", path]) == 0
        assert main(["teachers", "--config", path]) == 0
        read, alive = [], []
        read_teacher, frozen_logits = cdbench.cli._read_teacher, cdbench.engine.frozen_logits

        def read_recorded(*args):
            model = read_teacher(*args)
            read.append(weakref.ref(model))
            return model

        def frozen_counted(model, features, chunk):
            if any(ref() is model for ref in read):
                alive.append(sum(ref() is not None for ref in read))
            return frozen_logits(model, features, chunk)

        monkeypatch.setattr(cdbench.cli, "_read_teacher", read_recorded)
        monkeypatch.setattr(cdbench.engine, "frozen_logits", frozen_counted)
        monkeypatch.setattr(cdbench.cli, "frozen_logits", frozen_counted)
        argv = ["run", "--config", path, "--jobs", "1"]
        if command == "sweep":
            argv = ["sweep", "--config", path, "--ratio", "0,0.5"]
        assert main(argv) == 0
        # 2 teachers x 2 pools, at any number of ratios; the screen reads those logits.
        assert alive == [1] * 4

    def test_run_holds_one_teacher_at_a_time(self, tmp_path):
        # One 6-128-128-3 teacher's parameters take 139 KiB as float64, more
        # than the slack, so holding a second teacher at any point fails.
        config, one = three_wide_teachers(tmp_path / "out")
        assert traced_peak(lambda: cmd_run(config)) <= one + 96 * 1024

    def test_analyze_holds_one_teacher_at_a_time(self, tmp_path):
        # As for run: each teacher's entropy profiles are taken, and the
        # teacher freed, before the next checkpoint is read.
        config, one = three_wide_teachers(tmp_path / "out")
        cmd_run(config)
        assert traced_peak(lambda: cmd_analyze(config.output_dir)) <= one + 96 * 1024

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bad_last_checkpoint_fails_before_any_cell(
        self, finished_run, tmp_path, monkeypatch, capsys, command
    ):
        # teacher_1 is the scenario's last teacher.
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        ckpt = out / "checkpoints" / "teacher_1.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-4])
        cells = []
        monkeypatch.setattr(cdbench.cli, "_run_cell", lambda *args: cells.append(args))
        path = str(write_config(tmp_path, base_config(out)))
        argv = ["run", "--config", path]
        if command == "sweep":
            argv = ["sweep", "--config", path, "--ratio", "0,0.5"]
        assert main(argv) == 3
        assert "teacher_1.ckpt" in capsys.readouterr().err
        assert cells == []

    def test_eval_every_epoch_writes_each_epochs_accuracies(self, tmp_path, monkeypatch):
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["run"]["eval_every_epoch"] = True
        doc["output_dir"] = str(tmp_path / "out")
        path = str(write_config(tmp_path, doc))
        assert main(["gen", "--config", path]) == 0
        assert main(["teachers", "--config", path]) == 0
        want = []

        def recorded(student, teachers, scenario, method, config, seed=0, shared=None):
            logs = run_sequence(student, teachers, scenario, method, config, seed=seed, shared=shared)
            for log in logs:
                for epoch, accs in enumerate(log.epoch_accuracies):
                    for d, acc in accs.items():
                        want.append((method.method, seed, log.task_index, epoch, d, acc))
            return logs

        monkeypatch.setattr(cdbench.cli, "run_sequence", recorded)
        assert main(["run", "--config", path]) == 0
        with open(tmp_path / "out" / "curves" / "epoch_accuracy.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["method", "seed", "task", "epoch", "domain", "accuracy"]
        got = [(m, int(s), int(t), int(e), int(d), float(a)) for m, s, t, e, d, a in rows]
        # 2 methods x 2 seeds x 2 tasks x 5 epochs x 4 domains
        assert len(got) == 2 * 2 * 2 * 5 * 4
        assert got == sorted(want)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_student_diverging_inside_float32_fails_loudly(self, diverging_quick, capsys, seed):
        # These seeds reach epoch-0 losses of 1e12 to 1e38, then settle near
        # 3e4 at chance accuracy, with every value finite in float32.
        out, path = diverging_quick
        assert main(["run", "--config", path, "--seeds", str(seed)]) == 4
        assert f"method kl, seed {seed}, task 0, epoch 0" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_ls_at_two_classes_is_not_divergence(self, tmp_path, capsys):
        # At two classes, ls standardizes every row to +-1, so a first batch
        # that student and teacher rank alike has a loss near 1e-15 (7.91e-16
        # at seed 3, task 1). A later epoch's 0.161 is no divergence.
        doc = {
            "schema_version": 1,
            "scenario": {
                "classes": 2,
                "feature_dim": 4,
                "n_domains": 4,
                "shared_domains": [0],
                "teacher_exclusive_domains": [[1], [2]],
                "external_domains": [3],
                "ed_ratio": 0.5,
                "samples_per_class": 8,
                "seed": 3,
            },
            "methods": ["ls"],
            "run": {
                "epochs": 2,
                "batch_size": 8,
                "learning_rate": 0.1,
                "temperature": 3.0,
                "teacher_epochs": 3,
                "teacher_hidden": [8],
                "student_hidden": [8],
                "seeds": [3],
            },
            "output_dir": str(tmp_path / "out"),
        }
        path = str(write_config(tmp_path, doc))
        for stage in ("gen", "teachers", "run"):
            assert main([stage, "--config", path]) == 0, capsys.readouterr().err
        rows = read_results_csv(tmp_path / "out" / "results.csv", parse_config(doc).scenario)
        assert len(rows) == 2 * 4

    def test_three_task_five_domain_grid(self, tmp_path):
        # 2 methods x 3 seeds x 3 tasks x 5 domains -> 90 rows
        doc = base_config(tmp_path / "out")
        doc["scenario"].update(
            {
                "classes": 3,
                "n_domains": 5,
                "teacher_exclusive_domains": [[1], [2], [3]],
                "external_domains": [4],
                "samples_per_class": 16,
            }
        )
        doc["run"].update({"epochs": 1, "teacher_epochs": 5})
        config = parse_config(doc)
        cmd_gen(config)
        cmd_teachers(config)
        cmd_run(config)
        rows = read_results_csv(tmp_path / "out" / "results.csv", config.scenario)
        assert len(rows) == 90

    def test_summary_matches_independent_recomputation(self, finished_run):
        out, config = finished_run
        rows = read_results_csv(out / "results.csv", config.scenario)
        summary = json.loads((out / "summary.json").read_text())
        finals = {}
        for r in rows:
            if r["task"] == 1:
                finals.setdefault((r["method"], r["domain"]), []).append(r["accuracy"])
        for (method, domain), values in finals.items():
            got = summary["methods"][method]["final_accuracy"][str(domain)]
            assert abs(got["mean"] - np.mean(values)) < 1e-9
            assert abs(got["std"] - np.std(values)) < 1e-9

    def test_parallel_jobs_give_identical_results(self, finished_run, tmp_path):
        out, config = finished_run
        par_dir = tmp_path / "par"
        par = ExperimentConfig(
            config.scenario, config.methods, config.run, par_dir, None
        )
        cmd_gen(par)
        cmd_teachers(par)
        cmd_run(par, jobs=4)
        serial = (out / "results.csv").read_text().splitlines()
        parallel = (par_dir / "results.csv").read_text().splitlines()

        def strip_elapsed(lines):
            return ["," .join(l.split(",")[:-1]) for l in lines]

        assert strip_elapsed(serial) == strip_elapsed(parallel)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, tmp_path, capsys, command, jobs):
        doc = base_config(tmp_path / "out")
        doc["run"].update({"epochs": 1, "seeds": [1], "teacher_epochs": 1})
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", str(path)]) == 0
        assert main(["teachers", "--config", str(path)]) == 0
        capsys.readouterr()
        ratio = ["--ratio", "0,0.5"] if command == "sweep" else []
        assert main([command, "--config", str(path), "--jobs", jobs, *ratio]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_nonpositive_jobs_rejected_before_any_input(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        path = write_config(tmp_path, base_config(out, sweep_ratios=[0.0, 0.5]))
        assert main([command, "--config", str(path), "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "manifest" not in err
        assert list(out.iterdir()) == []

    def test_atomic_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "x" / "summary.json"

        def boom(src, dst):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(RuntimeError):
            _atomic_write(target, b"{}")
        assert not target.exists()


class TestStaleTeachers:
    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("teacher_hidden", [7], "teacher_hidden"),
            ("teacher_epochs", 16, "teacher_epochs"),
            ("teacher_learning_rate", 0.02, "teacher_learning_rate"),
            # Without teacher_learning_rate, teachers train at learning_rate.
            ("learning_rate", 0.02, "teacher_learning_rate"),
            ("optimizer", "sgd", "optimizer"),
            ("batch_size", 8, "batch_size"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_changed_teacher_setting_is_refused(
        self, finished_run, tmp_path, capsys, command, key, value, named
    ):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        doc = base_config(out)
        doc["run"][key] = value
        path = str(write_config(tmp_path, doc))
        ratio = ["--ratio", "0,0.5"] if command == "sweep" else []
        assert main([command, "--config", path, *ratio]) == 2
        assert f"run.{named}" in capsys.readouterr().err
        assert (out / "results.csv").read_bytes() == (finished_run[0] / "results.csv").read_bytes()
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "analyze"])
    def test_teachers_of_another_scenario_are_refused(self, finished_run, tmp_path, capsys, command):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        (out / "metrics.json").unlink(missing_ok=True)
        doc = base_config(out)
        doc["scenario"]["seed"] = 6
        path = str(write_config(tmp_path, doc))
        assert main(["gen", "--config", path]) == 0
        capsys.readouterr()
        assert main(stage_argv(command, path, out)) == 2
        assert "scenario.seed is 6, but the teachers were trained with 5" in capsys.readouterr().err
        assert (out / "results.csv").read_bytes() == (finished_run[0] / "results.csv").read_bytes()
        assert not (out / "sweep.csv").exists()
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_report_without_scenario_is_refused(self, finished_run, tmp_path, capsys, command):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        (out / "metrics.json").unlink(missing_ok=True)
        report = json.loads((out / "teacher_report.json").read_text())
        del report["scenario"]
        (out / "teacher_report.json").write_text(json.dumps(report))
        path = str(write_config(tmp_path, base_config(out)))
        assert main(stage_argv(command, path, out)) == 2
        assert "scenario.classes" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.usefixtures("serial_teachers")
    def test_failed_teachers_stage_leaves_no_report(
        self, finished_run, tmp_path, capsys, monkeypatch
    ):
        # A rerun at other settings replaces teacher 0, then teacher 1
        # diverges: the first run's report must not vouch for the mix.
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        first = str(write_config(tmp_path, base_config(out)))
        doc = base_config(out)
        doc["run"]["teacher_epochs"] = 16
        other = tmp_path / "other"
        other.mkdir()
        second = str(write_config(other, doc))
        train = cdbench.cli.train_benchmark_teacher

        def diverging_teacher_1(spec, run, t):
            if t == 1:
                raise DivergenceError("teacher 1, epoch 0: the teacher diverged")
            return train(spec, run, t)

        monkeypatch.setattr(cdbench.cli, "train_benchmark_teacher", diverging_teacher_1)
        assert main(["teachers", "--config", second]) == 4
        ckpt = "checkpoints/teacher_0.ckpt"
        assert (out / ckpt).read_bytes() != (finished_run[0] / ckpt).read_bytes()
        assert not (out / "teacher_report.json").exists()
        capsys.readouterr()
        for command in ("run", "sweep", "analyze"):
            assert main(stage_argv(command, first, out)) == 2
            assert "no teacher report" in capsys.readouterr().err

    def test_other_ed_ratio_keeps_the_teachers(self, finished_run, tmp_path):
        # No teacher reads ed_ratio, so a `gen` at another ratio keeps them.
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        doc = base_config(out)
        doc["scenario"]["ed_ratio"] = 0.25
        doc["run"]["seeds"] = [1]
        path = str(write_config(tmp_path, doc))
        assert main(["gen", "--config", path]) == 0
        assert main(["run", "--config", path]) == 0

    def test_report_without_settings_is_refused(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        report = json.loads((out / "teacher_report.json").read_text())
        del report["settings"]
        (out / "teacher_report.json").write_text(json.dumps(report))
        path = str(write_config(tmp_path, base_config(out)))
        assert main(["run", "--config", path]) == 2
        assert "run.teacher_hidden" in capsys.readouterr().err

    # None puts a directory in place of the report.
    @pytest.mark.parametrize(
        "text", ["{", "[]", '{"settings": []}', pytest.param(None, id="directory")]
    )
    def test_malformed_report_is_a_data_error(self, finished_run, tmp_path, capsys, text):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        overwrite(out / "teacher_report.json", None if text is None else text.encode())
        path = str(write_config(tmp_path, base_config(out)))
        assert main(["run", "--config", path]) == 3
        assert "teacher_report.json" in capsys.readouterr().err

    def test_report_that_is_not_utf8_is_a_data_error(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        (out / "teacher_report.json").write_bytes(b"\xff")
        path = str(write_config(tmp_path, base_config(out)))
        assert main(["run", "--config", path]) == 3
        assert "teacher_report.json" in capsys.readouterr().err

    def test_every_setting_that_shapes_a_teacher_is_recorded(self):
        # A RunConfig field that changes a teacher's checkpoint must change
        # teacher_settings too, or `run` would take teachers another config made.
        spec = parse_config(base_config("unused")).scenario
        base = RunConfig(batch_size=16, learning_rate=0.01, teacher_epochs=3, teacher_hidden=(8, 8))
        changed = {
            "epochs": 2,
            "batch_size": 8,
            "optimizer": "sgd",
            "learning_rate": 0.02,
            "temperature": 3.0,
            "seeds": (4,),
            "eval_every_epoch": True,
            "teacher_epochs": 2,
            "teacher_learning_rate": 0.05,
            "teacher_hidden": (8, 4),
            "student_hidden": (4,),
            "teacher_accuracy_floor": 0.5,
            "dkd_alpha": 2.0,
            "dkd_beta": 4.0,
            "mds_low_q": 0.1,
            "mds_high_q": 0.9,
        }
        assert list(changed) == [f.name for f in fields(RunConfig)]
        checkpoint = lambda run: serialize_model(train_benchmark_teacher(spec, run, 0))
        before = checkpoint(base)
        shaping = []
        for name, value in changed.items():
            assert getattr(base, name) != value, name
            run = replace(base, **{name: value})
            if checkpoint(run) != before:
                shaping.append(name)
                assert run.teacher_settings != base.teacher_settings, name
        assert shaping

    def test_student_settings_reuse_the_teachers(self, finished_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        doc = base_config(out)
        doc["run"].update(epochs=1, seeds=[4], student_hidden=[8], temperature=2.0)
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0


def _manifest_without_feature_dim() -> bytes:
    scenario = dict(base_config("unused")["scenario"])
    del scenario["feature_dim"]
    return json.dumps({"scenario": scenario}).encode()


@pytest.mark.parametrize(
    "data",
    [b"{", b"[]", b"\xff", b"{}", _manifest_without_feature_dim(), None],
    ids=["brace", "list", "not-utf8", "no-scenario", "no-feature-dim", "directory"],
)
@pytest.mark.parametrize("command", ["teachers", "run", "sweep", "analyze"])
def test_malformed_manifest_is_a_data_error(finished_run, tmp_path, capsys, command, data):
    out = tmp_path / "out"
    shutil.copytree(finished_run[0], out)
    overwrite(out / "manifest.json", data)
    path = str(write_config(tmp_path, base_config(out)))
    assert main(stage_argv(command, path, out)) == 3
    assert str(out / "manifest.json") in capsys.readouterr().err


@pytest.fixture(scope="module")
def three_teacher_grid():
    """A 2-method x 2-seed grid over 3 teachers, with the teachers in memory."""
    doc = base_config("unused", methods=["kl", "dkd"])
    doc["scenario"].update(
        n_domains=5,
        teacher_exclusive_domains=[[1], [2], [3]],
        external_domains=[4],
        samples_per_class=16,
    )
    doc["run"].update(epochs=1, seeds=[1, 2], teacher_epochs=5)
    config = parse_config(doc)
    spec = config.scenario
    return config, [train_benchmark_teacher(spec, config.run, t) for t in range(spec.n_teachers)]


def sequence_rows(config, teachers):
    """(method, seed, task, domain, accuracy) of one run_sequence per method and seed of config."""
    spec = config.scenario
    scenario = build_scenario(spec)
    features, chunk = scenario.distill_set.features, config.run.batch_size
    logits = [frozen_logits(teacher, features, chunk) for teacher in teachers]
    rows = []
    for method, seed in product(config.methods, config.run.seeds):
        student = new_student(spec.feature_dim, spec.n_classes, config.run, seed)
        for log in run_sequence(student, logits, scenario, method, config.run, seed=seed):
            for d, acc in sorted(log.accuracies.items()):
                rows.append((method.method, seed, log.task_index, d, acc))
    return rows


class TestGridCells:
    def test_each_teacher_runs_over_the_set_once_per_grid(self, three_teacher_grid, monkeypatch):
        config, teachers = three_teacher_grid
        original = cdbench.engine.frozen_logits
        passes, evaluated = [], []

        def counted(model, features, chunk):
            if sys._getframe(1).f_code.co_name == "evaluate":
                evaluated.append((features.tobytes(), chunk == len(features)))
            else:
                passes.append((id(model), len(features)))
            return original(model, features, chunk)

        monkeypatch.setattr(cdbench.engine, "frozen_logits", counted)
        monkeypatch.setattr(cdbench.cli, "frozen_logits", counted)
        run_grid(config, (0.0, config.scenario.ed_ratio), loaders(teachers))
        domains = generate_domains(config.scenario)
        pools = distill_pools(config.scenario, domains)
        n_external = int(pools.external_mask.sum())
        # kl and dkd read no checkpoint, so every pass outside evaluate is a
        # teacher's: one over each pool for the grid's eight cells at both ratios.
        sizes = (len(pools) - n_external, n_external)
        assert passes == [(id(t), n) for t in teachers for n in sizes]
        # Every other pass is evaluate's: one chunk over a test split.
        splits = {ds.test.features.tobytes() for ds in domains.values()}
        assert evaluated
        assert all(data in splits and whole for data, whole in evaluated)

    def test_rows_match_a_run_sequence_per_cell(self, three_teacher_grid):
        config, teachers = three_teacher_grid
        want = sequence_rows(config, teachers)
        rows, _ = run_grid(config, (config.scenario.ed_ratio,), loaders(teachers))
        got = [(r["method"], r["seed"], r["task"], r["domain"], r["accuracy"]) for r in rows]
        assert got == sorted(want)

    @pytest.mark.parametrize("ratio", [0.5, 0.0])
    def test_task_0_runs_once_per_seed(self, three_teacher_grid, monkeypatch, ratio):
        # No checkpoint method has a previous student at task 0, so kl,
        # self_distill and se2d train it alike; without external rows, se2d
        # trains every task as kl does. Listed before kl, se2d runs them.
        config, teachers = three_teacher_grid
        methods = tuple(MethodConfig(m) for m in ("se2d", "kl", "ls", "self_distill"))
        spec = replace(config.scenario, ed_ratio=ratio)
        config = replace(config, scenario=spec, methods=methods)
        original, calls = cdbench.engine.distill_task, []

        def recorded(*args, **kwargs):
            calls.append((args[3].method, kwargs["seed"], kwargs["task_index"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(cdbench.engine, "distill_task", recorded)
        rows, _ = run_grid(config, (config.scenario.ed_ratio,), loaders(teachers))
        tasks = {"se2d": [0, 1, 2], "kl": [], "ls": [0, 1, 2], "self_distill": [1, 2]}
        if ratio:
            tasks["kl"] = [1, 2]
        want_calls = [(m, s, t) for m, ts in tasks.items() for s in (1, 2) for t in ts]
        assert sorted(calls) == sorted(want_calls)

        got = [(r["method"], r["seed"], r["task"], r["domain"], r["accuracy"]) for r in rows]
        assert got == sorted(sequence_rows(config, teachers))
        # Each shared task's rows carry its one run's wall time.
        elapsed = {(r["method"], r["seed"], r["task"]): r["elapsed_seconds"] for r in rows}
        for seed in (1, 2):
            task_0 = {elapsed[m, seed, 0] for m in ("kl", "self_distill", "se2d")}
            assert len(task_0) == 1
            assert (elapsed["kl", seed, 1] == elapsed["se2d", seed, 1]) is (ratio == 0.0)

    def test_elapsed_seconds_is_each_tasks_own(self, three_teacher_grid, monkeypatch):
        config, teachers = three_teacher_grid
        original = cdbench.engine.distill_task

        def slow_second_task(*args, **kwargs):
            if kwargs["task_index"] == 1:
                time.sleep(0.2)
            return original(*args, **kwargs)

        monkeypatch.setattr(cdbench.engine, "distill_task", slow_second_task)
        one_cell = replace(
            config, methods=config.methods[:1], run=replace(config.run, seeds=(1,))
        )
        rows, _ = run_grid(one_cell, (config.scenario.ed_ratio,), loaders(teachers))
        elapsed = {}
        for r in rows:
            elapsed.setdefault(r["task"], set()).add(r["elapsed_seconds"])
        assert all(len(values) == 1 for values in elapsed.values())
        assert min(elapsed[1]) - max(elapsed[0] | elapsed[2]) > 0.15


class TestExternalEntropyFilter:
    def test_generous_threshold_changes_nothing(self, finished_run, tmp_path):
        out, config = finished_run
        filtered_dir = tmp_path / "filtered"
        filtered = ExperimentConfig(
            config.scenario, config.methods, config.run,
            filtered_dir, None, external_entropy_max=100.0,
        )
        cmd_gen(filtered)
        cmd_teachers(filtered)
        cmd_run(filtered)
        strip = lambda text: ["," .join(l.split(",")[:-1]) for l in text.splitlines()]
        assert strip((filtered_dir / "results.csv").read_text()) == strip(
            (out / "results.csv").read_text()
        )

    def test_tight_threshold_still_runs(self, tmp_path):
        doc = base_config(tmp_path / "out", external_entropy_max=1e-6)
        config = parse_config(doc)
        cmd_gen(config)
        cmd_teachers(config)
        cmd_run(config)
        assert (tmp_path / "out" / "results.csv").exists()

    def test_screen_that_empties_the_set_names_its_cause(self, tmp_path, capsys, monkeypatch):
        # Without a shared domain the set is external rows alone; a screen
        # that drops them all leaves nothing, refused before any grid task.
        doc = base_config(tmp_path / "out", external_entropy_max=1e-9)
        doc["scenario"]["shared_domains"] = []
        path = str(write_config(tmp_path, doc))
        assert main(["gen", "--config", path]) == 0
        assert main(["teachers", "--config", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cdbench.cli, "_run_cell", None)  # a grid task would raise TypeError
        assert main(["run", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "ed_ratio 0.5" in err and "external_entropy_max 1e-09" in err, err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_seeds_override_keeps_threshold(self, tmp_path):
        config = parse_config(base_config(tmp_path / "out", external_entropy_max=0.5))
        args = argparse.Namespace(out=None, seeds="4,5")
        config = _apply_overrides(config, args)
        assert config.run.seeds == (4, 5)
        assert config.external_entropy_max == 0.5

    def test_invalid_threshold_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="external_entropy_max"):
            parse_config(base_config(tmp_path, external_entropy_max=-1.0))

    def test_screen_holds_one_chunk_of_activations(self):
        # The screen reads the logits of the teacher passes. On the
        # wide-serial scenario, with 1,200 rows in each pool and 512-wide
        # teachers run 256 rows at a time, a pass holds one chunk's
        # activations; one unchunked forward per teacher and pool would
        # hold 1,200x512 activations per hidden layer.
        spec = load_config(CONFIG_DIR / "benchmark.json").scenario
        spec = replace(spec, n_classes=10, feature_dim=32, samples_per_class=150)
        pools = distill_pools(spec, generate_domains(spec))
        assert pools.external_mask.sum() == len(pools) - 1200 == 1200
        teachers = [init_mlp(t, [32, 512, 512, 10]) for t in range(3)]
        passes = lambda: [_teacher_pass(pools, 256, load) for load in loaders(teachers)]
        assert traced_peak(passes) < 3 * 2**20


class TestSweep:
    def test_blocks_and_ratio_zero_equivalence(self, tmp_path):
        # Each ratio's block equals a plain run at that ratio, so no teacher
        # logits from one ratio's distillation set reach another's grid.
        out = tmp_path / "out"
        config = parse_config(base_config(out, sweep_ratios=[0.0, 0.5]))
        cmd_gen(config)
        cmd_teachers(config)
        cmd_sweep(config)
        for block_dir in ("ratio_0", "ratio_0_5"):
            written = {p.name for p in (out / block_dir).iterdir()}
            assert written == {"results.csv", "summary.json"}
        # sweep.csv is the header, then each ratio's results.csv body in ratio order.
        header = ",".join(RESULT_COLUMNS).encode()
        blocks = [
            (out / d / "results.csv").read_bytes().split(b"\n", 1) for d in ("ratio_0", "ratio_0_5")
        ]
        assert [head for head, _ in blocks] == [header, header]
        assert (out / "sweep.csv").read_bytes() == header + b"\n" + b"".join(b for _, b in blocks)

        def without_wall_time(rows):
            return [{c: v for c, v in r.items() if c != "elapsed_seconds"} for r in rows]

        swept = without_wall_time(read_results_csv(out / "sweep.csv", config.scenario))
        at = {ratio: [r for r in swept if r["ed_ratio"] == ratio] for ratio in (0.0, 0.5)}
        assert len(at[0.0]) + len(at[0.5]) == len(swept)

        # the ratio-0.5 block must match a plain run of the config (ed_ratio 0.5)
        cmd_run(config)
        same = read_results_csv(out / "results.csv", config.scenario)
        assert at[0.5] == without_wall_time(same)
        assert (out / "ratio_0_5" / "summary.json").read_bytes() == (
            out / "summary.json"
        ).read_bytes()

        # the ratio-0 block must match a plain run at ed_ratio 0
        plain_doc = base_config(tmp_path / "plain")
        plain_doc["scenario"]["ed_ratio"] = 0.0
        plain = parse_config(plain_doc)
        cmd_gen(plain)
        cmd_teachers(plain)
        cmd_run(plain)
        plain_rows = read_results_csv(tmp_path / "plain" / "results.csv", plain.scenario)
        assert at[0.0] == without_wall_time(plain_rows)
        assert (out / "ratio_0" / "summary.json").read_bytes() == (
            tmp_path / "plain" / "summary.json"
        ).read_bytes()

    def test_one_pool_serves_every_ratio(self, finished_run, tmp_path, monkeypatch):
        # The workers inherit every ratio's scenario and teacher logits
        # through the fork, so a task sends only its ratio's index, its
        # methods and its seed. The teacher passes before it run in this
        # process, one call per teacher.
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        original, calls = cdbench.cli._pool_map, []

        def recorded(fn, *columns, jobs):
            calls.append((columns, jobs))
            return original(fn, *columns, jobs=jobs)

        monkeypatch.setattr(cdbench.cli, "_pool_map", recorded)
        path = str(write_config(tmp_path, base_config(out)))
        assert main(["sweep", "--config", path, "--ratio", "0,0.5", "--jobs", "2"]) == 0
        assert len(calls) == 2
        (teachers,), jobs = calls[0]
        assert jobs == 1 and len(teachers) == 2
        columns, jobs = calls[1]
        group = (MethodConfig("kl"), MethodConfig("se2d"))
        assert jobs == 2
        assert list(zip(*columns)) == list(product(range(2), [group], (1, 2, 3)))

    def test_se2d_reuses_kl_without_external_rows(self, tmp_path, monkeypatch):
        # In the ratio-0 block se2d trains every task as kl does, so it runs
        # none; at 0.5 it shares kl's task 0 alone.
        config = parse_config(base_config(tmp_path / "out", sweep_ratios=[0.0, 0.5]))
        cmd_gen(config)
        cmd_teachers(config)
        original, calls = cdbench.engine.distill_task, []

        def recorded(*args, **kwargs):
            external = bool(args[2].external_mask.any())
            calls.append((external, args[3].method, kwargs["seed"], kwargs["task_index"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(cdbench.engine, "distill_task", recorded)
        cmd_sweep(config)
        seeds_tasks = list(product(config.run.seeds, range(config.scenario.n_teachers)))
        want = [(False, "kl", s, t) for s, t in seeds_tasks]
        want += [(True, "kl", s, t) for s, t in seeds_tasks]
        want += [(True, "se2d", s, t) for s, t in seeds_tasks if t > 0]
        assert sorted(calls) == sorted(want)

    def test_empty_ratio_list_rejected(self, tmp_path):
        config = parse_config(base_config(tmp_path / "out"))
        with pytest.raises(ConfigError):
            cmd_sweep(replace(config, sweep_ratios=()))

    def test_cli_ratio_flag_validation(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["sweep", "--config", str(path), "--ratio", "0.0,1.5"]) == 2

    @pytest.mark.parametrize("ratios", ["0,0.5,0.5", "0.12341,0.12342"])
    def test_cli_repeated_ratio_rejected(self, tmp_path, capsys, ratios):
        doc = base_config(tmp_path / "out")
        doc["run"].update({"epochs": 1, "seeds": [1], "teacher_epochs": 1})
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", str(path)]) == 0
        assert main(["teachers", "--config", str(path)]) == 0
        assert main(["sweep", "--config", str(path), "--ratio", ratios]) == 2
        assert "ratio_0_" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()
        assert not list((tmp_path / "out").glob("ratio_*"))


class TestAnalyze:
    def test_outputs_and_forgetting(self, finished_run):
        out, config = finished_run
        cmd_analyze(out)
        metrics = json.loads((out / "metrics.json").read_text())
        block = metrics["forgetting"]["0.5"]
        assert set(block) == {"kl", "se2d"}
        assert metrics["unseen_domains"] == [1, 2]
        curves = (out / "curves" / "accuracy_curves.csv").read_text().splitlines()
        # header + methods x seeds x domains x tasks
        assert len(curves) == 1 + 2 * 3 * 4 * 2

    def test_summary_and_metrics_print_one_forgetting(self, tmp_path):
        # Seeds listed out of order: both files average them in ascending
        # order, so dkd's mean no longer reads -0.09722222222222222 in one
        # and -0.09722222222222225 in the other.
        doc = json.loads((CONFIG_DIR / "quick.json").read_text())
        doc["methods"] = list(METHODS)
        doc["output_dir"] = str(tmp_path / "out")
        path = str(write_config(tmp_path, doc))
        for argv in (["gen"], ["teachers"], ["run", "--seeds", "2,3,1"]):
            assert main([*argv, "--config", path]) == 0
        assert main(["analyze", "--out", doc["output_dir"]]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        for method in METHODS:
            assert (
                summary["methods"][method]["average_forgetting"]
                == metrics["forgetting"]["0.5"][method]["average"]
            ), method

    def test_single_task_results_have_empty_forgetting(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["scenario"]["teacher_exclusive_domains"] = [[1]]
        config = parse_config(doc)
        cmd_gen(config)
        cmd_teachers(config)
        cmd_run(config)
        cmd_analyze(out)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["forgetting"]["0.5"] == {}

    def test_known_trajectory_hand_check(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        doc = base_config(out)
        # Three teachers, for the trajectory's three tasks, that know its
        # domains 0-3; domain 4 is the external one.
        doc["scenario"].update(
            n_domains=5, teacher_exclusive_domains=[[1], [2], [3]], external_domains=[4]
        )
        config = parse_config(doc)
        cmd_gen(config)
        lines = [",".join(RESULT_COLUMNS)]
        traj = {
            0: (0.6, 0.7, 0.5),
            1: (0.9, 0.8, 0.7),
            2: (0.2, 0.4, 0.3),
            3: (0.5, 0.5, 0.5),
            4: (0.4, 0.6, 0.5),
        }
        for task in range(3):
            for domain, accs in traj.items():
                lines.append(f"0.5,1,kl,{task},{task},{domain},{accs[task]},0.0")
        (out / "results.csv").write_text("\n".join(lines) + "\n")
        cmd_analyze(out)
        metrics = json.loads((out / "metrics.json").read_text())
        per_domain = metrics["forgetting"]["0.5"]["kl"]["per_domain"]
        assert per_domain["0"] == pytest.approx(0.2)
        assert per_domain["1"] == pytest.approx(0.2)
        assert per_domain["2"] == pytest.approx(0.1)
        assert per_domain["3"] == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "tasks, domains, cell",
        [
            pytest.param((0,), range(4), "task 1, domain 0", id="task-0-only"),
            pytest.param((0, 1), (0, 1, 3), "task 0, domain 2", id="no-domain-2"),
        ],
    )
    def test_rows_short_of_the_scenario_name_the_cell(
        self, tmp_path, capsys, tasks, domains, cell
    ):
        # The matrices take their shape from the manifest's scenario, which
        # has tasks 0 and 1 and domains 0 to 3, not from the rows.
        out = tmp_path / "out"
        cmd_gen(parse_config(base_config(out)))
        lines = [",".join(RESULT_COLUMNS)]
        lines += [f"0.5,1,kl,{t},{t},{d},0.5,0.0" for t, d in product(tasks, domains)]
        (out / "results.csv").write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(out / "results.csv") in err
        assert f"method kl, seed 1, {cell} at ed_ratio 0.5" in err

    def test_malformed_results_report_line(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        config = parse_config(base_config(out))
        cmd_gen(config)
        (out / "results.csv").write_text(
            f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,0,0,0,not_a_number,0\n"
        )
        with pytest.raises(FormatError, match="line 2"):
            cmd_analyze(out)

    @pytest.mark.parametrize("name", ["results.csv", "sweep.csv"])
    def test_missing_row_names_the_cell(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        cmd_gen(parse_config(base_config(out)))
        prefixes = ["0.0,", "0.5,"] if name == "sweep.csv" else ["0.5,"]
        lines = [",".join(RESULT_COLUMNS)]
        for prefix, seed, task, domain in product(prefixes, (1, 2), (0, 1), range(4)):
            if (prefix, seed, task, domain) != (prefixes[-1], 2, 1, 3):
                lines.append(f"{prefix}{seed},kl,{task},{task},{domain},0.5,0.0")
        (out / name).write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "method kl, seed 2, task 1, domain 3" in err
        assert name in err

    @pytest.mark.parametrize("name", ["results.csv", "sweep.csv"])
    def test_repeated_row_names_the_cell(self, tmp_path, capsys, name):
        # Every row of a one-seed grid, then each cell again at accuracy 0.
        out = tmp_path / "out"
        cmd_gen(parse_config(base_config(out)))
        cells = [f"0.5,1,kl,{t},{t},{d}" for t, d in product((0, 1), range(4))]
        lines = [",".join(RESULT_COLUMNS)]
        lines += [f"{cell},0.5,0.0" for cell in cells] + [f"{cell},0.0,0.0" for cell in cells]
        (out / name).write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "method kl, seed 1, task 0, domain 0" in err
        assert name in err

    def test_sweep_csv_is_checked_like_results(self, tmp_path):
        out = tmp_path / "out"
        cmd_gen(parse_config(base_config(out)))
        (out / "sweep.csv").write_text("ed_ratio,seed,method,task\n0.0,1,kl,0\n")
        with pytest.raises(FormatError, match="missing columns"):
            cmd_analyze(out)
        (out / "sweep.csv").write_text(",".join(RESULT_COLUMNS) + "\n")
        with pytest.raises(FormatError, match="no data rows"):
            cmd_analyze(out)

    def test_short_row_is_a_format_error(self, tmp_path):
        out = tmp_path / "out"
        cmd_gen(parse_config(base_config(out)))
        (out / "results.csv").write_text(f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,0,0,0\n")
        with pytest.raises(FormatError, match="line 2"):
            cmd_analyze(out)

    def test_missing_dir_is_usage_error(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "missing")]) == 2

    def test_malformed_results_exit_code(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        config = parse_config(base_config(out))
        cmd_gen(config)
        (out / "results.csv").write_text("seed,method\n1,kl\n")
        assert main(["analyze", "--out", str(out)]) == 3

    def test_results_without_ed_ratio_are_refused(self, tmp_path, capsys):
        # The format before every row carried its ed_ratio; `run` rewrites it.
        out = tmp_path / "out"
        cmd_gen(parse_config(base_config(out)))
        lines = [",".join(RESULT_COLUMNS[1:])]
        lines += [f"1,kl,{t},{t},{d},0.5,0.0" for t, d in product((0, 1), range(4))]
        (out / "results.csv").write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(out / "results.csv") in err
        assert "missing columns ['ed_ratio']" in err

    @pytest.mark.parametrize(
        "name, data, named",
        [
            pytest.param("results.csv", b"\xff", "UTF-8", id="results.csv-not-utf8"),
            pytest.param("sweep.csv", b"\xff", "UTF-8", id="sweep.csv-not-utf8"),
            *(
                pytest.param(
                    "results.csv",
                    f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,0,0,0,{acc},0.0\n".encode(),
                    "line 2",
                    id=f"accuracy-{acc}",
                )
                for acc in ("nan", "inf", "7.5", "-0.25")
            ),
            pytest.param(
                "results.csv",
                f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,0,0,0,0.5,{'0' * 200_000}\n".encode(),
                "line 2",
                id="field-over-csv-limit",
            ),
            *(
                pytest.param(
                    "sweep.csv",
                    f"{','.join(RESULT_COLUMNS)}\n{ratio},1,kl,0,0,0,0.5,0.0\n".encode(),
                    "line 2",
                    id=f"ed_ratio-{ratio}",
                )
                for ratio in ("nan", "inf", "7.5", "-0.1", "1.0")
            ),
            pytest.param(
                "results.csv",
                "\n".join(
                    [",".join(RESULT_COLUMNS)]
                    + [f"0.5,1,kl,{t},{t},{d},0.5,0.0" for t, d in product((0, 1), range(4))]
                    + ["0.5,1,kl,-1,0,0,0.5,0.0\n"]
                ).encode(),
                "line 10",
                id="task-below-0",
            ),
            pytest.param(
                "results.csv",
                f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,0,0,-1,0.5,0.0\n".encode(),
                "line 2",
                id="domain-below-0",
            ),
            # The manifest's scenario has domains 0 to 3 and tasks 0 and 1.
            pytest.param(
                "results.csv",
                (
                    f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,0,0,0,0.5,0.0\n0.5,1,kl,0,0,9,0.5,0.0\n"
                ).encode(),
                "line 3",
                id="domain-outside-scenario",
            ),
            pytest.param(
                "results.csv",
                f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,2,2,0,0.5,0.0\n".encode(),
                "line 2",
                id="task-outside-scenario",
            ),
            pytest.param(
                "results.csv",
                f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,0,7,0,0.5,0.0\n".encode(),
                "line 2",
                id="teacher-not-task",
            ),
            pytest.param(
                "sweep.csv",
                f"{','.join(RESULT_COLUMNS)}\n0.5,1,kl,1,0,0,0.5,0.0\n".encode(),
                "line 2",
                id="sweep-teacher-not-task",
            ),
        ],
    )
    def test_undecodable_or_out_of_range_results_are_data_errors(
        self, tmp_path, capsys, name, data, named
    ):
        out = tmp_path / "out"
        cmd_gen(parse_config(base_config(out)))
        (out / name).write_bytes(data)
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert name in err and named in err


@pytest.fixture(scope="module")
def eleven_teacher_run(tmp_path_factory):
    """A finished one-method, one-seed run whose 11 teachers sort differently as text."""
    out = tmp_path_factory.mktemp("eleven") / "out"
    doc = base_config(out, methods=["kl"])
    doc["scenario"].update(
        classes=2,
        feature_dim=4,
        n_domains=13,
        teacher_exclusive_domains=[[m] for m in range(1, 12)],
        external_domains=[12],
        samples_per_class=8,
    )
    doc["run"].update(
        epochs=1, seeds=[1], teacher_epochs=2, teacher_hidden=[8], student_hidden=[8]
    )
    config = parse_config(doc)
    cmd_gen(config)
    cmd_teachers(config)
    cmd_run(config)
    return out, config


class TestAnalyzeTeachers:
    def test_entropy_follows_teacher_index(self, eleven_teacher_run, tmp_path):
        src, config = eleven_teacher_run
        out = tmp_path / "out"
        shutil.copytree(src, out)
        # A checkpoint no teacher of the scenario owns is left alone.
        stale = init_mlp(99, [4, 8, 2])
        (out / "checkpoints" / "teacher_11.ckpt").write_bytes(serialize_model(stale))
        cmd_analyze(out)
        entropy = json.loads((out / "metrics.json").read_text())["entropy"]
        assert [(r["teacher"], r["domain"]) for r in entropy] == list(
            product(range(11), range(13))
        )
        model = deserialize_model((out / "checkpoints" / "teacher_2.ckpt").read_bytes())
        scenario = build_scenario(config.scenario)
        for record in entropy[2 * 13 : 3 * 13]:
            logits = frozen_logits(model, scenario.test_sets[record["domain"]].features, 10**6)
            profile = entropy_histogram(logits, 1.0, 20)
            # metrics.json prints both statistics at 10 significant digits.
            assert record["mean_entropy"] == float(f"{profile.mean:.10g}")
            assert record["kurtosis"] == float(f"{profile.kurtosis:.10g}")
            assert record["histogram"]["counts"] == profile.counts.tolist()

    def test_missing_checkpoint_is_named(self, eleven_teacher_run, tmp_path, capsys):
        src, _ = eleven_teacher_run
        out = tmp_path / "out"
        shutil.copytree(src, out)
        (out / "checkpoints" / "teacher_5.ckpt").unlink()
        assert main(["analyze", "--out", str(out)]) == 2
        assert "teacher_5.ckpt" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    def test_no_checkpoint_dir_gives_empty_entropy(self, eleven_teacher_run, tmp_path):
        src, _ = eleven_teacher_run
        out = tmp_path / "out"
        shutil.copytree(src, out)
        shutil.rmtree(out / "checkpoints")
        cmd_analyze(out)
        assert json.loads((out / "metrics.json").read_text())["entropy"] == []


class TestSingleScenarioPath:
    @pytest.mark.usefixtures("serial_teachers")
    def test_each_stage_generates_each_domain_once(self, tmp_path, monkeypatch):
        original = cdbench.domains.generate_domain
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for module in (cdbench.domains, cdbench.benchmark, cdbench.cli):
            monkeypatch.setattr(module, "generate_domain", counted, raising=False)
        doc = base_config(tmp_path / "out")
        doc["run"].update(epochs=1, teacher_epochs=2, seeds=[1])
        path = str(write_config(tmp_path, doc))
        stages = {
            "gen": ["gen", "--config", path],
            "teachers": ["teachers", "--config", path],
            "run": ["run", "--config", path],
            "analyze": ["analyze", "--out", str(tmp_path / "out")],
            "sweep": ["sweep", "--config", path, "--ratio", "0,0.5"],
        }
        counts = {}
        for stage, argv in stages.items():
            calls.clear()
            assert main(argv) == 0
            counts[stage] = len(calls)
        n = doc["scenario"]["n_domains"]
        # teachers generates every domain for its report, then each teacher's
        # shared and own domain again for its training rows.
        assert counts == {"gen": n, "teachers": n + 2 * 2, "run": n, "analyze": n, "sweep": n}

    def test_only_gen_and_run_mix_the_distillation_set(self, tmp_path, monkeypatch):
        # teachers and analyze read the domains alone; gen and run mix the
        # set, so both still refuse an empty one.
        doc = base_config(tmp_path / "out")
        doc["run"].update(epochs=1, teacher_epochs=2, seeds=[1])
        config = parse_config(doc)
        cmd_gen(config)

        def refused(*args):
            raise AssertionError("the mixing rule was called")

        def empty(*args):
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)

        monkeypatch.setattr(cdbench.domains, "_mix_selection", refused)
        cmd_teachers(config)
        monkeypatch.setattr(cdbench.domains, "_mix_selection", empty)
        for stage in (cmd_gen, cmd_run):
            with pytest.raises(InvalidArgumentError, match="empty distillation set"):
                stage(config)
        monkeypatch.undo()
        cmd_run(config)
        monkeypatch.setattr(cdbench.domains, "_mix_selection", refused)
        cmd_analyze(config.output_dir)

    def test_library_teachers_match_cli_checkpoints(self, finished_run):
        out, config = finished_run
        spec = config.scenario
        teachers = [train_benchmark_teacher(spec, config.run, t) for t in range(spec.n_teachers)]
        assert len(teachers) == spec.n_teachers
        for t, teacher in enumerate(teachers):
            ckpt = out / "checkpoints" / f"teacher_{t}.ckpt"
            assert serialize_model(teacher) == ckpt.read_bytes()


class TestEndToEndDeterminism:
    def test_full_pipeline_reruns_byte_identical(self, tmp_path):
        # elapsed_seconds carries wall-clock time and is excluded; every
        # other byte of every artifact must match between reruns
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            doc = base_config(out)
            doc["run"]["seeds"] = [1, 2]
            config = parse_config(doc)
            cmd_gen(config)
            cmd_teachers(config)
            cmd_run(config)
            cmd_analyze(out)
            sweep = replace(config, output_dir=out / "sweep", sweep_ratios=(0.0, 0.5))
            cmd_gen(sweep)
            cmd_teachers(sweep)
            cmd_sweep(sweep)
            cmd_analyze(sweep.output_dir)
            snapshot = {}
            for p in sorted(out.rglob("*")):
                if not p.is_file():
                    continue
                data = p.read_bytes()
                if p.name in ("results.csv", "sweep.csv"):
                    rows = data.decode().splitlines()
                    data = "\n".join(",".join(r.split(",")[:-1]) for r in rows).encode()
                snapshot[str(p.relative_to(out))] = data
            outputs.append(snapshot)
        assert outputs[0].keys() == outputs[1].keys()
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between reruns"


def test_cli_import_leaves_out_the_pool_modules():
    # Only `teachers`, and `run` and `sweep` with --jobs above 1, start a
    # pool; the digest test checks that such a run writes what --jobs 1 does.
    code = (
        "import sys, cdbench.cli;"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        capture_output=True,
        text=True,
    )
    assert done.stdout.strip() == "[]"


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    config = load_config(path)
    assert config.output_dir == tmp_path / "out"
    assert config.scenario.n_domains == 4
