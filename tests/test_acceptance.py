"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line with the measured quantities (run with `pytest -s` to see the
lines for passing criteria as well)."""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from cdbench import (
    AccuracyMatrix,
    LabeledSet,
    MethodConfig,
    ScenarioSpec,
    average_forgetting,
    backward,
    build_scenario,
    cross_entropy,
    dkd_loss,
    entropy_histogram,
    evaluate,
    forgetting,
    forward,
    generate_domain,
    init_mlp,
    kl_kd_loss,
    kurtosis,
    load_checkpoint,
    ls_kd_loss,
    mds_filter,
    new_student,
    run_sequence,
    save_checkpoint,
    se2d_loss,
    self_distill_loss,
    softmax_t,
    train_teacher,
)
from cdbench.benchmark import train_benchmark_teachers
from cdbench.cli import (
    _accuracy_matrices,
    cmd_analyze,
    cmd_gen,
    cmd_run,
    cmd_teachers,
    load_config,
    parse_config,
    run_grid,
)
from cdbench.distill import teacher_entropy

from conftest import max_relative_error

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"
KNOWN_DOMAINS = (0, 1, 2, 3)
UNSEEN_DOMAINS = (1, 2, 3)


def params_equal(a, b):
    return all(
        np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


@pytest.fixture(scope="module")
def benchmark_config():
    return load_config(BENCHMARK_CONFIG)


@pytest.fixture(scope="module")
def benchmark_runs(benchmark_config):
    """The shipped config's teachers, then its grid through run_grid: kl at
    every sweep ratio and se2d at ratio 0.5, every configured seed."""
    start = time.perf_counter()
    config = benchmark_config
    spec = config.scenario
    teachers = train_benchmark_teachers(spec, config.run)
    matrices: dict[tuple, AccuracyMatrix] = {}
    for ratio in config.sweep_ratios:
        names = ("kl", "se2d") if ratio == 0.5 else ("kl",)
        grid = replace(
            config,
            scenario=replace(config.scenario, ed_ratio=ratio),
            methods=tuple(m for m in config.methods if m.method in names),
        )
        rows, _ = run_grid(grid, teachers)
        for (method, seed), matrix in _accuracy_matrices(rows, f"ratio {ratio}").items():
            matrices[method, ratio, seed] = matrix
    elapsed = time.perf_counter() - start
    return {
        "teachers": teachers,
        "matrices": matrices,
        "ratios": config.sweep_ratios,
        "seeds": config.run.seeds,
        "elapsed": elapsed,
    }


def mean_unseen_final(runs, method, ratio):
    return float(
        np.mean(
            [
                [runs["matrices"][(method, ratio, s)].final(d) for d in UNSEEN_DOMAINS]
                for s in runs["seeds"]
            ]
        )
    )


def test_criterion_1_gradient_suite():
    """Analytic gradients of every loss match central finite differences
    through 3-layer networks, max relative error < 1e-4, in under 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    h = 1e-5

    def network_gradient_check(loss_of_logits, model, x):
        logits, cache = forward(model, x)
        loss, dlogits = loss_of_logits(logits)
        grads = model.layer_views(backward(model, cache, dlogits))
        worst = 0.0
        for k, layer in enumerate(model.layers):
            for arr, grad in ((layer.weight, grads[k][0]), (layer.bias, grads[k][1])):
                it = np.nditer(arr, flags=["multi_index"])
                numeric = np.zeros_like(arr)
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + h
                    up = loss_of_logits(forward(model, x)[0])[0]
                    arr[idx] = old - h
                    down = loss_of_logits(forward(model, x)[0])[0]
                    arr[idx] = old
                    numeric[idx] = (up - down) / (2 * h)
                worst = max(worst, max_relative_error(grad, numeric))
        return worst

    worst = 0.0
    for trial in range(3):
        b = int(rng.integers(2, 5))
        c = int(rng.integers(3, 6))
        temp = float(rng.choice([1.0, 3.0, 10.0]))
        model = init_mlp(int(rng.integers(0, 1 << 30)), [4, 8, 8, c])
        x = rng.normal(size=(b, 4))
        teacher = rng.normal(0, 2, size=(b, c))
        prev = rng.normal(0, 2, size=(b, c))
        labels = rng.integers(0, c, size=b)
        external = np.arange(b) >= b // 2
        keep = mds_filter(teacher_entropy(teacher, temp), 0.25, 0.75)

        def masked_kl(logits):
            kept = kl_kd_loss(logits[keep], teacher[keep], temp)
            dlogits = np.zeros_like(logits)
            dlogits[keep] = kept.dlogits
            return kept.loss, dlogits

        cases = {
            "cross_entropy": lambda z: cross_entropy(z, labels),
            "kl": lambda z: (lambda r: (r.loss, r.dlogits))(kl_kd_loss(z, teacher, temp)),
            "ls": lambda z: (lambda r: (r.loss, r.dlogits))(ls_kd_loss(z, teacher, temp)),
            "dkd": lambda z: (lambda r: (r.loss, r.dlogits))(
                dkd_loss(z, teacher, temp, 1.0, 8.0)
            ),
            "mds": masked_kl,
            "se2d": lambda z: (lambda r: (r.loss, r.dlogits))(
                se2d_loss(z, teacher, prev[external], external, temp)
            ),
            "self_distill": lambda z: (lambda r: (r.loss, r.dlogits))(
                self_distill_loss(z, teacher, prev, temp)
            ),
        }
        for name, fn in cases.items():
            err = network_gradient_check(fn, model, x)
            assert err < 1e-4, f"{name} gradient error {err:.2e} (trial {trial})"
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    print(f"PASS criterion 1: gradient suite, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_loss_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = rng.normal(0, 3, size=(rng.integers(1, 5), rng.integers(2, 6)))
        for temp in (1.0, 4.0, 10.0):
            assert kl_kd_loss(z, z.copy(), temp).loss == 0.0

    worst = 0.0
    for _ in range(100):
        b, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        zs = rng.normal(0, 2, size=(b, c))
        zt = rng.normal(0, 2, size=(b, c))
        temp = float(rng.choice([1.0, 2.0, 4.0, 10.0]))
        p = softmax_t(zt, temp)
        beta = 1.0 - p[np.arange(b), np.argmax(zt, axis=1)]
        gap = abs(dkd_loss(zs, zt, temp, 1.0, beta).loss - kl_kd_loss(zs, zt, temp).loss)
        assert gap < 1e-9
        worst = max(worst, gap)

    zs = rng.normal(size=(4, 3))
    zt = rng.normal(size=(4, 3))
    empty = np.zeros((0, 3))
    res = se2d_loss(zs, zt, empty, np.zeros(4, dtype=bool), 4.0)
    ref = kl_kd_loss(zs, zt, 4.0)
    assert res.loss == ref.loss and np.array_equal(res.dlogits, ref.dlogits)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: loss identities, worst dkd gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_unseen_knowledge_transfer(benchmark_runs):
    """Distilling with external data must lift mean unseen-domain accuracy by
    at least 10 points over internal-only distillation."""
    assert benchmark_runs["elapsed"] < 300.0, "benchmark grid exceeded the 5-minute budget"
    with_ed = mean_unseen_final(benchmark_runs, "kl", 0.5)
    without = mean_unseen_final(benchmark_runs, "kl", 0.0)
    gain = with_ed - without
    assert gain >= 0.10, f"UKT gain {gain:.3f} below 0.10"
    print(
        f"PASS criterion 3: UKT gain {gain:+.3f} "
        f"(with ED {with_ed:.3f} vs without {without:.3f}), grid {benchmark_runs['elapsed']:.0f}s"
    )


def test_benchmark_teachers_meet_their_floor(benchmark_config, benchmark_runs):
    """Every teacher the grid distills reaches the config's floor on each of its own domains."""
    spec = benchmark_config.scenario
    test_sets = build_scenario(spec).test_sets
    floor = benchmark_config.run.teacher_accuracy_floor
    for t, teacher in enumerate(benchmark_runs["teachers"]):
        in_domain = min(evaluate(teacher, test_sets[d]) for d in spec.teacher_domain_ids(t))
        assert in_domain >= floor, f"teacher {t}: in-domain {in_domain:.3f} below {floor}"


def test_criterion_4_ratio_trend(benchmark_runs):
    ratios = benchmark_runs["ratios"]
    means = [mean_unseen_final(benchmark_runs, "kl", r) for r in ratios]
    rho = float(spearmanr(ratios, means).statistic)
    assert rho > 0.0, f"Spearman {rho:.3f} not positive (means {means})"
    print(f"PASS criterion 4: ratio trend {[round(m, 3) for m in means]}, Spearman {rho:+.2f}")


def test_criterion_5_forgetting_exists(benchmark_runs):
    seeds = benchmark_runs["seeds"]
    values = [
        average_forgetting(benchmark_runs["matrices"][("kl", 0.5, s)], domains=KNOWN_DOMAINS)
        for s in seeds
    ]
    mean_f = float(np.mean(values))
    assert mean_f >= 0.05, f"average forgetting {mean_f:.3f} below the 5-point margin"
    # the first teacher's domain ends lower than right after its own task
    d1_drop = float(
        np.mean(
            [
                benchmark_runs["matrices"][("kl", 0.5, s)].row(1)[0]
                - benchmark_runs["matrices"][("kl", 0.5, s)].final(1)
                for s in seeds
            ]
        )
    )
    assert d1_drop > 0.0, f"domain 1 did not lose accuracy over the sequence ({d1_drop:+.3f})"
    print(
        f"PASS criterion 5: kl average forgetting {mean_f:+.3f} "
        f"(per seed {np.round(values, 3)}), domain-1 drop {d1_drop:+.3f}"
    )


def test_criterion_6_se2d_ordering(benchmark_runs):
    mats = benchmark_runs["matrices"]
    seeds = benchmark_runs["seeds"]
    f_kl = np.mean(
        [average_forgetting(mats[("kl", 0.5, s)], domains=KNOWN_DOMAINS) for s in seeds]
    )
    f_se = np.mean(
        [average_forgetting(mats[("se2d", 0.5, s)], domains=KNOWN_DOMAINS) for s in seeds]
    )
    acc_kl = np.mean(
        [[mats[("kl", 0.5, s)].final(d) for d in KNOWN_DOMAINS] for s in seeds]
    )
    acc_se = np.mean(
        [[mats[("se2d", 0.5, s)].final(d) for d in KNOWN_DOMAINS] for s in seeds]
    )
    assert f_se < f_kl, f"se2d forgetting {f_se:.3f} not below kl {f_kl:.3f}"
    assert acc_se >= acc_kl, f"se2d known-domain accuracy {acc_se:.3f} below kl {acc_kl:.3f}"
    d1_se = np.mean([mats[("se2d", 0.5, s)].final(1) for s in seeds])
    d1_kl = np.mean([mats[("kl", 0.5, s)].final(1) for s in seeds])
    assert d1_se > d1_kl, f"se2d final domain-1 accuracy {d1_se:.3f} not above kl {d1_kl:.3f}"
    print(
        f"PASS criterion 6: forgetting se2d {f_se:+.3f} < kl {f_kl:+.3f}; "
        f"known-domain accuracy se2d {acc_se:.3f} >= kl {acc_kl:.3f}; "
        f"domain-1 final se2d {d1_se:.3f} > kl {d1_kl:.3f}"
    )


def test_criterion_7_scope_identity_with_empty_internal(benchmark_config):
    spec = ScenarioSpec(
        n_classes=4,
        feature_dim=8,
        n_domains=5,
        shared_domains=(),
        teacher_exclusive_domains=((1,), (2,), (3,)),
        external_domains=(4,),
        ed_ratio=0.0,
        samples_per_class=100,
        seed=5,
    )
    scenario = build_scenario(spec)
    assert scenario.distill_set.external_mask.all()
    assert len(scenario.distill_set) == len(scenario.domains[4].train)
    config = replace(benchmark_config.run, epochs=4, teacher_epochs=30, teacher_hidden=(32, 32))
    teachers = [
        train_teacher(
            LabeledSet.concat([scenario.domains[m].train for m in spec.teacher_domain_ids(t)]),
            config,
            seed=50 + t,
        )
        for t in range(3)
    ]
    outcomes = {}
    for method in ("se2d", "self_distill"):
        student = new_student(8, 4, config, 3)
        logs = run_sequence(
            student,
            iter(teachers),
            scenario,
            MethodConfig(method),
            config,
            seed=3,
        )
        outcomes[method] = (student, [l.accuracies for l in logs], [l.epoch_losses for l in logs])
    assert params_equal(outcomes["se2d"][0], outcomes["self_distill"][0])
    assert outcomes["se2d"][1:] == outcomes["self_distill"][1:]
    print("PASS criterion 7: se2d and self_distill coincide bit-for-bit with empty internal data")


def test_criterion_8_forgetting_bruteforce_oracle():
    start = time.perf_counter()
    grid = np.round(np.arange(0.0, 1.0001, 0.1), 1)
    total = 0
    for length in range(2, 6):
        mesh = np.meshgrid(*([grid] * length), indexing="ij")
        values = np.stack([m.ravel() for m in mesh], axis=1)
        ids = tuple(range(values.shape[0]))
        m = AccuracyMatrix(ids, values)
        t = length - 1
        impl = np.array([forgetting(m, d, t) for d in ids])
        oracle = values[:, :t].max(axis=1) - values[:, t]
        assert np.array_equal(impl, oracle)
        # independent scalar max-scan on a sample of trajectories
        rng = np.random.default_rng(length)
        for d in rng.integers(0, len(ids), size=100):
            best = -np.inf
            for i in range(t):
                if values[d, i] > best:
                    best = values[d, i]
            assert impl[d] == best - values[d, t]
        total += len(ids)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"
    print(f"PASS criterion 8: {total} trajectories matched in {elapsed:.2f}s")


def test_criterion_9_entropy_and_kurtosis(benchmark_config, benchmark_runs):
    # Domains and their test sets do not depend on ed_ratio.
    spec = benchmark_config.scenario
    scenario = build_scenario(spec)
    gaps = []
    for t, teacher in enumerate(benchmark_runs["teachers"]):
        own = [
            entropy_histogram(teacher, scenario.test_sets[d].features, 1.0, 20).mean
            for d in spec.teacher_domain_ids(t)
        ]
        unrelated = generate_domain(t + 1, 9, 4, 8, 200, relation="unrelated")
        far = entropy_histogram(teacher, unrelated.test.features, 1.0, 20).mean
        assert far > float(np.mean(own)), (
            f"teacher {t}: unrelated entropy {far:.3f} not above own {np.mean(own):.3f}"
        )
        gaps.append(far - float(np.mean(own)))
    draws = np.random.default_rng(99).standard_normal(100_000)
    k = kurtosis(draws)
    assert abs(k - 3.0) <= 0.1
    print(
        f"PASS criterion 9: entropy gaps {np.round(gaps, 3)} all positive; "
        f"normal kurtosis {k:.3f}"
    )


def test_criterion_10_determinism_and_round_trips(tmp_path):
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
            "seed": 9,
            "external_relation": "related",
        },
        "methods": ["kl", "se2d"],
        "run": {
            "epochs": 2,
            "batch_size": 16,
            "learning_rate": 0.01,
            "temperature": 3.0,
            "seeds": [1, 2],
            "teacher_epochs": 15,
            "teacher_hidden": [16, 16],
            "student_hidden": [16, 16],
        },
        "output_dir": "",
    }
    snapshots = []
    for name in ("first", "second"):
        out = tmp_path / name
        doc["output_dir"] = str(out)
        config = parse_config(doc)
        cmd_gen(config)
        cmd_teachers(config)
        cmd_run(config)
        cmd_analyze(out)
        snap = {}
        for p in sorted(out.rglob("*")):
            if not p.is_file():
                continue
            data = p.read_bytes()
            if p.name == "results.csv":
                # elapsed_seconds is wall-clock metadata and excluded from
                # the byte comparison; all other columns and files compare raw
                lines = data.decode().splitlines()
                data = "\n".join(",".join(l.split(",")[:-1]) for l in lines).encode()
            snap[str(p.relative_to(out))] = data
        snapshots.append(snap)
    assert snapshots[0].keys() == snapshots[1].keys()
    diffs = [k for k in snapshots[0] if snapshots[0][k] != snapshots[1][k]]
    assert not diffs, f"non-deterministic artifacts: {diffs}"

    model = init_mlp(77, [6, 16, 3])
    ckpt = tmp_path / "round.ckpt"
    save_checkpoint(model, ckpt)
    loaded = load_checkpoint(ckpt)
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(a.weight.astype(np.float32).astype(float), b.weight)
        assert np.array_equal(a.bias.astype(np.float32).astype(float), b.bias)
    save_checkpoint(loaded, ckpt)
    again = load_checkpoint(ckpt)
    assert params_equal(loaded, again)
    print(f"PASS criterion 10: {len(snapshots[0])} artifacts byte-identical; round-trips lossless")
