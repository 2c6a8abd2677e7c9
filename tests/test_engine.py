import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdbench import engine
from cdbench import (
    DivergenceError,
    FormatError,
    InvalidArgumentError,
    MethodConfig,
    RunConfig,
    ScenarioSpec,
    build_scenario,
    distill_task,
    evaluate,
    generate_domain,
    new_student,
    run_sequence,
    train_teacher,
)
from cdbench.distill import (
    METHODS,
    dkd_loss,
    kl_kd_loss,
    ls_kd_loss,
    mds_filter,
    se2d_loss,
    self_distill_loss,
    teacher_entropy,
)
from cdbench.domains import LabeledSet, balance_pair_stream
from cdbench.engine import deserialize_model, frozen_logits, serialize_model
from cdbench.nn_core import (
    Layer,
    MlpModel,
    backward,
    forward,
    init_mlp,
    make_optimizer,
    optimizer_step,
)

from conftest import traced_peak


def model_params_equal(a, b):
    return all(
        np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


@pytest.fixture(scope="module")
def tiny_scenario():
    spec = ScenarioSpec(
        n_classes=3,
        feature_dim=6,
        n_domains=4,
        shared_domains=(0,),
        teacher_exclusive_domains=((1,), (2,)),
        external_domains=(3,),
        ed_ratio=0.5,
        samples_per_class=30,
        seed=11,
    )
    return build_scenario(spec)


@pytest.fixture(scope="module")
def tiny_config():
    return RunConfig(
        epochs=3,
        batch_size=16,
        learning_rate=0.01,
        temperature=3.0,
        teacher_epochs=30,
        teacher_hidden=(16, 16),
        student_hidden=(16, 16),
    )


def per_batch_distill(student, teacher, distill_set, method, config, seed, prev_student):
    """Reference for distill_task (task 0): forwards the frozen models on every
    batch and calls the public losses on their logits."""
    features, ext = distill_set.features, distill_set.external_mask
    internal, external = features[~ext], features[ext]
    t = config.temperature
    opt = make_optimizer(student, config.optimizer, config.learning_rate)
    paired = method.method == "se2d" and prev_student is not None and len(internal) and len(external)
    losses = []
    for epoch in range(config.epochs):
        shuffle_seed = [engine._SEED_SHUFFLE, seed, 0, epoch]
        if paired:
            batches = [
                (internal[i], external[e])
                for i, e in balance_pair_stream(len(internal), len(external), config.batch_size, shuffle_seed)
            ]
        else:
            order = np.random.default_rng(shuffle_seed).permutation(len(features))
            batches = [
                (features[order[s : s + config.batch_size]], None)
                for s in range(0, len(order), config.batch_size)
            ]
        for x, x_ext in batches:
            x_all = x if x_ext is None else np.concatenate([x, x_ext])
            zt, _ = forward(teacher, x_all)
            zs, cache = forward(student, x_all)
            if paired:
                zp, _ = forward(prev_student, x_ext)
                res = se2d_loss(zs, zt, zp, np.arange(len(x_all)) >= len(x), t)
                loss, dlogits = res.loss, res.dlogits
            elif method.method == "ls":
                res = ls_kd_loss(zs, zt, t)
                loss, dlogits = res.loss, res.dlogits
            elif method.method == "dkd":
                res = dkd_loss(zs, zt, t, config.dkd_alpha, config.dkd_beta)
                loss, dlogits = res.loss, res.dlogits
            elif method.method == "mds":
                keep = mds_filter(teacher_entropy(zt, t), config.mds_low_q, config.mds_high_q)
                res = kl_kd_loss(zs[keep], zt[keep], t)
                loss, dlogits = res.loss, np.zeros_like(zs)
                dlogits[keep] = res.dlogits
            elif prev_student is not None and method.method == "self_distill":
                res = self_distill_loss(zs, zt, forward(prev_student, x_all)[0], t)
                loss, dlogits = res.loss, res.dlogits
            else:
                res = kl_kd_loss(zs, zt, t)
                loss, dlogits = res.loss, res.dlogits
            student, opt = optimizer_step(student, backward(student, cache, dlogits), opt)
            losses.append(loss)
    return student, losses


def logits_of(teacher, distill_set, config):
    """The teacher's logits over the set, from a pass as the grid makes it."""
    return frozen_logits(teacher, distill_set.features, config.batch_size)


@pytest.fixture(scope="module")
def tiny_teachers(tiny_scenario, tiny_config):
    spec = tiny_scenario.spec
    out = []
    for t in range(spec.n_teachers):
        datasets = [
            generate_domain(spec.seed, m, spec.n_classes, spec.feature_dim, spec.samples_per_class)
            for m in spec.teacher_domain_ids(t)
        ]
        train = LabeledSet.concat([ds.train for ds in datasets])
        out.append(train_teacher(train, tiny_config, seed=100 + t))
    return out


class TestTrainTeacher:
    def test_single_domain_reaches_floor(self, desk_config):
        ds = generate_domain(7, 0, 4, 8, 100)
        teacher = train_teacher(ds.train, desk_config, seed=1)
        assert evaluate(teacher, ds.test) >= 0.90

    def test_near_chance_on_unrelated_domain(self, desk_config):
        datasets = [generate_domain(7, 0, 4, 8, 100), generate_domain(7, 1, 4, 8, 100)]
        train = LabeledSet.concat([ds.train for ds in datasets])
        teacher = train_teacher(train, desk_config, seed=1)
        unrelated = generate_domain(7, 9, 4, 8, 100, relation="unrelated")
        assert evaluate(teacher, unrelated.test) <= 0.25 + 0.15

    def test_zero_epochs_returns_initialization(self, tiny_config):
        cfg = RunConfig(
            epochs=1,
            batch_size=16,
            learning_rate=0.01,
            teacher_epochs=0,
            teacher_hidden=(8,),
            student_hidden=(8,),
        )
        ds = generate_domain(3, 0, 3, 6, 10)
        teacher = train_teacher(ds.train, cfg, seed=5)
        # untouched initialization: zero biases and fan-in-bounded weights
        assert all(np.all(l.bias == 0.0) for l in teacher.layers)
        again = train_teacher(ds.train, cfg, seed=5)
        assert model_params_equal(teacher, again)

    def test_empty_training_set_rejected(self, tiny_config):
        with pytest.raises(InvalidArgumentError):
            train_teacher(LabeledSet(np.zeros((0, 6)), np.zeros(0, dtype=int)), tiny_config)

    def test_deterministic(self, tiny_config):
        ds = generate_domain(3, 0, 3, 6, 12)
        a = train_teacher(ds.train, tiny_config, seed=2)
        b = train_teacher(ds.train, tiny_config, seed=2)
        assert model_params_equal(a, b)

    def test_epoch_holds_one_row_buffer_per_hidden_layer(self):
        # Adam at 32-512-512-10, batch 256. The peak may hold five vectors of
        # the parameters' size (the model, both moments, the scratch vector
        # and the gradient) and one 256 x 512 buffer per hidden layer. The
        # 1 MiB of slack covers one batch, the rectifier's mask and the
        # loss's temporaries; the training rows are read in place.
        dims = [32, 512, 512, 10]
        rng = np.random.default_rng(39)
        train = LabeledSet(rng.normal(size=(512, 32)), rng.integers(0, 10, 512))
        config = RunConfig(batch_size=256, teacher_epochs=1, teacher_hidden=(512, 512))
        peak = traced_peak(
            lambda: train_teacher(train, config, seed=39, n_classes=10)
        )
        vector = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
        assert peak <= 5 * vector + 2 * 256 * 512 * 8 + 2**20


class TestRunConfig:
    # The JSON config path stops non-finite numbers before RunConfig sees them.
    @pytest.mark.parametrize("field", ["learning_rate", "temperature", "teacher_learning_rate"])
    def test_nan_rejected(self, field):
        with pytest.raises(InvalidArgumentError, match=field):
            RunConfig(**{field: float("nan")})

    def test_bad_temperature(self):
        with pytest.raises(InvalidArgumentError):
            RunConfig(temperature=0.0)

    @pytest.mark.parametrize("field", ["learning_rate", "temperature", "teacher_learning_rate"])
    def test_infinity_rejected(self, field):
        with pytest.raises(InvalidArgumentError, match=field):
            RunConfig(**{field: float("inf")})

    def test_floor_must_lie_in_unit_interval(self):
        # The floors that configs, tests and perfbench set, and the default.
        for floor in (0.0, 0.5, 0.75, 0.8, 0.9):
            RunConfig(teacher_accuracy_floor=floor)
        for floor in (float("nan"), 1.5, -0.2):
            with pytest.raises(InvalidArgumentError, match="teacher_accuracy_floor"):
                RunConfig(teacher_accuracy_floor=floor)


class TestDistillTask:
    def test_student_equal_to_teacher_has_zero_loss(self, tiny_scenario, tiny_config):
        spec = tiny_scenario.spec
        teacher = init_mlp(4, [spec.feature_dim, 16, 16, spec.n_classes])
        student = teacher.copy()
        ds = tiny_scenario.distill_set
        student, log = distill_task(
            student, logits_of(teacher, ds, tiny_config), ds, MethodConfig("kl"),
            tiny_config, task_index=0, seed=0,
        )
        assert log.epoch_losses[0] == 0.0
        assert model_params_equal(student, teacher)

    def test_student_approaches_teacher_on_distill_domains(self, tiny_scenario, tiny_config, tiny_teachers):
        cfg = RunConfig(
            epochs=40,
            batch_size=16,
            learning_rate=0.01,
            temperature=3.0,
            teacher_hidden=(16, 16),
            student_hidden=(16, 16),
        )
        teacher = tiny_teachers[0]
        student = new_student(6, 3, cfg, seed=3)
        ds = tiny_scenario.distill_set
        student, _ = distill_task(
            student, logits_of(teacher, ds, cfg), ds, MethodConfig("kl"),
            cfg, task_index=0, seed=3,
        )
        # shared domain 0 is the teacher-known domain present in the distillation set
        gap = evaluate(teacher, tiny_scenario.test_sets[0]) - evaluate(
            student, tiny_scenario.test_sets[0]
        )
        assert gap <= 0.03

    def test_mds_full_band_matches_kl(self, tiny_scenario, tiny_config, tiny_teachers):
        config = replace(tiny_config, mds_low_q=0.0, mds_high_q=1.0)
        results = []
        for method in (MethodConfig("kl"), MethodConfig("mds")):
            student = new_student(6, 3, config, seed=4)
            ds = tiny_scenario.distill_set
            student, log = distill_task(
                student, logits_of(tiny_teachers[0], ds, config), ds, method,
                config, task_index=0, seed=4,
            )
            results.append((student, log.epoch_losses))
        assert results[0][1] == results[1][1]
        assert model_params_equal(results[0][0], results[1][0])

    def test_class_count_mismatch_rejected(self, tiny_scenario, tiny_config):
        teacher = init_mlp(0, [6, 8, 5])
        student = init_mlp(1, [6, 8, 3])
        ds = tiny_scenario.distill_set
        with pytest.raises(InvalidArgumentError, match="student has 3 classes"):
            distill_task(
                student, logits_of(teacher, ds, tiny_config), ds,
                MethodConfig("kl"), tiny_config,
            )

    def test_logits_of_another_set_rejected(self, tiny_scenario, tiny_config, tiny_teachers):
        # Teacher logits line up with the set's rows; one row short is refused.
        ds = tiny_scenario.distill_set
        logits = logits_of(tiny_teachers[0], ds, tiny_config)[1:]
        with pytest.raises(InvalidArgumentError, match=f"{len(ds) - 1} rows"):
            distill_task(
                new_student(6, 3, tiny_config, seed=1), logits, ds,
                MethodConfig("kl"), tiny_config,
            )

    # An ls first batch at two classes can reach 1e-15 (see the CLI's ls test).
    @pytest.mark.parametrize(
        "first_loss, share, diverged",
        [(7.91e-16, 0.99, False), (7.91e-16, 1.01, True), (1.5, 0.99, False), (1.5, 1.01, True)],
    )
    def test_divergence_limit_has_a_floor(self, first_loss, share, diverged):
        # The limit is DIVERGENCE_FACTOR times the first-batch loss or the floor, the larger.
        limit = engine.DIVERGENCE_FACTOR * max(first_loss, engine.DIVERGENCE_LOSS_FLOOR)
        model = init_mlp(0, [2, 4, 2])
        if diverged:
            with pytest.raises(DivergenceError, match="^here diverged"):
                engine._check_epoch(model, share * limit, first_loss, "here")
        else:
            engine._check_epoch(model, share * limit, first_loss, "here")

    # +-1e39 is finite in float64 but not in float32; NaN makes the loss NaN too.
    @pytest.mark.parametrize("value", [1e39, float("nan"), -1e39])
    def test_diverged_student_raises(self, value, tiny_scenario, tiny_config, tiny_teachers):
        student = new_student(6, 3, tiny_config, seed=2)
        student.layers[-1].bias[0] = value
        ds = tiny_scenario.distill_set
        with pytest.raises(DivergenceError, match="method kl, seed 2, task 4, epoch 0"):
            distill_task(
                student, logits_of(tiny_teachers[0], ds, tiny_config), ds, MethodConfig("kl"),
                tiny_config, task_index=4, seed=2,
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_frozen_targets_match_per_batch_forwards(
        self, method, tiny_scenario, tiny_config, tiny_teachers
    ):
        cfg = RunConfig(**{**tiny_config.__dict__, "epochs": 2})
        prev = new_student(6, 3, cfg, seed=5)
        mc = MethodConfig(method)
        ref, ref_losses = per_batch_distill(
            new_student(6, 3, cfg, seed=6), tiny_teachers[0], tiny_scenario.distill_set,
            mc, cfg, seed=6, prev_student=prev,
        )
        ds = tiny_scenario.distill_set
        got, log = distill_task(
            new_student(6, 3, cfg, seed=6), logits_of(tiny_teachers[0], ds, cfg), ds,
            mc, cfg, task_index=0, seed=6, prev_student=prev,
        )
        # Gathering precomputed rows replaces a forward pass over a batch; the
        # row arithmetic is the same, so only the matrix product's blocking
        # could move the last bits.
        ref_epochs = np.reshape(ref_losses, (cfg.epochs, -1)).mean(axis=1)
        assert np.allclose(log.epoch_losses, ref_epochs, rtol=1e-12, atol=1e-12)
        for a, b in zip(got.layers, ref.layers):
            assert np.allclose(a.weight, b.weight, rtol=1e-9, atol=1e-12)
            assert np.allclose(a.bias, b.bias, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_frozen_models_forwarded_once_per_task(
        self, method, epochs, monkeypatch, tiny_scenario, tiny_config, tiny_teachers
    ):
        # The teacher arrives as logits; the checkpoint runs once over its rows.
        cfg = RunConfig(**{**tiny_config.__dict__, "epochs": epochs})
        distill_set = tiny_scenario.distill_set
        teacher_logits = logits_of(tiny_teachers[0], distill_set, cfg)
        prev = new_student(6, 3, cfg, seed=2)
        calls = []

        def counting_forward(model, batch, *args, **kwargs):
            if model is prev:
                calls.append(len(batch))
            return forward(model, batch, *args, **kwargs)

        monkeypatch.setattr(engine, "forward", counting_forward)
        distill_task(
            new_student(6, 3, cfg, seed=2), teacher_logits, distill_set,
            MethodConfig(method), cfg, prev_student=prev,
        )
        n_ext = int(distill_set.external_mask.sum())
        assert 0 < n_ext < len(distill_set)  # se2d takes the paired path
        prev_rows = {"self_distill": len(distill_set), "se2d": n_ext}.get(method, 0)
        assert len(calls) == math.ceil(prev_rows / cfg.batch_size)
        assert sum(calls) == prev_rows

    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_calls_its_public_loss(
        self, method, monkeypatch, tiny_scenario, tiny_config, tiny_teachers
    ):
        expected = {
            "kl": {"kl_kd_loss"},
            "ls": {"ls_kd_loss"},
            "dkd": {"dkd_loss"},
            "mds": {"mds_filter", "kl_kd_loss"},
            "self_distill": {"self_distill_loss"},
            "se2d": {"se2d_loss"},
        }
        calls = {name: 0 for names in expected.values() for name in names}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        prev = new_student(6, 3, tiny_config, seed=3)
        ds = tiny_scenario.distill_set
        distill_task(
            new_student(6, 3, tiny_config, seed=2), logits_of(tiny_teachers[0], ds, tiny_config),
            ds, MethodConfig(method), tiny_config, prev_student=prev,
        )
        assert {name for name, n in calls.items() if n} == expected[method]

    def test_per_epoch_evaluation_trace(self, tiny_scenario, tiny_teachers):
        cfg = RunConfig(
            epochs=3,
            batch_size=16,
            learning_rate=0.01,
            temperature=3.0,
            teacher_hidden=(16, 16),
            student_hidden=(16, 16),
            eval_every_epoch=True,
        )
        student = new_student(6, 3, cfg, seed=7)
        ds = tiny_scenario.distill_set
        _, log = distill_task(
            student, logits_of(tiny_teachers[0], ds, cfg), ds,
            MethodConfig("kl"), cfg, task_index=0, seed=7,
            test_sets=tiny_scenario.test_sets,
        )
        assert log.epoch_accuracies is not None and len(log.epoch_accuracies) == 3
        assert set(log.epoch_accuracies[0]) == set(tiny_scenario.test_sets)


def run_methods(methods, teachers, scenario, config, seed):
    """method -> (final student, accuracies and epoch losses of every task) of run_sequence."""
    logits = [logits_of(teacher, scenario.distill_set, config) for teacher in teachers]
    outcomes = {}
    for method in methods:
        student = new_student(6, 3, config, seed)
        logs = run_sequence(student, iter(logits), scenario, MethodConfig(method), config, seed=seed)
        outcomes[method] = (student, [l.accuracies for l in logs], [l.epoch_losses for l in logs])
    return outcomes


class TestRunSequence:
    def test_checkpoint_methods_match_kl_at_task_0(self, tiny_scenario, tiny_config, tiny_teachers):
        # No checkpoint method has a previous student at task 0.
        mask = tiny_scenario.distill_set.external_mask
        assert mask.any() and not mask.all()
        outcomes = run_methods(
            ("kl", "self_distill", "se2d"), tiny_teachers[:1], tiny_scenario, tiny_config, seed=8
        )
        for method in ("self_distill", "se2d"):
            assert model_params_equal(outcomes[method][0], outcomes["kl"][0]), method
            assert outcomes[method][1:] == outcomes["kl"][1:], method

    def test_se2d_matches_kl_without_external_data(self, tiny_scenario, tiny_config, tiny_teachers):
        # se2d's checkpoint term covers the external rows only, and there are none.
        scenario = build_scenario(replace(tiny_scenario.spec, ed_ratio=0.0))
        assert not scenario.distill_set.external_mask.any()
        outcomes = run_methods(("kl", "se2d"), tiny_teachers, scenario, tiny_config, seed=8)
        assert len(outcomes["kl"][1]) == tiny_scenario.spec.n_teachers == 2
        assert model_params_equal(outcomes["se2d"][0], outcomes["kl"][0])
        assert outcomes["se2d"][1:] == outcomes["kl"][1:]

    def test_accepts_pure_iterator_and_consumes_forward_only(self, tiny_scenario, tiny_config, tiny_teachers):
        student = new_student(6, 3, tiny_config, seed=9)
        ds = tiny_scenario.distill_set
        logs = run_sequence(
            student, (logits_of(t, ds, tiny_config) for t in tiny_teachers), tiny_scenario,
            MethodConfig("kl"), tiny_config, seed=9,
        )
        assert [log.task_index for log in logs] == [0, 1]
        assert all(sorted(log.accuracies) == [0, 1, 2, 3] for log in logs)

    def test_empty_teacher_sequence_rejected(self, tiny_scenario, tiny_config):
        student = new_student(6, 3, tiny_config, seed=0)
        with pytest.raises(InvalidArgumentError):
            run_sequence(student, iter(()), tiny_scenario, MethodConfig("kl"), tiny_config)

    def test_checkpoint_methods_track_previous_task(self, tiny_scenario, tiny_config, tiny_teachers):
        # the second task of a checkpoint method must differ from plain kl
        outs = {}
        for method in ("kl", "self_distill"):
            student = new_student(6, 3, tiny_config, seed=10)
            logits = [logits_of(t, tiny_scenario.distill_set, tiny_config) for t in tiny_teachers]
            logs = run_sequence(
                student, iter(logits), tiny_scenario,
                MethodConfig(method), tiny_config, seed=10,
            )
            outs[method] = [log.epoch_losses for log in logs]
        assert outs["kl"][0] == outs["self_distill"][0]  # first task has no checkpoint
        assert outs["kl"][1] != outs["self_distill"][1]

    def test_loss_trend_non_increasing(self, tiny_scenario, tiny_teachers):
        cfg = RunConfig(
            epochs=6,
            batch_size=16,
            learning_rate=0.01,
            temperature=3.0,
            teacher_hidden=(16, 16),
            student_hidden=(16, 16),
        )
        logits = [logits_of(t, tiny_scenario.distill_set, cfg) for t in tiny_teachers]
        for method in ("kl", "ls", "dkd", "mds", "self_distill", "se2d"):
            for seed in (1, 2, 3):
                student = new_student(6, 3, cfg, seed=seed)
                logs = run_sequence(
                    student, iter(logits), tiny_scenario,
                    MethodConfig(method), cfg, seed=seed,
                )
                for log in logs:
                    assert log.epoch_losses[-1] <= log.epoch_losses[0], (method, seed)


class TestFrozenLogits:
    def test_pass_holds_one_chunk_of_activations(self):
        # Two 256x512 hidden activations are 2 MB; a cache kept alive into
        # the next chunk's forward would double them.
        model = init_mlp(7, [32, 512, 512, 10])
        features = np.random.default_rng(7).normal(size=(2400, 32))
        assert traced_peak(lambda: engine.frozen_logits(model, features, 256)) < 3 * 2**20

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_refused(self, chunk):
        model = init_mlp(7, [4, 8, 3])
        with pytest.raises(InvalidArgumentError, match=f"got {chunk}"):
            engine.frozen_logits(model, np.zeros((5, 4)), chunk)


class TestEvaluate:
    def test_perfect_predictor(self):
        model = MlpModel([Layer(np.eye(3), np.zeros(3))])
        labels = np.array([0, 1, 2, 1])
        features = 10.0 * np.eye(3)[labels]
        test = LabeledSet(features, labels)
        assert evaluate(model, test) == 1.0

    def test_constant_output_on_balanced_set(self):
        model = MlpModel([Layer(np.zeros((4, 2)), np.zeros(4))])
        labels = np.repeat(np.arange(4), 5)
        test = LabeledSet(np.random.default_rng(0).normal(size=(20, 2)), labels)
        assert evaluate(model, test) == 0.25

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(12)
        model = init_mlp(3, [4, 8, 3])
        test = LabeledSet(rng.normal(size=(50, 4)), rng.integers(0, 3, size=50))
        correct = 0
        from cdbench.nn_core import forward

        for i in range(50):
            logits, _ = forward(model, test.features[i : i + 1])
            correct += int(np.argmax(logits[0]) == test.labels[i])
        assert evaluate(model, test) == correct / 50

    def test_empty_test_set_rejected(self):
        model = init_mlp(0, [2, 2])
        with pytest.raises(InvalidArgumentError):
            evaluate(model, LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestCheckpoints:
    def test_round_trip_at_single_precision(self, tmp_path):
        model = init_mlp(21, [5, 7, 4])
        path = tmp_path / "model.ckpt"
        path.write_bytes(serialize_model(model))
        loaded = deserialize_model(path.read_bytes())
        for a, b in zip(model.layers, loaded.layers):
            assert np.array_equal(a.weight.astype(np.float32).astype(float), b.weight)
            assert np.array_equal(a.bias.astype(np.float32).astype(float), b.bias)

    @pytest.mark.parametrize("value", [1e39, float("nan"), -float("inf")])
    def test_non_finite_weight_refused(self, value):
        # 1e39 is finite in float64 but overflows the float32 checkpoint.
        model = init_mlp(23, [5, 7, 4])
        model.layers[1].weight[2, 3] = value
        with pytest.raises(FormatError, match="layer 1"):
            serialize_model(model)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_non_finite_value_read_refused(self, part, value):
        data = bytearray(serialize_model(init_mlp(24, [5, 7, 4])))
        # Layer 1's first weight follows the header and layer 0 (7 x 5 plus
        # 7 biases); its first bias follows its 4 x 7 weights.
        offset = 8 + 4 + (8 + 4 * (7 * 5 + 7)) + 8 + (4 * 4 * 7 if part == "bias" else 0)
        data[offset : offset + 4] = np.float32(value).tobytes()
        with pytest.raises(FormatError, match="layer 1 has a weight or bias that is not finite"):
            deserialize_model(bytes(data))

    def test_reload_is_idempotent(self, tmp_path):
        model = init_mlp(22, [5, 7, 4])
        first = deserialize_model(serialize_model(model))
        second = deserialize_model(serialize_model(first))
        assert model_params_equal(first, second)

    def test_re_evaluation_matches(self, tmp_path, desk_config):
        ds = generate_domain(8, 0, 4, 8, 50)
        teacher = train_teacher(ds.train, desk_config, seed=4)
        before = evaluate(teacher, ds.test)
        path = tmp_path / "t.ckpt"
        path.write_bytes(serialize_model(teacher))
        after = evaluate(deserialize_model(path.read_bytes()), ds.test)
        assert abs(before - after) <= 1e-6

    def test_parse_reads_the_payload_in_place(self):
        # No layer's bytes are copied out of the payload, so the parse
        # allocates little beyond the float64 params it returns.
        data = serialize_model(init_mlp(0, [32, 512, 512, 10]))
        parsed = []
        peak = traced_peak(lambda: parsed.append(deserialize_model(data)))
        assert peak < 1.1 * parsed[0].params.nbytes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT1" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            deserialize_model(path.read_bytes())

    def test_version_mismatch(self, tmp_path):
        model = init_mlp(0, [2, 2])
        data = bytearray(serialize_model(model))
        data[6:8] = b"99"
        path = tmp_path / "v99.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            deserialize_model(path.read_bytes())

    def test_truncation(self, tmp_path):
        model = init_mlp(0, [3, 2])
        data = serialize_model(model)
        path = tmp_path / "cut.ckpt"
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(FormatError, match="truncated"):
            deserialize_model(path.read_bytes())

    def test_trailing_bytes(self, tmp_path):
        model = init_mlp(0, [3, 2])
        path = tmp_path / "fat.ckpt"
        path.write_bytes(serialize_model(model) + b"extra")
        with pytest.raises(FormatError, match="trailing"):
            deserialize_model(path.read_bytes())

    @pytest.mark.parametrize(
        "shapes, bad",
        [([(4, 3), (2, 5)], 1), ([(4, 3), (5, 4), (2, 6)], 2)],
        ids=["layer1", "layer2"],
    )
    def test_unchained_layers_refused(self, shapes, bad):
        # Layer `bad` takes one input more than the layer before it gives.
        unchained = MlpModel([Layer(np.zeros(s), np.zeros(s[0])) for s in shapes])
        with pytest.raises(FormatError, match=f"layer {bad} takes"):
            deserialize_model(serialize_model(unchained))


# A three-layer payload, so a damaged header can break any of two joints.
_VALID_CHECKPOINT = serialize_model(init_mlp(5, [3, 4, 5, 2]))


def _refused_or_chained(data: bytes) -> None:
    """The parser raises FormatError, or returns finite layers that chain; nothing else."""
    try:
        model = deserialize_model(data)
    except FormatError:
        return
    for k in range(1, len(model.shapes)):
        assert model.shapes[k][1] == model.shapes[k - 1][0]
    assert np.isfinite(model.params).all()


class TestCheckpointFuzz:
    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, len(_VALID_CHECKPOINT) - 1))
    def test_truncation(self, cut):
        _refused_or_chained(_VALID_CHECKPOINT[:cut])

    @settings(max_examples=300, deadline=None)
    @given(pos=st.integers(0, len(_VALID_CHECKPOINT) - 1), mask=st.integers(1, 255))
    def test_single_byte_change(self, pos, mask):
        data = bytearray(_VALID_CHECKPOINT)
        data[pos] ^= mask
        _refused_or_chained(bytes(data))

    @settings(max_examples=100, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4))
    def test_any_layer_shapes(self, shapes):
        # A single changed byte cannot unchain a valid payload without also
        # changing its length, so write payloads of arbitrary layer shapes.
        data = serialize_model(MlpModel([Layer(np.zeros(s), np.zeros(s[0])) for s in shapes]))
        chained = all(shapes[k][1] == shapes[k - 1][0] for k in range(1, len(shapes)))
        if chained:
            assert deserialize_model(data).shapes == tuple(shapes)
        else:
            with pytest.raises(FormatError, match="takes"):
                deserialize_model(data)
