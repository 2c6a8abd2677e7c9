import numpy as np
import pytest

from cdbench import (
    AccuracyMatrix,
    DegenerateVarianceError,
    InvalidArgumentError,
    accuracy_matrix,
    average_forgetting,
    entropy_histogram,
    forgetting,
    kurtosis,
    ukt_gain,
)
from cdbench.engine import TaskLog, deserialize_model, serialize_model


def matrix(rows, domain_ids=None):
    rows = np.asarray(rows, dtype=float)
    ids = tuple(domain_ids) if domain_ids is not None else tuple(range(rows.shape[0]))
    return AccuracyMatrix(ids, rows)


def log(task, accs):
    return TaskLog(task, accs, [0.0])


class TestAccuracyMatrix:
    def test_single_task_two_domains(self):
        m = accuracy_matrix([log(0, {0: 0.5, 1: 0.75})])
        assert m.domain_ids == (0, 1)
        assert m.values.tolist() == [[0.5], [0.75]]

    def test_shuffled_logs_normalized_by_task_index(self):
        logs = [log(1, {0: 0.2, 1: 0.3}), log(0, {0: 0.1, 1: 0.4})]
        m = accuracy_matrix(logs)
        assert m.values.tolist() == [[0.1, 0.2], [0.4, 0.3]]

    def test_missing_domain_rejected(self):
        logs = [log(0, {0: 0.1, 1: 0.2}), log(1, {0: 0.3})]
        with pytest.raises(InvalidArgumentError):
            accuracy_matrix(logs)

    def test_empty_logs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            accuracy_matrix([])


class TestForgetting:
    def test_peak_then_drop(self):
        m = matrix([[0.60, 0.70, 0.50]])
        assert abs(forgetting(m, 0, 2) - 0.20) < 1e-12

    def test_negative_when_still_improving(self):
        m = matrix([[0.50, 0.60]])
        assert abs(forgetting(m, 0, 1) - (-0.10)) < 1e-12

    def test_constant_trajectory(self):
        assert forgetting(matrix([[0.4, 0.4, 0.4]]), 0, 2) == 0.0

    def test_first_task_rejected(self):
        with pytest.raises(InvalidArgumentError):
            forgetting(matrix([[0.5, 0.6]]), 0, 0)

    def test_unknown_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            forgetting(matrix([[0.5, 0.6]]), 3, 1)

    def test_nan_propagates_as_the_slice_maximum_does(self):
        m = matrix([[0.5, np.nan, 0.7, 0.6], [0.9, 0.3, 0.4, 0.2]])
        for d in (0, 1):
            for t in (1, 2, 3):
                want = m.row(d)[:t].max() - m.row(d)[t]
                assert np.array_equal(forgetting(m, d, t), want, equal_nan=True)
        # A NaN at task 1 stays in the best of every later task.
        assert np.isnan(forgetting(m, 0, 3))

    def test_average_over_domains(self):
        m = matrix([[0.6, 0.4], [0.5, 0.5]])
        assert abs(average_forgetting(m) - 0.1) < 1e-12
        assert abs(average_forgetting(m, domains=(0,)) - 0.2) < 1e-12

    def test_brute_force_oracle_on_grid(self):
        # exhaustive max-scan comparison on every length-3 trajectory over
        # the 0.1 grid (the full length<=5 sweep lives in the acceptance suite)
        grid = np.round(np.arange(0, 1.01, 0.1), 1)
        values = np.array(np.meshgrid(grid, grid, grid)).reshape(3, -1).T
        m = matrix(values)
        for i in range(values.shape[0]):
            best = max(values[i][:2])
            assert forgetting(m, i, 2) == pytest.approx(best - values[i][2], abs=1e-12)


class TestUktGain:
    def test_identical_runs_have_zero_gain(self):
        a = matrix([[0.5, 0.6], [0.7, 0.8]])
        b = matrix([[0.5, 0.6], [0.7, 0.8]])
        assert ukt_gain(a, b, (0, 1)) == {0: 0.0, 1: 0.0}

    def test_hand_built_delta(self):
        with_ed = matrix([[0.9, 0.9], [0.2, 0.8]])
        without = matrix([[0.9, 0.9], [0.2, 0.3]])
        assert ukt_gain(with_ed, without, (1,)) == {1: pytest.approx(0.5)}

    def test_mismatched_shapes_rejected(self):
        a = matrix([[0.5, 0.6]])
        b = matrix([[0.5, 0.6, 0.7]])
        with pytest.raises(InvalidArgumentError):
            ukt_gain(a, b, (0,))

    def test_mismatched_domains_rejected(self):
        a = matrix([[0.5]], domain_ids=(0,))
        b = matrix([[0.5]], domain_ids=(1,))
        with pytest.raises(InvalidArgumentError):
            ukt_gain(a, b, (0,))


class TestEntropyHistogram:
    def test_constant_logit_model_fills_top_bin(self):
        profile = entropy_histogram(np.zeros((40, 4)), 1.0, bins=10)
        assert profile.counts[-1] == 40 and profile.counts[:-1].sum() == 0

    def test_confident_model_fills_bottom_bin(self):
        x = np.abs(np.random.default_rng(1).normal(size=25)) + 0.5
        profile = entropy_histogram(np.stack([100.0 * x, -100.0 * x], axis=1), 1.0, bins=8)
        assert profile.counts[0] == 25

    def test_counts_conserve_samples(self):
        logits = np.random.default_rng(2).normal(size=(33, 3))
        profile = entropy_histogram(logits, 2.0, bins=7)
        assert profile.counts.sum() == 33
        assert len(profile.bin_edges) == 8
        assert profile.bin_edges[-1] == pytest.approx(np.log(3))

    def test_too_few_bins(self):
        with pytest.raises(InvalidArgumentError):
            entropy_histogram(np.zeros((3, 2)), 1.0, bins=1)

    def test_empty_input(self):
        with pytest.raises(InvalidArgumentError):
            entropy_histogram(np.zeros((0, 2)), 1.0, bins=4)


class TestKurtosis:
    def test_symmetric_two_point_sample(self):
        values = np.tile([-1.0, 1.0], 50)
        assert kurtosis(values) == pytest.approx(1.0, abs=1e-12)

    def test_standard_normal_draws(self):
        values = np.random.default_rng(123).standard_normal(100_000)
        assert kurtosis(values) == pytest.approx(3.0, abs=0.1)

    def test_constant_input(self):
        with pytest.raises(DegenerateVarianceError):
            kurtosis(np.full(10, 2.5))

    def test_too_few_values(self):
        with pytest.raises(InvalidArgumentError):
            kurtosis([1.0, 2.0, 3.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        values = rng.gamma(2.0, size=500)
        assert kurtosis(3.5 * values + 11.0) == pytest.approx(kurtosis(values), rel=1e-9)


def test_accuracy_matrix_matches_checkpoint_re_evaluation(tmp_path):
    # the final column must agree with re-evaluating the saved student
    from cdbench import (
        LabeledSet,
        MethodConfig,
        RunConfig,
        ScenarioSpec,
        build_scenario,
        evaluate,
        frozen_logits,
        generate_domain,
        new_student,
        run_sequence,
        train_teacher,
    )

    spec = ScenarioSpec(
        n_classes=3,
        feature_dim=6,
        n_domains=4,
        shared_domains=(0,),
        teacher_exclusive_domains=((1,), (2,)),
        external_domains=(3,),
        ed_ratio=0.5,
        samples_per_class=30,
        seed=13,
    )
    scenario = build_scenario(spec)
    config = RunConfig(
        epochs=3,
        batch_size=16,
        learning_rate=0.01,
        temperature=3.0,
        teacher_epochs=30,
        teacher_hidden=(16, 16),
        student_hidden=(16, 16),
    )
    teachers = [
        train_teacher(
            LabeledSet.concat(
                [generate_domain(spec, m).train for m in spec.teacher_domain_ids(t)]
            ),
            config,
            seed=200 + t,
        )
        for t in range(2)
    ]
    features = scenario.distill_set.features
    logits = [frozen_logits(teacher, features, config.batch_size) for teacher in teachers]
    student = new_student(6, 3, config, seed=1)
    logs = run_sequence(
        student, iter(logits), scenario, MethodConfig("kl"), config, seed=1
    )
    m = accuracy_matrix(logs)
    path = tmp_path / "final_student.ckpt"
    path.write_bytes(serialize_model(student))
    reloaded = deserialize_model(path.read_bytes())
    for d, test_set in scenario.test_sets.items():
        assert abs(m.final(d) - evaluate(reloaded, test_set)) <= 1e-6
