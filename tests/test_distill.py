import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdbench import (
    InvalidArgumentError,
    MethodConfig,
    RunConfig,
    ShapeError,
    dkd_loss,
    entropy,
    kl_kd_loss,
    logit_standardize,
    ls_kd_loss,
    mds_filter,
    se2d_loss,
    self_distill_loss,
    softmax_t,
)
from cdbench.distill import (
    _quantile_band,
    batch_entropy,
    dkd_targets,
    ls_targets,
    soft_targets,
    teacher_entropy,
)
from cdbench.nn_core import log_softmax_t

from conftest import finite_difference_logits, max_relative_error


def random_logits(rng, b, c, scale=2.0):
    return rng.normal(0, scale, size=(b, c))


def same_bits(result, loss, dlogits):
    """A LossResult equal to the bit to a reference (loss, dlogits)."""
    return (
        np.float64(result.loss).tobytes() == np.float64(loss).tobytes()
        and result.dlogits.shape == dlogits.shape
        and result.dlogits.tobytes() == dlogits.tobytes()
    )


# ls_kd_loss, dkd_loss and mds_filter written out term by term, each student
# term computed on its own and the band by np.quantile: references that the
# one-pass losses and the sort-based band must match to the bit.


def reference_ls_kd_loss(zs, zt, t):
    def parts(z):
        centered = z - z.mean(axis=1, keepdims=True)
        std = np.sqrt((centered**2).mean(axis=1, keepdims=True))
        return centered, std, centered / (std + 1e-8)

    inner = kl_kd_loss(parts(zs)[2], parts(zt)[2], t)
    centered, std, _ = parts(zs)
    g, n, denom = inner.dlogits, zs.shape[1], std + 1e-8
    term1 = (g - g.mean(axis=1, keepdims=True)) / denom
    dot = (g * centered).sum(axis=1, keepdims=True)
    term2 = centered * dot / (n * np.maximum(std, 1e-8) * denom**2)
    return inner.loss, term1 - term2


def reference_dkd_loss(zs, zt, t, alpha, beta):
    n, c = zt.shape
    rows, target = np.arange(n), np.argmax(zt, axis=1)
    mask = np.zeros((n, c), dtype=bool)
    mask[rows, target] = True

    def masked_log_softmax(scaled):
        z = np.where(mask, -np.inf, scaled)
        zmax = z.max(axis=1, keepdims=True)
        return z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))

    log_p = log_softmax_t(zt, t)
    p = np.exp(log_p)
    p_rest = np.where(~mask, p, 0.0).sum(axis=1)
    log_phat = masked_log_softmax(zt / t)
    phat = np.where(mask, 0.0, np.exp(log_phat))
    pt, log_pt = p[rows, target], log_p[rows, target]
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n,))
    log_q = log_softmax_t(zs, t)
    q = np.exp(log_q)
    log_qt, qt = log_q[rows, target], q[rows, target]
    q_rest = np.where(~mask, q, 0.0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tckd = pt * (log_pt - log_qt) + p_rest * (np.log(p_rest) - np.log(q_rest))
    tckd = np.where(p_rest > 0, tckd, pt * (log_pt - log_qt))
    log_qhat = masked_log_softmax(zs / t)
    qhat = np.where(mask, 0.0, np.exp(log_qhat))
    with np.errstate(invalid="ignore"):
        diff = np.where(mask, 0.0, log_phat - log_qhat)
    nckd = (phat * diff).sum(axis=1)
    loss = float((alpha * tckd + beta * nckd).sum() * (t**2 / n))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(q_rest > 0, p_rest / q_rest, 0.0) - pt / qt
    dtckd = (coef * qt)[:, None] * (mask.astype(float) - q)
    return loss, (t / n) * (alpha * dtckd + beta[:, None] * (qhat - phat))


def reference_mds_filter(ent, low_q, high_q):
    lo, hi = np.quantile(ent, (low_q, high_q))
    keep = (ent >= lo) & (ent <= hi)
    if not keep.any():
        keep[np.argmin(np.abs(ent - 0.5 * (lo + hi)))] = True
    return keep


def draw_logits(seed, b, c, scale, special):
    """Three (b, c) logit matrices; with `special`, teacher rows with tied maxima
    and with no tempered mass off the target, and a constant student row."""
    rng = np.random.default_rng(seed)
    zs, zt, zp = (random_logits(rng, b, c, scale) for _ in range(3))
    if special:
        zt[0] = 0.0
        zt[0, : c // 2] = 1.0
        zt[-1] = 0.0
        zt[-1, c - 1] = 5000.0
        zs[b // 2] = 2.5
    return zs, zt, zp


logit_cases = given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 70),
    st.integers(2, 10),
    st.sampled_from([0.1, 3.0, 30.0]),
    st.booleans(),
    st.sampled_from([1.0, 3.0, 10.0]),
)


class TestKlLoss:
    def test_identical_logits_zero(self):
        z = np.random.default_rng(0).normal(size=(3, 4))
        for temp in (1.0, 4.0, 10.0):
            res = kl_kd_loss(z, z.copy(), temp)
            assert res.loss == 0.0
            assert np.all(res.dlogits == 0.0)

    def test_two_class_value(self):
        res = kl_kd_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), 1.0)
        assert abs(res.loss - 0.4621) < 1e-3

    def test_temperature_squared_factor(self):
        student = np.array([[0.0, 1.0]])
        teacher = np.array([[1.0, 0.0]])
        res = kl_kd_loss(student, teacher, 2.0)
        p = softmax_t(teacher, 2.0)[0]
        q = softmax_t(student, 2.0)[0]
        raw_kl = float(np.sum(p * np.log(p / q)))
        assert abs(res.loss - 4.0 * raw_kl) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for temp in (1.0, 4.0, 10.0):
            zs, zt = random_logits(rng, 3, 4), random_logits(rng, 3, 4)
            res = kl_kd_loss(zs, zt, temp)
            numeric = finite_difference_logits(lambda z: kl_kd_loss(z, zt, temp).loss, zs)
            assert max_relative_error(res.dlogits, numeric) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kl_kd_loss(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)

    def test_nonpositive_temperature(self):
        with pytest.raises(InvalidArgumentError):
            kl_kd_loss(np.zeros((1, 2)), np.zeros((1, 2)), -1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(1, 4))
    def test_nonnegative_and_asymmetric(self, seed, c, b):
        rng = np.random.default_rng(seed)
        zs, zt = random_logits(rng, b, c), random_logits(rng, b, c)
        forward_kl = kl_kd_loss(zs, zt, 2.0).loss
        reverse_kl = kl_kd_loss(zt, zs, 2.0).loss
        assert forward_kl >= 0.0 and reverse_kl >= 0.0
        if np.max(np.abs(zs - zt)) > 0.5:
            assert forward_kl > 0.0


class TestLogitStandardize:
    def test_example_row(self):
        out = logit_standardize(np.array([[2.0, 4.0, 6.0]]))
        assert np.allclose(out, [[-1.2247, 0.0, 1.2247]], atol=1e-4)

    def test_constant_row_maps_to_zero(self):
        assert np.array_equal(logit_standardize(np.array([[5.0, 5.0, 5.0]])), [[0.0, 0.0, 0.0]])

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 5))
        assert np.allclose(logit_standardize(3.0 * z + 7.0), logit_standardize(z), atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_argmax_preserved(self, seed):
        z = np.random.default_rng(seed).normal(0, 3, size=(3, 4))
        assert np.array_equal(
            np.argmax(logit_standardize(z), axis=1), np.argmax(z, axis=1)
        )

    def test_single_column_rejected(self):
        with pytest.raises(InvalidArgumentError):
            logit_standardize(np.zeros((2, 1)))


class TestLsLoss:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        zs, zt = random_logits(rng, 3, 4), random_logits(rng, 3, 4)
        res = ls_kd_loss(zs, zt, 4.0)
        numeric = finite_difference_logits(lambda z: ls_kd_loss(z, zt, 4.0).loss, zs)
        assert max_relative_error(res.dlogits, numeric) < 1e-4

    def test_scale_invariant_in_teacher(self):
        rng = np.random.default_rng(4)
        zs, zt = random_logits(rng, 2, 5), random_logits(rng, 2, 5)
        a = ls_kd_loss(zs, zt, 2.0)
        b = ls_kd_loss(zs, 5.0 * zt + 1.0, 2.0)
        # equality is up to the epsilon guard inside the z-score
        assert abs(a.loss - b.loss) < 1e-6


class TestDkdLoss:
    def test_identical_logits_zero(self):
        z = np.random.default_rng(5).normal(size=(4, 5))
        res = dkd_loss(z, z.copy(), 4.0, 1.0, 8.0)
        assert abs(res.loss) < 1e-12
        assert np.max(np.abs(res.dlogits)) < 1e-12

    def test_decomposition_identity(self):
        # alpha=1 with per-sample beta equal to the teacher's non-target
        # tempered mass collapses the decoupled loss back to plain KL.
        rng = np.random.default_rng(6)
        for _ in range(100):
            b, c = rng.integers(1, 5), rng.integers(2, 6)
            zs, zt = random_logits(rng, b, c), random_logits(rng, b, c)
            temp = float(rng.choice([1.0, 2.0, 4.0, 10.0]))
            p = softmax_t(zt, temp)
            target = np.argmax(zt, axis=1)
            beta = 1.0 - p[np.arange(b), target]
            d = dkd_loss(zs, zt, temp, 1.0, beta)
            k = kl_kd_loss(zs, zt, temp)
            assert abs(d.loss - k.loss) < 1e-9
            assert np.max(np.abs(d.dlogits - k.dlogits)) < 1e-9

    def test_two_class_nckd_vanishes(self):
        rng = np.random.default_rng(7)
        zs, zt = random_logits(rng, 3, 2), random_logits(rng, 3, 2)
        with_beta = dkd_loss(zs, zt, 2.0, 1.0, 50.0)
        no_beta = dkd_loss(zs, zt, 2.0, 1.0, 0.0)
        assert abs(with_beta.loss - no_beta.loss) < 1e-12
        assert np.allclose(with_beta.dlogits, no_beta.dlogits, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        zs, zt = random_logits(rng, 4, 5), random_logits(rng, 4, 5)
        res = dkd_loss(zs, zt, 4.0, 1.0, 8.0)
        numeric = finite_difference_logits(
            lambda z: dkd_loss(z, zt, 4.0, 1.0, 8.0).loss, zs
        )
        assert max_relative_error(res.dlogits, numeric) < 1e-4

    def test_tie_breaks_to_lowest_index(self):
        zt = np.array([[1.0, 1.0, 0.0]])
        zs = np.array([[0.3, 0.9, -0.2]])
        # target must be class 0; verify against an explicitly-masked variant
        res = dkd_loss(zs, zt, 1.0, 1.0, 0.0)
        p = softmax_t(zt, 1.0)[0]
        q = softmax_t(zs, 1.0)[0]
        tckd = p[0] * np.log(p[0] / q[0]) + (1 - p[0]) * np.log((1 - p[0]) / (1 - q[0]))
        assert abs(res.loss - tckd) < 1e-12


class TestMdsFilter:
    def test_full_band_keeps_everything(self):
        z = np.random.default_rng(9).normal(size=(6, 4))
        assert mds_filter(teacher_entropy(z, 2.0), 0.0, 1.0).all()

    def test_middle_band_keeps_middle_two_of_four(self):
        # rows with strictly increasing entropy: shrinking logit magnitude
        z = np.array([[8.0, 0.0], [4.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        keep = mds_filter(teacher_entropy(z, 1.0), 0.25, 0.75)
        assert keep.tolist() == [False, True, True, False]

    def test_all_ties_kept(self):
        z = np.tile(np.array([[1.0, 2.0, 0.5]]), (5, 1))
        assert mds_filter(teacher_entropy(z, 2.0), 0.3, 0.6).all()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.normal(0, 3, size=(8, 4))
        keep = mds_filter(teacher_entropy(z, 2.0), 0.25, 0.75)
        perm = rng.permutation(8)
        keep_perm = mds_filter(teacher_entropy(z[perm], 2.0), 0.25, 0.75)
        assert np.array_equal(keep_perm, keep[perm])

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mds_filter(teacher_entropy(np.zeros((0, 3)), 1.0), 0.25, 0.75)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 128),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.one_of(
            st.sampled_from([(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.25, 0.75)]),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
            .map(sorted)
            .filter(lambda q: q[0] < q[1]),
        ),
    )
    def test_sorted_band_matches_np_quantile(self, seed, b, tied_share, band):
        # `tied_share` of the values come from a few repeated ones, zeros of both signs included
        rng = np.random.default_rng(seed)
        ent = rng.uniform(0.0, 2.0, size=b)
        tied = rng.random(b) < tied_share
        ent[tied] = rng.choice([0.0, -0.0, 0.5, 1.0, 1.25], size=tied.sum())
        for edge, expected in zip(_quantile_band(ent, *band), np.quantile(ent, band)):
            # numpy partitions, so of two tied zeros it may return either sign
            assert np.float64(edge).tobytes() == expected.tobytes() or edge == expected == 0.0
        assert np.array_equal(mds_filter(ent, *band), reference_mds_filter(ent, *band))

    def test_nan_entropy_keeps_only_the_fallback_row(self):
        ent = np.array([0.3, np.nan, 0.1, 0.2])
        assert np.isnan(_quantile_band(ent, 0.25, 0.75)).all()
        keep = mds_filter(ent, 0.25, 0.75)
        assert keep.tolist() == [True, False, False, False]
        assert np.array_equal(keep, reference_mds_filter(ent, 0.25, 0.75))

    def test_at_least_one_kept(self):
        z = np.array([[9.0, 0.0], [5.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
        keep = mds_filter(teacher_entropy(z, 1.0), 0.40, 0.45)
        assert keep.sum() >= 1

    def test_invalid_band(self):
        with pytest.raises(InvalidArgumentError):
            mds_filter(teacher_entropy(np.zeros((2, 2)), 1.0), 0.75, 0.25)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.integers(2, 6),
        st.sampled_from([(0.0, 1.0), (0.25, 0.75), (0.4, 0.45), (0.1, 0.3)]),
        st.sampled_from([1.0, 3.0, 10.0]),
    )
    def test_precomputed_entropies_give_identical_mask(self, seed, rows, classes, band, temp):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 4.0, size=(64, classes))
        # repeated rows make entropy ties, which the band keeps
        logits[32:] = logits[rng.integers(0, 32, size=32)]
        idx = rng.integers(0, 64, size=rows)
        direct = mds_filter(teacher_entropy(logits[idx], temp), *band)
        cached = mds_filter(teacher_entropy(logits, temp)[idx], *band)
        assert np.array_equal(cached, direct)


class TestCompositeLosses:
    def test_se2d_zero_when_targets_match(self):
        z_all = np.random.default_rng(11).normal(size=(4, 3))
        res = se2d_loss(z_all, z_all.copy(), z_all[2:].copy(), np.arange(4) >= 2, 4.0)
        assert res.loss == 0.0

    def test_se2d_empty_external_reduces_to_teacher_term(self):
        rng = np.random.default_rng(12)
        z_all, zt = random_logits(rng, 4, 3), random_logits(rng, 4, 3)
        res = se2d_loss(z_all, zt, np.zeros((0, 3)), np.zeros(4, dtype=bool), 4.0)
        ref = kl_kd_loss(z_all, zt, 4.0)
        assert res.loss == ref.loss
        assert np.array_equal(res.dlogits, ref.dlogits)

    def test_se2d_is_sum_of_two_kl_terms(self):
        rng = np.random.default_rng(13)
        z_all, zt = random_logits(rng, 5, 4), random_logits(rng, 5, 4)
        z_prev = random_logits(rng, 3, 4)
        ext = np.array([False, True, False, True, True])
        res = se2d_loss(z_all, zt, z_prev, ext, 2.0)
        teacher_term, ext_term = kl_kd_loss(z_all, zt, 2.0), kl_kd_loss(z_all[ext], z_prev, 2.0)
        assert res.loss == teacher_term.loss + ext_term.loss
        expected = teacher_term.dlogits.copy()
        expected[ext] += ext_term.dlogits
        assert np.array_equal(res.dlogits, expected)

    def test_se2d_all_external_equals_self_distill_bitwise(self):
        rng = np.random.default_rng(20)
        zs, zt, zp = (random_logits(rng, 5, 4) for _ in range(3))
        res = se2d_loss(zs, zt, zp, np.ones(5, dtype=bool), 3.0)
        ref = self_distill_loss(zs, zt, zp, 3.0)
        assert res.loss == ref.loss
        assert np.array_equal(res.dlogits, ref.dlogits)

    @pytest.mark.parametrize(
        "external", [np.ones(3, dtype=bool), np.ones((4, 1), dtype=bool), np.arange(4)]
    )
    def test_se2d_mask_of_another_shape_rejected(self, external):
        z = np.zeros((4, 3))
        with pytest.raises(ShapeError):
            se2d_loss(z, z, z[:3], external, 1.0)

    def test_se2d_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        zs, zt = random_logits(rng, 6, 4), random_logits(rng, 6, 4)
        ext = np.array([True, False, False, True, True, False])
        zp = random_logits(rng, 3, 4)
        res = se2d_loss(zs, zt, zp, ext, 4.0)
        numeric = finite_difference_logits(lambda z: se2d_loss(z, zt, zp, ext, 4.0).loss, zs)
        assert max_relative_error(res.dlogits, numeric) < 1e-4

    def test_self_distill_zero_case(self):
        z = np.random.default_rng(14).normal(size=(3, 4))
        assert self_distill_loss(z, z.copy(), z.copy(), 4.0).loss == 0.0

    def test_self_distill_is_sum_of_two_kl_terms(self):
        rng = np.random.default_rng(15)
        zs, zt, zp = (random_logits(rng, 4, 3) for _ in range(3))
        res = self_distill_loss(zs, zt, zp, 2.0)
        assert res.loss == kl_kd_loss(zs, zt, 2.0).loss + kl_kd_loss(zs, zp, 2.0).loss
        assert np.array_equal(
            res.dlogits, kl_kd_loss(zs, zt, 2.0).dlogits + kl_kd_loss(zs, zp, 2.0).dlogits
        )

    def test_self_distill_restricted_to_external_matches_se2d(self):
        # with the checkpoint term cut down to the external rows, the
        # composite equals the paired loss on the same batches
        rng = np.random.default_rng(16)
        z_all, zt, zp = (random_logits(rng, 6, 4) for _ in range(3))
        ext = np.arange(6) >= 2
        paired = se2d_loss(z_all, zt, zp[ext], ext, 4.0)
        expected = kl_kd_loss(z_all, zt, 4.0).loss + kl_kd_loss(z_all[ext], zp[ext], 4.0).loss
        assert paired.loss == expected
        full = self_distill_loss(z_all, zt, zp, 4.0)
        assert full.loss != paired.loss  # scopes differ on generic inputs

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        zs, zt, zp = (random_logits(rng, 3, 4) for _ in range(3))
        res = self_distill_loss(zs, zt, zp, 4.0)
        numeric = finite_difference_logits(
            lambda z: self_distill_loss(z, zt, zp, 4.0).loss, zs
        )
        assert max_relative_error(res.dlogits, numeric) < 1e-4


class TestOnePassLosses:
    """Each loss takes the student's terms in one pass and keeps its values to the bit."""

    @settings(max_examples=40, deadline=None)
    @logit_cases
    def test_self_distill_is_two_kl_losses(self, seed, b, c, scale, special, t):
        zs, zt, zp = draw_logits(seed, b, c, scale, special)
        teacher_term, prev_term = kl_kd_loss(zs, zt, t), kl_kd_loss(zs, zp, t)
        expected = (teacher_term.loss + prev_term.loss, teacher_term.dlogits + prev_term.dlogits)
        assert same_bits(self_distill_loss(zs, zt, zp, t), *expected)
        targets = (soft_targets(zt, t), soft_targets(zp, t))
        assert same_bits(self_distill_loss(zs, *targets, t), *expected)

    @settings(max_examples=40, deadline=None)
    @logit_cases
    def test_se2d_is_teacher_kl_plus_external_kl(self, seed, b, c, scale, special, t):
        zs, zt, zp = draw_logits(seed, b, c, scale, special)
        rng = np.random.default_rng(seed)
        for external in (np.zeros(b, bool), rng.random(b) < 0.5, np.ones(b, bool)):
            teacher_term = kl_kd_loss(zs, zt, t)
            ext_term = kl_kd_loss(zs[external], zp[external], t)
            dlogits = teacher_term.dlogits.copy()
            dlogits[external] += ext_term.dlogits
            res = se2d_loss(zs, soft_targets(zt, t), zp[external], external, t)
            assert same_bits(res, teacher_term.loss + ext_term.loss, dlogits)

    @settings(max_examples=40, deadline=None)
    @logit_cases
    def test_ls_matches_reference(self, seed, b, c, scale, special, t):
        zs, zt, _ = draw_logits(seed, b, c, scale, special)
        expected = reference_ls_kd_loss(zs, zt, t)
        assert same_bits(ls_kd_loss(zs, zt, t), *expected)
        assert same_bits(ls_kd_loss(zs, ls_targets(zt, t), t), *expected)

    @settings(max_examples=40, deadline=None)
    @logit_cases
    def test_dkd_matches_reference(self, seed, b, c, scale, special, t):
        zs, zt, _ = draw_logits(seed, b, c, scale, special)
        for beta in (8.0, np.random.default_rng(seed).uniform(0, 4, size=b)):
            expected = reference_dkd_loss(zs, zt, t, 1.5, beta)
            assert same_bits(dkd_loss(zs, zt, t, 1.5, beta), *expected)
            assert same_bits(dkd_loss(zs, dkd_targets(zt, t), t, 1.5, beta), *expected)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["kl", "ls", "dkd", "self_distill", "se2d"])
    def test_empty_batch_gives_zero_loss_and_empty_gradient(self, name):
        z = np.zeros((0, 4))
        res = {
            "kl": lambda: kl_kd_loss(z, z, 2.0),
            "ls": lambda: ls_kd_loss(z, z, 2.0),
            "dkd": lambda: dkd_loss(z, z, 2.0, 1.0, 8.0),
            "self_distill": lambda: self_distill_loss(z, z, z, 2.0),
            "se2d": lambda: se2d_loss(z, z, z, np.zeros(0, dtype=bool), 2.0),
        }[name]()
        assert res.loss == 0.0
        assert res.dlogits.shape == (0, 4)


class TestPrecomputedTargets:
    """Each KL-family loss, and dkd, takes its constant inputs as logits or as targets."""

    @pytest.mark.parametrize("name", ["kl", "ls", "self_distill", "se2d", "dkd"])
    def test_logits_and_targets_agree_bitwise(self, name):
        rng = np.random.default_rng(18)
        zs, zt, zp = (random_logits(rng, 6, 4) for _ in range(3))
        t = 3.0
        if name == "dkd":
            a, b = dkd_loss(zs, zt, t, 1.0, 8.0), dkd_loss(zs, dkd_targets(zt, t), t, 1.0, 8.0)
        elif name == "kl":
            a, b = kl_kd_loss(zs, zt, t), kl_kd_loss(zs, soft_targets(zt, t), t)
        elif name == "ls":
            a, b = ls_kd_loss(zs, zt, t), ls_kd_loss(zs, ls_targets(zt, t), t)
        elif name == "self_distill":
            a = self_distill_loss(zs, zt, zp, t)
            b = self_distill_loss(zs, soft_targets(zt, t), soft_targets(zp, t), t)
        else:
            ext = np.arange(6) >= 2
            a = se2d_loss(zs, zt, zp[ext], ext, t)
            b = se2d_loss(zs, soft_targets(zt, t), soft_targets(zp[ext], t), ext, t)
        assert a.loss == b.loss
        assert np.array_equal(a.dlogits, b.dlogits)

    def test_gathered_dkd_targets_agree_bitwise(self):
        # Terms built once over a whole set, then gathered per batch, as
        # distill_task does, equal terms built from the gathered logits.
        rng = np.random.default_rng(19)
        zt_all = random_logits(rng, 40, 5)
        zt_all[3] = [1.0, 1.0, 0.0, 0.0, 0.0]  # tied argmax
        zt_all[7] = [2000.0, 0.0, 0.0, 0.0, 0.0]  # no tempered mass off the target
        t = 1.5
        targets = dkd_targets(zt_all, t)
        for beta in (8.0, rng.uniform(0, 4, size=12)):
            idx = np.concatenate([[3, 7], rng.integers(0, 40, size=10)])
            zs = random_logits(rng, 12, 5)
            a = dkd_loss(zs, zt_all[idx], t, 1.0, beta)
            b = dkd_loss(zs, targets[idx], t, 1.0, beta)
            assert a.loss == b.loss
            assert np.array_equal(a.dlogits, b.dlogits)

    def test_targets_of_another_shape_rejected(self):
        z = np.zeros((3, 4))
        with pytest.raises(ShapeError):
            kl_kd_loss(z, soft_targets(np.zeros((2, 4)), 1.0), 1.0)


class TestEntropy:
    def test_uniform_four_classes(self):
        assert abs(entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12

    def test_one_hot(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_two_class_value(self):
        assert abs(entropy(np.array([0.7311, 0.2689])) - 0.5822) < 1e-3

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            entropy(np.array([1.1, -0.1]))

    def test_batch_entropy_range(self):
        probs = softmax_t(np.random.default_rng(18).normal(0, 3, size=(10, 5)), 2.0)
        ent = batch_entropy(probs)
        assert np.all((ent >= 0.0) & (ent <= np.log(5) + 1e-12))


class TestMethodConfig:
    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            MethodConfig("fancy")

    def test_unknown_method_lists_valid_names(self):
        # The wording `cdbench` prints for an unknown method in a config.
        valid = "valid methods: kl, ls, dkd, mds, self_distill, se2d"
        with pytest.raises(InvalidArgumentError, match=f"^unknown method 'fancy'; {valid}$"):
            MethodConfig("fancy")

    def test_bad_quantile_band(self):
        with pytest.raises(InvalidArgumentError, match="mds_low_q"):
            RunConfig(mds_low_q=0.9, mds_high_q=0.1)

    @pytest.mark.parametrize("field", ["dkd_alpha", "dkd_beta"])
    def test_nan_rejected(self, field):
        with pytest.raises(InvalidArgumentError, match=field):
            RunConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["dkd_alpha", "dkd_beta"])
    def test_infinity_rejected(self, field):
        with pytest.raises(InvalidArgumentError, match=field):
            RunConfig(**{field: float("inf")})

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.dkd_alpha == 1.0 and cfg.dkd_beta == 8.0
        assert (cfg.mds_low_q, cfg.mds_high_q) == (0.25, 0.75)
