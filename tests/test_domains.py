import csv
from dataclasses import fields

import numpy as np
import pytest

from cdbench import (
    InvalidArgumentError,
    ScenarioSpec,
    balance_pair_stream,
    build_scenario,
    evaluate,
    generate_domain,
    generate_domains,
    mix_rows,
    train_teacher,
    write_domain_csv,
)
from cdbench.domains import DistillSet, DomainDataset, LabeledSet, _mix_selection


def row_set(features):
    return {tuple(np.round(row, 12)) for row in features}


def teacher_rows(scenario, t):
    domains = generate_domains(scenario.spec)
    ids = scenario.spec.teacher_domain_ids(t)
    return row_set(np.concatenate([domains[m].train.features for m in ids]))


def distill_parts(scenario):
    """The internal and the external rows of the distillation set."""
    ds = scenario.distill_set
    return ds.features[~ds.external_mask], ds.features[ds.external_mask]


class TestGenerateDomain:
    def test_bit_identical_regeneration(self):
        a = generate_domain(3, 1, 4, 8, 20)
        b = generate_domain(3, 1, 4, 8, 20)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.features, b.test.features)
        assert np.array_equal(a.train.labels, b.train.labels)

    def test_domains_share_labels_but_not_means(self):
        a = generate_domain(3, 0, 4, 8, 50)
        b = generate_domain(3, 1, 4, 8, 50)
        assert sorted(a.train.labels.tolist()) == sorted(b.train.labels.tolist())
        mean_gap = 0.0
        for c in range(4):
            ma = a.train.features[a.train.labels == c].mean(axis=0)
            mb = b.train.features[b.train.labels == c].mean(axis=0)
            mean_gap = max(mean_gap, float(np.linalg.norm(ma - mb)))
        assert mean_gap > 1.0

    def test_split_sizes_and_disjointness(self):
        ds = generate_domain(0, 0, 3, 6, 10)
        assert len(ds.train) == 24 and len(ds.test) == 6
        assert not (row_set(ds.train.features) & row_set(ds.test.features))
        for part in (ds.train, ds.test):
            assert set(part.labels.tolist()) == {0, 1, 2}

    def test_generated_domain_is_learnable(self, desk_config):
        ds = generate_domain(5, 0, 4, 8, 100)
        teacher = train_teacher(ds.train, desk_config, seed=9)
        assert evaluate(teacher, ds.test) >= 0.90

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_classes=1),
            dict(feature_dim=1),
            dict(feature_dim=3),  # below n_classes
            dict(n_per_class=3),
            dict(relation="sideways"),
        ],
    )
    def test_degenerate_arguments(self, kwargs):
        base = dict(seed=0, domain_id=0, n_classes=4, feature_dim=8, n_per_class=10)
        base.update(kwargs)
        with pytest.raises(InvalidArgumentError):
            generate_domain(
                base["seed"],
                base["domain_id"],
                base["n_classes"],
                base["feature_dim"],
                base["n_per_class"],
                relation=base.get("relation", "related"),
            )

    def test_unrelated_domain_differs_from_related(self):
        rel = generate_domain(4, 2, 4, 8, 20)
        unrel = generate_domain(4, 2, 4, 8, 20, relation="unrelated")
        assert not np.array_equal(rel.train.features, unrel.train.features)


def spec_for(ratio=0.5, seed=1, samples=20, shared=(0,), external=(4,)):
    return ScenarioSpec(
        n_classes=4,
        feature_dim=8,
        n_domains=5,
        shared_domains=shared,
        teacher_exclusive_domains=((1,), (2,), (3,)),
        external_domains=external,
        ed_ratio=ratio,
        samples_per_class=samples,
        seed=seed,
    )


class TestBuildScenario:
    def test_pairwise_teacher_intersections_equal_internal(self):
        scenario = build_scenario(spec_for())
        sets = [teacher_rows(scenario, t) for t in range(scenario.spec.n_teachers)]
        internal = row_set(distill_parts(scenario)[0])
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert sets[i] & sets[j] == internal

    def test_external_disjoint_from_teacher_sets(self):
        scenario = build_scenario(spec_for())
        external = row_set(distill_parts(scenario)[1])
        for t in range(scenario.spec.n_teachers):
            assert not (teacher_rows(scenario, t) & external)

    def test_distill_set_is_union_of_parts(self):
        scenario = build_scenario(spec_for())
        domains = generate_domains(scenario.spec)
        internal, external = distill_parts(scenario)
        assert row_set(internal) <= row_set(domains[0].train.features)
        assert row_set(external) <= row_set(domains[4].train.features)
        combined = row_set(internal) | row_set(external)
        assert row_set(scenario.distill_set.features) == combined

    def test_ratio_zero_gives_internal_only(self):
        scenario = build_scenario(spec_for(ratio=0.0))
        domains = generate_domains(scenario.spec)
        assert len(distill_parts(scenario)[1]) == 0
        assert np.array_equal(scenario.distill_set.features, domains[0].train.features)
        assert not scenario.distill_set.external_mask.any()

    def test_distill_set_carries_no_labels(self):
        scenario = build_scenario(spec_for())
        assert not hasattr(scenario.distill_set, "labels")

    def test_unseen_domains(self):
        assert spec_for().unseen_domains == (1, 2, 3)
        assert spec_for(ratio=0.0).unseen_domains == (1, 2, 3)

    def test_external_overlapping_teacher_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ScenarioSpec(
                n_classes=4,
                feature_dim=8,
                n_domains=5,
                shared_domains=(0,),
                teacher_exclusive_domains=((1,), (2,)),
                external_domains=(1,),
                ed_ratio=0.5,
                samples_per_class=20,
                seed=0,
            )

    def test_shared_exclusive_overlap_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ScenarioSpec(
                n_classes=4,
                feature_dim=8,
                n_domains=5,
                shared_domains=(0,),
                teacher_exclusive_domains=((0, 1), (2,)),
                external_domains=(4,),
                ed_ratio=0.0,
                samples_per_class=20,
                seed=0,
            )

    def test_deterministic_rebuild(self):
        a = build_scenario(spec_for())
        b = build_scenario(spec_for())
        assert np.array_equal(a.distill_set.features, b.distill_set.features)
        assert np.array_equal(a.distill_set.external_mask, b.distill_set.external_mask)
        domains_a, domains_b = generate_domains(spec_for()), generate_domains(spec_for())
        assert domains_a.keys() == domains_b.keys()
        for m in domains_a:
            assert np.array_equal(domains_a[m].train.features, domains_b[m].train.features)

    def test_scenario_keeps_the_test_splits(self):
        # A scenario holds each domain's test split, as generated, and no train split.
        scenario = build_scenario(spec_for())
        domains = generate_domains(scenario.spec)
        assert scenario.test_sets.keys() == domains.keys()
        for m, ds in domains.items():
            assert scenario.test_sets[m].features.tobytes() == ds.test.features.tobytes()
            assert scenario.test_sets[m].labels.tolist() == ds.test.labels.tolist()
        assert [f.name for f in fields(scenario)] == ["spec", "test_sets", "distill_set"]


def labeled(n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledSet(rng.normal(size=(n, dim)), rng.integers(0, 3, size=n))


def mixed(n_internal, n_external, ratio, dim=4):
    """The set mix_rows makes at `ratio` from stacked pools of these sizes."""
    internal, external = labeled(n_internal, dim), labeled(n_external, dim, seed=1)
    pools = DistillSet(
        np.concatenate([internal.features, external.features]),
        np.repeat([False, True], [n_internal, n_external]),
    )
    return pools.take(mix_rows(pools, ratio))


class TestMixRatio:
    def test_half_ratio(self):
        out = mixed(100, 150, 0.5)
        assert len(out) == 200
        assert out.external_mask.sum() == 100

    def test_zero_ratio(self):
        out = mixed(100, 50, 0.0)
        assert len(out) == 100 and not out.external_mask.any()

    def test_two_thirds_ratio(self):
        out = mixed(100, 300, 2.0 / 3.0)
        assert out.external_mask.sum() == 200 and len(out) == 300

    def test_larger_internal_pool_is_thinned(self):
        out = mixed(100, 100, 2.0 / 3.0)
        kept_internal = int((~out.external_mask).sum())
        assert out.external_mask.sum() == 100 and kept_internal == 50

    def test_ratio_within_one_sample(self):
        for ratio in (0.1, 0.25, 1 / 3, 0.5, 0.75):
            out = mixed(97, 113, ratio)
            achieved = out.external_mask.sum() / len(out)
            assert abs(achieved - ratio) <= 1.0 / len(out) + 1e-12

    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_empty_internal_pool_keeps_every_external_row(self, ratio):
        external = labeled(30, seed=1)
        out = mixed(0, 30, ratio)
        assert len(out) == 30 and out.external_mask.all()
        assert np.array_equal(out.features, external.features)

    def test_ratio_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mixed(10, 10, 1.0)

    def test_selection_is_deterministic(self):
        a = _mix_selection(100, 100, 0.4)
        b = _mix_selection(100, 100, 0.4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestBalancePairStream:
    def test_equal_pools_single_batch(self):
        batches = list(balance_pair_stream(64, 64, 64, 0))
        assert len(batches) == 1
        assert batches[0][0].shape == (64,) and batches[0][1].shape == (64,)

    def test_smaller_pool_oversampled(self):
        batches = list(balance_pair_stream(128, 64, 64, 0))
        assert len(batches) == 2
        n_ext = sum(len(b[1]) for b in batches)
        assert n_ext == 128
        assert all(((b[1] >= 0) & (b[1] < 64)).all() for b in batches)

    def test_oversampling_is_uniform(self):
        counts = np.zeros(2)
        for epoch in range(1000):
            for _, ie in balance_pair_stream(4, 2, 4, [7, epoch]):
                counts += np.bincount(ie, minlength=2)
        freq = counts / counts.sum()
        assert abs(freq[0] - 0.5) < 0.05

    def test_epoch_shuffle_covers_larger_pool(self):
        seen = np.concatenate([b[0] for b in balance_pair_stream(10, 3, 4, 1)])
        assert sorted(seen.tolist()) == list(range(10))

    def test_empty_pool_rejected(self):
        with pytest.raises(InvalidArgumentError):
            list(balance_pair_stream(0, 3, 2, 0))


class TestCsv:
    def test_round_trip_preserves_samples(self, tmp_path):
        ds = generate_domain(2, 1, 3, 4, 10)
        path = tmp_path / "domain.csv"
        write_domain_csv(ds, path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["feature_0", "feature_1", "feature_2", "feature_3", "label", "domain"]
        features = np.array([[float(v) for v in row[:4]] for row in rows])
        original = np.concatenate([ds.train.features, ds.test.features])
        assert features.tobytes() == original.tobytes()
        labels = np.concatenate([ds.train.labels, ds.test.labels])
        assert [int(row[4]) for row in rows] == labels.tolist()
        assert {int(row[5]) for row in rows} == {1}

    @staticmethod
    def csv_writer_bytes(ds, path):
        """What csv.writer writes for the same header and repr-formatted rows."""
        d = ds.train.features.shape[1]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"feature_{i}" for i in range(d)] + ["label", "domain"])
            for part in (ds.train, ds.test):
                for row, label in zip(part.features, part.labels):
                    writer.writerow([repr(float(v)) for v in row] + [int(label), ds.domain_id])
        return path.read_bytes()

    def test_bytes_match_a_csv_writer(self, tmp_path):
        # Negative, tiny, subnormal, huge, integral and signed-zero values.
        crafted = DomainDataset(
            4,
            LabeledSet([[-1.5, 1e-300, 3.0, -0.0], [5e-324, -2.5e300, 0.1, 7.0]], [2, 0]),
            LabeledSet([[1.0 / 3.0, -1e-7, 123456789.0, 2.0**-40]], [1]),
        )
        for ds in (crafted, generate_domain(2, 1, 3, 4, 10)):
            path = tmp_path / "domain.csv"
            write_domain_csv(ds, path)
            assert path.read_bytes() == self.csv_writer_bytes(ds, tmp_path / "reference.csv")
