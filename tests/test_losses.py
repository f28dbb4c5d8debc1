import math

import numpy as np
import pytest

import loss_reference as ref
from elball.embeddings import EmbeddingSet, TOP_RADIUS
from elball.losses import LossBatch, MissingSymbolError, _forward, batch_gradient, batch_loss, bucket_losses

C, D, E = 2, 3, 4
R = 0

SQRT2 = math.sqrt(2.0)


def embed(centers, radii, rels=None):
    rels = rels if rels is not None else [[0.0, 0.0]]
    e = EmbeddingSet(
        np.asarray(centers, dtype=float),
        np.asarray(radii, dtype=float),
        np.asarray(rels, dtype=float),
    )
    e.class_radii[e.top] = TOP_RADIUS
    return e


def one(e, bucket, row, gamma=0.0):
    """batch_loss of a batch holding one row of one bucket; row layouts as in LossBatch."""
    return batch_loss(LossBatch(gamma, **{bucket: np.asarray([row], dtype=np.intp)}), e)


def embed3(c, rc, d, rd, e_center=(1, 0), re_=0.0, rel=(0, 0)):
    centers = [(1, 0), (1, 0), c, d, e_center]
    radii = [0, 0, rc, rd, re_]
    return embed(centers, radii, [list(rel)])


class TestScalarValues:
    def test_nf1_contained_zero(self):
        e = embed3((1, 0), 0.3, (1, 0), 0.5)
        assert one(e, "nf1", (C, D), 0.0) == 0.0

    def test_nf1_offset(self):
        e = embed3((0, 1), 0.5, (1, 0), 0.3)
        assert one(e, "nf1", (C, D), 0.0) == pytest.approx(SQRT2 + 0.2)

    def test_nf1_norm_terms_only(self):
        e = embed3((2, 0), 0.1, (2, 0), 0.5)
        assert one(e, "nf1", (C, D), 0.0) == pytest.approx(2.0)

    def test_nf2_identical_balls(self):
        e = embed3((1, 0), 0.5, (1, 0), 0.5, e_center=(1, 0), re_=0.5)
        assert one(e, "nf2", (C, D, E), 0.0) == 0.0

    def test_nf2_term_by_term(self):
        e = embed3((1, 0), 0.1, (-1, 0), 0.1, e_center=(1, 0), re_=0.1)
        # printed max terms: 1.8 (disjoint operands) + 0 + 1.9 + 0
        assert one(e, "nf2", (C, D, E), 0.0) == pytest.approx(3.7)

    def test_nf2_disjoint_only_violation(self):
        e = embed3((1, 0), 0.1, (0, 1), 0.1, e_center=(1, 0), re_=0.2)
        expected = (SQRT2 - 0.2) + 0.0 + (SQRT2 - 0.1) + 0.0
        assert one(e, "nf2", (C, D, E), 0.0) == pytest.approx(expected)

    def test_nf3_exact_translation(self):
        e = embed3((0, 1), 0.1, (1, 0), 0.1, rel=(1, -1))
        assert one(e, "nf3", (C, R, D), 0.0) == 0.0

    def test_nf3_radius_excess(self):
        e = embed3((0, 1), 0.3, (0, 1), 0.1, rel=(0, 0))
        assert one(e, "nf3", (C, R, D), 0.0) == pytest.approx(0.2)

    def test_nf3_negative_margin(self):
        e = embed3((0, 1), 0.1, (1, 0), 0.1, rel=(1, -1))
        assert one(e, "nf3", (C, R, D), -0.1) == pytest.approx(0.1)

    def test_nf4_translated_back_match(self):
        e = embed3((1, 0), 0.1, (0, 1), 0.1, rel=(1, -1))
        assert one(e, "nf4", (R, C, D), 0.0) == 0.0

    def test_nf4_unit_gap(self):
        e = embed3((1, 0), 0.1, (0.5, math.sqrt(3) / 2), 0.1, rel=(0, 0))
        assert one(e, "nf4", (R, C, D), 0.0) == pytest.approx(0.8)

    def test_bot2_distant(self):
        e = embed3((1, 0), 0.1, (0, 1), 0.1)
        assert one(e, "bot2", (C, D), 0.0) == 0.0

    def test_bot2_coincident(self):
        e = embed3((1, 0), 0.6, (1, 0), 0.6)
        assert one(e, "bot2", (C, D), 0.0) == pytest.approx(1.2)
        assert one(e, "bot2", (C, D), 0.1) == pytest.approx(1.3)

    def test_bot1_is_radius(self):
        e = embed3((1, 0), 0.0, (1, 0), 0.0)
        assert one(e, "bot1", C) == 0.0
        e.class_radii[C] = 0.7
        assert one(e, "bot1", C) == pytest.approx(0.7)

    def test_bot4_ignores_relation(self):
        e = embed3((1, 0), 0.7, (1, 0), 0.0, rel=(3, -2))
        assert one(e, "bot4", (R, C)) == pytest.approx(0.7)
        assert one(e, "bot4", (R, C)) == one(e, "bot1", C)

    def test_neg_far_apart(self):
        e = embed3((1, 0), 0.1, (-1, 0), 0.1, rel=(0, 0))
        assert one(e, "neg", (C, R, D), 0.0) == 0.0

    def test_neg_coincident(self):
        e = embed3((1, 0), 0.1, (1, 0), 0.1, rel=(0, 0))
        assert one(e, "neg", (C, R, D), 0.0) == pytest.approx(0.2)
        assert one(e, "neg", (C, R, D), -0.1) == pytest.approx(0.1)

    def test_missing_symbol(self):
        e = embed3((1, 0), 0.1, (1, 0), 0.1)
        with pytest.raises(MissingSymbolError):
            one(e, "nf1", (C, 99), 0.0)
        with pytest.raises(MissingSymbolError):
            one(e, "nf3", (C, 5, D), 0.0)


class TestLossProperties:
    def test_non_negative(self, rng):
        for _ in range(100):
            e = embed(rng.normal(0, 1, (5, 2)), rng.uniform(0, 1, 5), rng.normal(0, 1, (1, 2)))
            g = rng.uniform(-0.1, 0.1)
            assert one(e, "nf1", (C, D), g) >= 0
            assert one(e, "nf2", (C, D, E), g) >= 0
            assert one(e, "nf3", (C, R, D), g) >= 0
            assert one(e, "nf4", (R, C, D), g) >= 0
            assert one(e, "bot2", (C, D), g) >= 0
            assert one(e, "neg", (C, R, D), g) >= 0

    def test_nf1_geometric_term_translation_invariant(self, rng):
        # the hinge depends only on relative geometry; verify with unit-norm
        # preserving rotations instead of translations
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        for _ in range(20):
            centers = rng.normal(0, 1, (5, 2))
            radii = rng.uniform(0, 1, 5)
            e1 = embed(centers, radii)
            e2 = embed(centers @ rot.T, radii)
            assert one(e1, "nf1", (C, D), 0.0) == pytest.approx(one(e2, "nf1", (C, D), 0.0))

    def test_top_norm_terms_skipped(self):
        # Top's center is not pushed to the unit sphere and contributes no
        # normalization penalty even when an axiom mentions it
        e = embed3((1, 0), 0.2, (1, 0), 0.5)
        e.class_centers[e.top] = [7.0, 7.0]
        assert one(e, "nf1", (C, 0), 0.0) == 0.0


class TestBatch:
    def test_empty_batch(self):
        e = embed3((1, 0), 0.1, (1, 0), 0.2)
        assert batch_loss(LossBatch(gamma=0.0), e) == 0.0

    def test_single_tuple_matches_scalar_op(self):
        e = embed3((0, 1), 0.5, (1, 0), 0.3)
        batch = LossBatch(gamma=0.0, nf1=np.array([[C, D]]))
        assert batch_loss(batch, e) == pytest.approx(ref.batch_loss(batch, e))

    def test_additivity(self):
        e = embed3((0, 1), 0.5, (1, 0), 0.3)
        batch = LossBatch(gamma=0.0, nf1=np.array([[C, D], [D, C]]))
        assert batch_loss(batch, e) == pytest.approx(
            one(e, "nf1", (C, D), 0.0) + one(e, "nf1", (D, C), 0.0)
        )

    def test_bucket_keys(self):
        e = embed(np.ones((5, 2)), [0, 0, 0.1, 0.2, 0.3], [[0.5, 0.5]])
        batch = LossBatch(
            gamma=0.0,
            nf1=np.array([[C, D]]),
            nf2=np.array([[C, D, E]]),
            nf3=np.array([[C, R, D]]),
            nf4=np.array([[R, C, D]]),
            bot1=np.array([C]),
            bot2=np.array([[C, D]]),
            bot4=np.array([[R, C]]),
            neg=np.array([[C, R, D]]),
        )
        per_bucket = bucket_losses(batch, e)
        assert set(per_bucket) == {"NF1", "NF2", "NF3", "NF4", "Bot1", "Bot2", "Bot4", "neg"}
        assert batch_loss(batch, e) == pytest.approx(sum(per_bucket.values()))

    def test_missing_symbol(self):
        e = embed3((1, 0), 0.1, (1, 0), 0.2)
        with pytest.raises(MissingSymbolError):
            batch_loss(LossBatch(gamma=0.0, nf1=np.array([[C, 9]])), e)

    @pytest.mark.parametrize("fn", [batch_loss, batch_gradient])
    @pytest.mark.parametrize(
        "rows",
        [
            {"nf1": [[-1, D]]},  # would wrap to the last class
            {"nf1": [[C, 5]]},  # one past the last class
            {"nf3": [[C, -1, D]]},  # would wrap to the last relation
            {"nf4": [[1, C, D]]},  # one past the last relation
            {"bot1": [-2]},
            {"bot4": [[R, 5]]},
            {"neg": [[C, R, -1]]},
        ],
    )
    def test_handle_outside_table_rejected(self, fn, rows):
        e = embed3((1, 0), 0.1, (1, 0), 0.2)
        batch = LossBatch(gamma=0.0, **{k: np.array(v) for k, v in rows.items()})
        with pytest.raises(MissingSymbolError):
            fn(batch, e)


# --- finite-difference gradient oracle -----------------------------------


def fd_gradient(batch, e, step=1e-5):
    out = e.zeros_like()
    for params, grads in (
        (e.class_centers, out.class_centers),
        (e.class_radii, out.class_radii),
        (e.rel_vectors, out.rel_vectors),
    ):
        flat_p = params.reshape(-1)
        flat_g = grads.reshape(-1)
        for i in range(flat_p.size):
            saved = flat_p[i]
            flat_p[i] = saved + step
            hi = batch_loss(batch, e)
            flat_p[i] = saved - step
            lo = batch_loss(batch, e)
            flat_p[i] = saved
            flat_g[i] = (hi - lo) / (2 * step)
    # Top is frozen; forcing its slots to zero mirrors the analytic contract
    out.class_centers[e.top] = 0.0
    out.class_radii[e.top] = 0.0
    return out


def random_setup(rng, n_classes=6, n_relations=2, dim=3):
    e = embed(
        rng.uniform(-1.2, 1.2, (n_classes, dim)),
        rng.uniform(0.05, 0.9, n_classes),
        rng.uniform(-1, 1, (n_relations, dim)),
    )
    def classes(rows, cols):
        return rng.integers(2, n_classes, size=(rows, cols))

    def rels(rows):
        return rng.integers(0, n_relations, size=(rows, 1))

    batch = LossBatch(
        gamma=float(rng.uniform(-0.1, 0.1)),
        nf1=classes(2, 2),
        nf2=classes(2, 3),
        nf3=np.hstack([classes(2, 1), rels(2), classes(2, 1)]),
        nf4=np.hstack([rels(2), classes(2, 2)]),
        bot1=classes(1, 1).ravel(),
        bot2=classes(2, 2),
        bot4=np.hstack([rels(1), classes(1, 1)]),
        neg=np.hstack([classes(1, 1), rels(1), classes(1, 1)]),
    )
    return batch, e


class TestGradients:
    def test_flat_region_zero_gradient(self):
        e = embed3((1, 0), 0.1, (1, 0), 0.5)
        batch = LossBatch(gamma=0.0, nf1=np.array([[C, D]]))
        g = batch_gradient(batch, e)
        assert not np.any(g.class_centers)
        assert not np.any(g.class_radii)
        assert not np.any(g.rel_vectors)

    def test_bot1_radius_gradient_is_one(self):
        e = embed3((1, 0), 0.4, (1, 0), 0.1)
        g = batch_gradient(LossBatch(gamma=0.0, bot1=np.array([C])), e)
        assert g.class_radii[C] == 1.0
        assert not np.any(g.class_centers)

    def test_top_gradient_zero(self):
        e = embed3((1, 0), 0.3, (1, 0), 0.1)
        e.class_centers[0] = [0.4, 0.4]
        batch = LossBatch(gamma=0.0, nf1=np.array([[0, C]]))
        g = batch_gradient(batch, e)
        assert not np.any(g.class_centers[0]) and g.class_radii[0] == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        batch, e = random_setup(rng)
        analytic = batch_gradient(batch, e)
        numeric = fd_gradient(batch, e)
        for a, n in (
            (analytic.class_centers, numeric.class_centers),
            (analytic.class_radii, numeric.class_radii),
            (analytic.rel_vectors, numeric.rel_vectors),
        ):
            err = np.abs(a - n) / np.maximum(1.0, np.abs(n))
            assert err.max() < 1e-4

    def test_gradient_additivity(self):
        e = embed3((0, 1), 0.5, (1, 0), 0.3)
        g1 = batch_gradient(LossBatch(gamma=0.0, nf1=np.array([[C, D]])), e)
        g2 = batch_gradient(LossBatch(gamma=0.0, bot2=np.array([[C, D]])), e)
        both = batch_gradient(
            LossBatch(gamma=0.0, nf1=np.array([[C, D]]), bot2=np.array([[C, D]])), e
        )
        assert np.allclose(both.class_centers, g1.class_centers + g2.class_centers)
        assert np.allclose(both.class_radii, g1.class_radii + g2.class_radii)


# --- the fused pass against the loop-shaped reference ---------------------


def _close(got, want, tol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same = got == want  # equal infinities from Top's sentinel radius
    with np.errstate(invalid="ignore"):
        near = np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))
    return bool(np.all(same | near))


def reference_setup(rng, n_classes=7, n_relations=2, dim=3):
    """Random batch over every handle, Top and Bot included, with repeated
    rows, an operand paired with itself, coincident centers and a zero
    relation vector, so zero directions and shared scatter targets occur."""
    centers = rng.uniform(-1.2, 1.2, (n_classes, dim))
    centers[4] = centers[3]
    rels = rng.uniform(-1, 1, (n_relations, dim))
    rels[1] = 0.0
    e = embed(centers, rng.uniform(0.0, 0.9, n_classes), rels)

    def rows(width, rel_cols=()):
        base = rng.integers(1, n_classes, size=(int(rng.integers(2, 6)), width))
        class_cols = [i for i in range(width) if i not in rel_cols]
        for col in rel_cols:
            base[:, col] = rng.integers(0, n_relations, size=len(base))
        base[0, class_cols] = rng.choice([3, 4])
        if rng.uniform() < 0.5:
            base[1, rng.choice(class_cols)] = e.top
        return base[rng.integers(len(base), size=int(rng.integers(1, 12)))]

    buckets = {
        "nf1": rows(2),
        "nf2": rows(3),
        "nf3": rows(3, (1,)),
        "nf4": rows(3, (0,)),
        "bot1": rows(1)[:, 0],
        "bot2": rows(2),
        "bot4": rows(2, (0,)),
        "neg": rows(3, (1,)),
    }
    kept = {k: v for k, v in buckets.items() if rng.uniform() < 0.8}
    return LossBatch(gamma=float(rng.uniform(-0.1, 0.1)), **kept), e


class TestFusedMatchesReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_loss_and_gradient(self, seed):
        batch, e = reference_setup(np.random.default_rng(seed))
        with np.errstate(over="ignore", invalid="ignore"):
            want_buckets = ref.bucket_losses(batch, e)
            want_grad = ref.batch_gradient(batch, e)
            got_buckets = bucket_losses(batch, e)
            got_loss = batch_loss(batch, e)
            got_grad = batch_gradient(batch, e)
            want_loss = ref.batch_loss(batch, e)
        assert set(got_buckets) == set(want_buckets)
        for key, value in want_buckets.items():
            assert _close(got_buckets[key], value), key
        assert _close(got_loss, want_loss)
        assert _close(got_grad.loss, want_loss)
        for name in ("class_centers", "class_radii", "rel_vectors"):
            assert _close(getattr(got_grad, name), getattr(want_grad, name)), name

    @pytest.mark.parametrize("seed", range(40))
    def test_gradient_carries_bucket_losses(self, seed):
        batch, e = reference_setup(np.random.default_rng(seed))
        with np.errstate(over="ignore", invalid="ignore"):
            grad = batch_gradient(batch, e)
            assert grad.buckets == bucket_losses(batch, e)
        assert grad.loss == sum(grad.buckets.values())


# --- the coefficient table across bucket sizes -----------------------------

COLUMNS = {
    "nf1": "cc",
    "nf2": "ccc",
    "nf3": "crc",
    "nf4": "rcc",
    "bot1": "c",
    "bot2": "cc",
    "bot4": "rc",
    "neg": "crc",
}


def table_batches():
    """Batches of many bucket subsets and sizes, each one's plan different:
    one row, each bucket alone, all eight buckets, and an NF2 radius tie."""
    rng = np.random.default_rng(17)
    n_classes, n_relations = 7, 2

    def rows(name, n):
        cols = [
            rng.integers(0, n_relations, n) if kind == "r" else rng.integers(1, n_classes, n)
            for kind in COLUMNS[name]
        ]
        return cols[0] if len(cols) == 1 else np.stack(cols, axis=1)

    gamma = 0.05
    out = [LossBatch(gamma, nf1=rows("nf1", 1))]
    out += [LossBatch(gamma, **{name: rows(name, 1)}) for name in COLUMNS]
    out += [LossBatch(gamma, **{name: rows(name, 4)}) for name in COLUMNS]
    out.append(LossBatch(gamma, **{name: rows(name, 1) for name in COLUMNS}))
    out.append(LossBatch(gamma, **{name: rows(name, 2 + i) for i, name in enumerate(COLUMNS)}))
    # classes 3 and 4 share a radius: NF2's smaller operand is then c
    out.append(LossBatch(0.0, nf2=np.array([[3, 4, 5], [4, 3, 5], [3, 4, 6]]), nf1=rows("nf1", 2)))
    # radius-only forms alone (no center rows), NF2 alone (a radius-only row
    # inside its form), and all eight buckets at sizes of their own
    out.append(LossBatch(gamma, bot1=rows("bot1", 3), bot4=rows("bot4", 2)))
    out.append(LossBatch(gamma, nf2=rows("nf2", 5)))
    out.append(LossBatch(gamma, **{name: rows(name, 9 - i) for i, name in enumerate(COLUMNS)}))
    return out


class TestTablePlans:
    def test_every_size_tuple_matches_reference(self):
        rng = np.random.default_rng(4)
        radii = rng.uniform(0.05, 0.9, 7)
        radii[3] = radii[4] = 0.6
        radii[5] = 0.1
        e = embed(rng.uniform(-1.2, 1.2, (7, 3)), radii, rng.uniform(-1, 1, (2, 3)))
        batches = table_batches()
        # forward then backward, so each memoized plan is met again after others
        for batch in batches + batches[::-1]:
            want_buckets = ref.bucket_losses(batch, e)
            want_grad = ref.batch_gradient(batch, e)
            got_buckets = bucket_losses(batch, e)
            got_grad = batch_gradient(batch, e)
            assert list(got_buckets) == list(want_buckets)
            for key, value in want_buckets.items():
                assert _close(got_buckets[key], value), key
            assert _close(batch_loss(batch, e), ref.batch_loss(batch, e))
            assert _close(got_grad.loss, ref.batch_loss(batch, e))
            for name in ("class_centers", "class_radii", "rel_vectors"):
                assert _close(getattr(got_grad, name), getattr(want_grad, name)), name

    def test_nf2_tie_goes_to_first_operand(self):
        e = embed3((1, 0), 0.6, (1, 0), 0.6, e_center=(1, 0), re_=0.1)
        g = batch_gradient(LossBatch(0.0, nf2=np.array([[C, D, E]])), e)
        # min(r(c), r(d)) - r(e) > 0 pushes r(c) down, not r(d)
        assert g.class_radii[C] == 1.0
        assert g.class_radii[D] == 0.0
        assert g.class_radii[E] == -1.0

    def test_gradient_tables_are_views_of_flat(self):
        e = embed3((0, 1), 0.5, (1, 0), 0.3, rel=(0.5, 0.5))
        g = batch_gradient(LossBatch(0.0, nf3=np.array([[C, R, D]])), e)
        assert g.flat.size == e.class_centers.size + e.class_radii.size + e.rel_vectors.size
        for table in (g.class_centers, g.class_radii, g.rel_vectors):
            assert np.shares_memory(table, g.flat)
        assert np.array_equal(
            g.flat, np.concatenate([g.class_centers.ravel(), g.class_radii, g.rel_vectors.ravel()])
        )

    def test_bucket_of_wrong_width_rejected(self):
        e = embed3((1, 0), 0.1, (1, 0), 0.2)
        with pytest.raises(ValueError):
            batch_loss(LossBatch(0.0, nf1=np.array([[C, D, E]])), e)

    @pytest.mark.parametrize(
        "buckets, name",
        [
            # six handles in all, as the plan of two nf1 rows and two bot2
            # rows expects, but each bucket of the wrong width
            ({"nf1": [[2, 3, 4], [3, 4, 5]], "bot2": [[2], [3]]}, "nf1"),
            ({"nf1": [2, 3, 3, 2]}, "nf1"),
            ({"nf1": [[2, 3]], "bot4": [R, 2]}, "bot4"),
            ({"bot1": [[2, 3]]}, "bot1"),
        ],
    )
    @pytest.mark.parametrize("fn", [batch_loss, batch_gradient])
    def test_each_bucket_width_checked(self, fn, buckets, name):
        e = embed(np.ones((6, 2)), [0, 0, 0.1, 0.2, 0.3, 0.4])
        batch = LossBatch(0.1, **{k: np.array(v) for k, v in buckets.items()})
        with pytest.raises(ValueError, match=f"^LossBatch bucket {name} has rows of shape"):
            fn(batch, e)

    def test_width_one_bucket_may_be_a_column(self):
        # check_model hands Bot1 rows over as an (n, 1) block
        e = embed3((1, 0), 0.1, (1, 0), 0.2)
        flat, column = (LossBatch(0.0, bot1=np.array(rows)) for rows in ([C, D], [[C], [D]]))
        assert bucket_losses(flat, e) == bucket_losses(column, e)
        assert batch_gradient(flat, e).flat.tobytes() == batch_gradient(column, e).flat.tobytes()


# --- radius-only rows and the run's scratch arrays ---------------------------


def center_batch(rng, n_classes=7, n_relations=2):
    """A batch of every form that has center rows, each with repeated handles."""
    def rows(kinds, n):
        cols = [rng.integers(0, n_relations, n) if k == "r" else rng.integers(1, n_classes, n) for k in kinds]
        return np.stack(cols, axis=1)

    names = ("nf1", "nf2", "nf3", "nf4", "bot2", "neg")
    return {name: rows(COLUMNS[name], int(rng.integers(3, 9))) for name in names}


class TestRadiusOnlyRowsAndWorkspace:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.e = embed(rng.uniform(-1.2, 1.2, (7, 3)), rng.uniform(0.05, 0.9, 7), rng.uniform(-1, 1, (2, 3)))
        self.rng = rng

    @pytest.mark.parametrize("seed", range(5))
    def test_radius_only_rows_leave_center_and_relation_gradient_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        rows = center_batch(rng)
        extra = {"bot1": rng.integers(1, 7, 4), "bot4": np.stack([rng.integers(0, 2, 3), rng.integers(1, 7, 3)], 1)}
        without = batch_gradient(LossBatch(0.05, **rows), self.e)
        with_ = batch_gradient(LossBatch(0.05, **rows, **extra), self.e)
        assert with_.class_centers.tobytes() == without.class_centers.tobytes()
        assert with_.rel_vectors.tobytes() == without.rel_vectors.tobytes()
        assert not np.array_equal(with_.class_radii, without.class_radii)

    def test_workspace_gives_the_same_bits_as_none(self):
        work = {}
        batches = [center_batch(self.rng) for _ in range(3)]
        batches[1]["bot1"] = np.array([2, 3])  # another plan between two of the same shape
        batches[2] = {k: v[::-1].copy() for k, v in batches[0].items()}
        for rows in batches + batches:
            shared = batch_gradient(LossBatch(0.05, **rows, work=work), self.e)
            fresh = batch_gradient(LossBatch(0.05, **rows), self.e)
            assert shared.flat.tobytes() == fresh.flat.tobytes()
            assert shared.buckets == fresh.buckets
            assert bucket_losses(LossBatch(0.05, **rows, work=work), self.e) == fresh.buckets
        assert work  # the scratch arrays stayed with the batches' dict

    def test_results_do_not_share_memory(self):
        work = {}
        rows = center_batch(self.rng)
        first = batch_gradient(LossBatch(0.05, **rows, work=work), self.e)
        kept = first.flat.copy()
        rows = {k: v[::-1].copy() for k, v in rows.items()}
        second = batch_gradient(LossBatch(0.05, **rows, work=work), self.e)
        assert not np.shares_memory(first.flat, second.flat)
        assert not any(np.shares_memory(first.flat, a) for a in work.values())
        assert first.flat.tobytes() == kept.tobytes()

    def test_workspace_is_not_part_of_equality_or_repr(self):
        rows = center_batch(self.rng)
        assert LossBatch(0.05, **rows, work={"y": np.zeros(3)}) == LossBatch(0.05, **rows)
        assert "work" not in repr(LossBatch(0.05, work={}))

    def test_empty_buckets_are_shared_and_read_only(self):
        a, b = LossBatch(0.0), LossBatch(0.1)
        for name in COLUMNS:
            assert getattr(a, name) is getattr(b, name)
            assert not getattr(a, name).flags.writeable
            assert getattr(a, name).shape[1:] == ((len(COLUMNS[name]),) if len(COLUMNS[name]) > 1 else ())

    def test_nothing_writes_into_a_batch(self):
        rows = center_batch(self.rng)
        rows["bot1"] = np.array([2, 3, 4])
        rows["bot4"] = np.array([[0, 2], [1, 5]])
        for array in rows.values():
            array.flags.writeable = False
        batch = LossBatch(0.05, **rows)
        batch_gradient(batch, self.e)
        bucket_losses(batch, self.e)
        partial = LossBatch(0.05, nf1=rows["nf1"])  # the other buckets are the shared empties
        batch_gradient(partial, self.e)
        bucket_losses(partial, self.e)


# --- values cached per batch shape -------------------------------------------


class TestShapeCaches:
    """The handle bounds, the s * gamma shifts and the scatter offsets are
    cached per batch shape; none may carry a value over to another call."""

    def test_a_larger_table_leaves_no_stale_bound(self):
        rows = {"nf1": np.array([[C, 5]]), "nf3": np.array([[C, 1, D]])}
        big = embed(np.ones((8, 2)), np.full(8, 0.5), np.zeros((2, 2)))
        batch_loss(LossBatch(0.0, **rows), big)  # in range on the larger tables
        small_classes = embed(np.ones((5, 2)), np.full(5, 0.5), np.zeros((2, 2)))
        with pytest.raises(MissingSymbolError, match="class handle 5 outside"):
            batch_loss(LossBatch(0.0, **rows), small_classes)
        small_relations = embed(np.ones((8, 2)), np.full(8, 0.5), np.zeros((1, 2)))
        with pytest.raises(MissingSymbolError, match="relation handle 1 outside"):
            batch_gradient(LossBatch(0.0, **rows), small_relations)

    def test_gamma_shifts_every_hinged_argument(self):
        batch, e = reference_setup(np.random.default_rng(5))
        rows = {name: getattr(batch, name) for name in COLUMNS}
        with np.errstate(over="ignore", invalid="ignore"):  # Top's sentinel radius
            args = {g: _forward(LossBatch(g, **rows), e)[-1] for g in (0.0, 0.25, 0.0, -0.5)}
            s = _forward(LossBatch(0.0, **rows), e)[0].s
            assert (s != 0).any()
            for g in (0.25, -0.5):
                assert _close(args[g], args[0.0] - s * g)

    def test_the_sign_of_a_zero_gamma_is_kept(self):
        # coincident Bot2 operands of radius -0.0: the argument is -0.0 - s * gamma,
        # which is 0.0 at gamma 0.0 and -0.0 at gamma -0.0
        e = embed(np.ones((4, 2)), [0.0, 0.0, -0.0, -0.0])
        rows = {"bot2": np.array([[C, D]])}
        signs = [np.signbit(_forward(LossBatch(g, **rows), e)[-1][0]) for g in (0.0, -0.0, 0.0)]
        assert signs == [False, True, False]

    def test_one_batch_at_two_dims_scatters_each_dim(self):
        batch, _ = reference_setup(np.random.default_rng(6))
        for dim in (3, 2, 3, 5):
            _, e = reference_setup(np.random.default_rng(6), dim=dim)
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = batch_gradient(batch, e), ref.batch_gradient(batch, e)
            for name in ("class_centers", "class_radii", "rel_vectors"):
                assert _close(getattr(got, name), getattr(want, name)), (dim, name)
