import collections
import math

import numpy as np
import pytest

import loss_reference as ref
from elball import trainer
from elball.embeddings import TOP_RADIUS, EmbeddingSet, table_views
from elball.family import family_ontology
from elball.losses import LossBatch
from elball.normalizer import eliminate_abox, normalize
from elball.trainer import (
    Adam,
    TrainConfig,
    TrainingError,
    generate_negatives,
    init_embeddings,
    train,
)


@pytest.fixture(scope="module")
def family_theory():
    return normalize(eliminate_abox(family_ontology()))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.dim == 50
        assert cfg.margin == -0.1
        assert cfg.learning_rate == 0.01
        adam = Adam(lr=0.01)
        assert (adam.beta1, adam.beta2, adam.eps) == (0.9, 0.999, 1e-8)
        assert cfg.negatives_per_positive == 1
        assert cfg.steps_per_epoch == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"batch_size": 0},
            {"epochs": -1},
            {"negatives_per_positive": -1},
            {"steps_per_epoch": 0},
            {"neg_mode": "sometimes"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", 0.0),
            ("learning_rate", -0.01),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("margin", math.inf),
            ("margin", -math.inf),
            ("margin", math.nan),
        ],
    )
    def test_refuses_a_rate_or_margin_that_makes_training_meaningless(self, field, value):
        with pytest.raises(TrainingError, match=f"^{field} must be"):
            TrainConfig(**{field: value})


class TestAdam:
    def test_first_step_hand_value(self):
        params = {"x": np.array([0.5])}
        grads = {"x": np.array([1.0])}
        state = Adam(lr=0.01)
        state.step(params, grads)
        # bias-corrected ratio is 1 up to eps, so the step is the full lr
        assert params["x"][0] == pytest.approx(0.49, abs=1e-6)

    def test_zero_gradient_is_noop(self):
        params = {"x": np.array([0.5, -0.25])}
        state = Adam(lr=0.01)
        state.step(params, {"x": np.zeros(2)})
        assert np.array_equal(params["x"], [0.5, -0.25])
        assert state.t == 1

    def test_constant_gradient_moves_monotonically(self):
        params = {"x": np.array([1.0])}
        state = Adam(lr=0.01)
        seen = [params["x"][0]]
        for _ in range(5):
            state.step(params, {"x": np.array([2.0])})
            seen.append(params["x"][0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    @pytest.mark.parametrize("shape", [(9, 4), (9,)])
    def test_in_place_step_matches_out_of_place_formula(self, shape):
        rng = np.random.default_rng(7)
        start = rng.normal(size=shape)
        fast, slow = Adam(lr=0.05), Adam(lr=0.05)
        p_fast, p_slow = {"x": start.copy()}, {"x": start.copy()}
        for _ in range(300):
            grad = rng.normal(size=shape) * (rng.uniform(size=shape) < 0.2)
            fast.step(p_fast, {"x": grad})
            ref.adam_step(slow, p_slow, {"x": grad})
            assert p_fast["x"].tobytes() == p_slow["x"].tobytes()
        assert fast.m["x"].tobytes() == slow.m["x"].tobytes()
        assert fast.v["x"].tobytes() == slow.v["x"].tobytes()

    def test_packed_buffer_matches_separate_tables(self):
        rng = np.random.default_rng(8)
        e = EmbeddingSet(rng.normal(size=(9, 4)), rng.normal(size=9), rng.normal(size=(2, 4)))
        theta, packed = e.packed()
        assert all(
            np.shares_memory(getattr(packed, name), theta)
            for name in ("class_centers", "class_radii", "rel_vectors")
        )
        tables = {
            "class_centers": e.class_centers,
            "class_radii": e.class_radii,
            "rel_vectors": e.rel_vectors,
        }
        separate, whole = Adam(lr=0.05), Adam(lr=0.05)
        for _ in range(300):
            flat = rng.normal(size=theta.size) * (rng.uniform(size=theta.size) < 0.2)
            separate.step(tables, dict(zip(tables, table_views(flat, e.n_classes, e.dim))))
            whole.step({"params": theta}, {"params": flat})
        for name, table in tables.items():
            assert getattr(packed, name).tobytes() == table.tobytes(), name


class TestInit:
    def test_deterministic(self, family_theory):
        cfg = TrainConfig(dim=4, seed=3)
        e1 = init_embeddings(family_theory, cfg)
        e2 = init_embeddings(family_theory, cfg)
        assert np.array_equal(e1.class_centers, e2.class_centers)
        assert np.array_equal(e1.class_radii, e2.class_radii)
        assert np.array_equal(e1.rel_vectors, e2.rel_vectors)

    def test_seed_changes_values(self, family_theory):
        e1 = init_embeddings(family_theory, TrainConfig(dim=4, seed=3))
        e2 = init_embeddings(family_theory, TrainConfig(dim=4, seed=4))
        assert not np.array_equal(e1.class_centers, e2.class_centers)

    def test_values_in_unit_interval(self, family_theory):
        e = init_embeddings(family_theory, TrainConfig(dim=2, seed=0))
        trainable = np.delete(e.class_radii, e.top)
        assert np.all((trainable >= 0) & (trainable < 1))
        assert np.all((e.class_centers[1:] >= 0) & (e.class_centers[1:] < 1))
        assert e.class_radii[e.top] == TOP_RADIUS

    def test_family_symbol_counts(self, family_theory):
        e = init_embeddings(family_theory, TrainConfig(dim=2))
        # Male, Female, Person, Father, Mother, Parent plus Top and Bot
        assert e.n_classes == 8
        assert e.n_relations == 1
        assert e.dim == 2


class TestNegatives:
    NF3 = [(2, 0, 3)]

    def test_k_zero(self, rng):
        assert generate_negatives(self.NF3, [2, 3, 4], 0, rng) == ([], 0)

    def test_corruption_shape(self, rng):
        negatives, skipped = generate_negatives(self.NF3, [2, 3, 4], 5, rng)
        assert skipped == 0 and len(negatives) == 5
        for c, r, d in negatives:
            assert r == 0
            assert (c, d) != (2, 3)
            # exactly one slot differs from the positive
            assert (c == 2) != (d == 3)
            assert (c, r, d) not in set(self.NF3)

    def test_complete_graph_skips_with_warning(self, rng, caplog):
        nf3 = [(c, 0, d) for c in (2, 3, 4) for d in (2, 3, 4)]
        with caplog.at_level("WARNING"):
            negatives, skipped = generate_negatives(nf3, [2, 3, 4], 1, rng)
        assert negatives == []
        assert skipped == len(nf3)
        assert "skipped" in caplog.text

    def test_no_positives(self, rng):
        assert generate_negatives([], [], 1, rng) == ([], 0)

    def test_no_candidates(self, rng):
        with pytest.raises(TrainingError):
            generate_negatives(self.NF3, [], 1, rng)

    def test_deterministic(self):
        r1 = generate_negatives(self.NF3, [2, 3, 4, 5], 4, np.random.default_rng(9))
        r2 = generate_negatives(self.NF3, [2, 3, 4, 5], 4, np.random.default_rng(9))
        assert r1 == r2


class TestTrain:
    def test_empty_theory_rejected(self):
        from elball.ontology import parse_ontology

        empty = normalize(parse_ontology(""))
        with pytest.raises(TrainingError):
            train(empty, TrainConfig(dim=2, epochs=1))

    def test_zero_epochs_returns_init(self, family_theory):
        cfg = TrainConfig(dim=2, epochs=0, seed=5)
        e, trace = train(family_theory, cfg)
        init = init_embeddings(family_theory, cfg)
        assert np.array_equal(e.class_centers, init.class_centers)
        assert np.array_equal(e.class_radii, init.class_radii)
        assert trace.minibatch == []

    def test_bitwise_determinism(self, family_theory):
        cfg = TrainConfig(dim=2, margin=0.0, epochs=50, batch_size=8, seed=11)
        e1, t1 = train(family_theory, cfg)
        e2, t2 = train(family_theory, cfg)
        assert np.array_equal(e1.class_centers, e2.class_centers)
        assert np.array_equal(e1.class_radii, e2.class_radii)
        assert np.array_equal(e1.rel_vectors, e2.rel_vectors)
        assert t1.minibatch == t2.minibatch

    def test_radii_non_negative_and_top_frozen(self, family_theory):
        cfg = TrainConfig(dim=2, margin=0.0, epochs=200, batch_size=8, seed=1)
        init = init_embeddings(family_theory, cfg)
        e, _ = train(family_theory, cfg)
        assert np.all(e.class_radii >= 0)
        assert np.array_equal(e.class_centers[e.top], init.class_centers[e.top])
        assert e.class_radii[e.top] == TOP_RADIUS

    def test_loss_decreases(self, family_theory):
        cfg = TrainConfig(
            dim=2, margin=0.0, epochs=400, batch_size=16, seed=42, eval_every=100
        )
        _, trace = train(family_theory, cfg)
        assert [epoch for epoch, _ in trace.full] == [100, 200, 300, 400]
        losses = [loss for _, loss in trace.full]
        assert losses[-1] < losses[0]
        assert len(trace.minibatch) == 400

    def test_non_finite_loss_names_bucket(self, monkeypatch):
        from elball.ontology import parse_ontology

        theory = normalize(parse_ontology("A < B\nC < r some D\n"))
        poisoned = list(theory.classes).index("D")

        def init_with_nan(theory, cfg):
            e = init_embeddings(theory, cfg)
            e.class_centers[poisoned, 0] = np.nan
            return e

        monkeypatch.setattr(trainer, "init_embeddings", init_with_nan)
        with pytest.raises(TrainingError, match="epoch 0 in bucket NF3"):
            train(theory, TrainConfig(dim=2, epochs=3, batch_size=4, seed=0))

    def test_fresh_negatives_mode_runs(self, family_theory):
        cfg = TrainConfig(
            dim=2, margin=0.0, epochs=10, batch_size=4, seed=2, neg_mode="fresh"
        )
        e, trace = train(family_theory, cfg)
        assert len(trace.minibatch) == 10
        assert np.all(np.isfinite(e.class_centers))

    def test_theory_without_corruptible_nf3_rows(self):
        # each NF3 row has Top as its filler, so no mode has a row to corrupt
        from elball.ontology import parse_ontology

        theory = normalize(parse_ontology("A < B\nA < r some Top\nB < r some Top\n"))
        assert len(theory.nf3) == 2
        (static, t_static), (fresh, t_fresh) = [
            train(theory, TrainConfig(dim=2, epochs=5, batch_size=4, seed=3, neg_mode=mode))
            for mode in trainer.NEG_MODES
        ]
        assert len(t_static.minibatch) == 5 and np.isfinite(t_static.minibatch).all()
        # neither mode draws from the generator for negatives
        assert t_static.minibatch == t_fresh.minibatch
        assert np.array_equal(static.class_centers, fresh.class_centers)
        assert np.array_equal(static.class_radii, fresh.class_radii)
        assert np.array_equal(static.rel_vectors, fresh.rel_vectors)

    def test_calls_go_through_module_names(self, monkeypatch):
        # the benchmark's traced run times training by patching these names
        from elball.ontology import parse_ontology

        theory = normalize(parse_ontology("A < B\nC < r some D\nB < r some C\n"))
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                if name == "batch_gradient":
                    assert isinstance(args[0], LossBatch)
                return fn(*args)

            return wrapper

        for name in ("batch_gradient", "generate_negatives"):
            monkeypatch.setattr(trainer, name, counting(name, getattr(trainer, name)))
        monkeypatch.setattr(trainer.Adam, "step", counting("Adam.step", trainer.Adam.step))
        cfg = TrainConfig(
            dim=2, epochs=7, steps_per_epoch=3, batch_size=4, seed=0, neg_mode="fresh"
        )
        train(theory, cfg)
        assert calls == {"batch_gradient": 21, "Adam.step": 21, "generate_negatives": 8}


# Top on a left-hand side: check_model reads such an axiom as inf, and its
# loss is a constant near TOP_RADIUS that two rows of a minibatch overflow
@pytest.mark.parametrize(
    "axiom, form",
    [
        ("Top < A", "NF1"),
        ("Top and Top < A", "NF2"),
        ("Top < r some A", "NF3"),
        ("Top < Bot", "Bot1"),
        ("Top and A < Bot", "Bot2"),
        ("r some Top < Bot", "Bot4"),
    ],
)
def test_refuses_axioms_top_makes_unsatisfiable_before_the_first_step(axiom, form, monkeypatch):
    from elball.ontology import parse_ontology

    theory = normalize(parse_ontology(f"A < B\nC < r some D\n{axiom}\n"))
    steps = []
    monkeypatch.setattr(trainer, "batch_gradient", lambda *args: steps.append(args))
    with pytest.raises(TrainingError) as exc:
        train(theory, TrainConfig(dim=2, epochs=5, batch_size=4))
    assert str(exc.value) == (
        f"{form} axiom '{axiom}' has Top on its left-hand side, which no ball embedding satisfies"
    )
    assert not steps


def test_top_where_it_holds_still_trains():
    from elball.ontology import parse_ontology

    theory = normalize(
        parse_ontology("A < Top\nTop < Top\nA < r some Top\nr some Top < A\nTop and A < B\n")
    )
    e, trace = train(theory, TrainConfig(dim=2, epochs=5, batch_size=4))
    assert np.isfinite(trace.minibatch).all()
