import collections
import math

import numpy as np
import pytest

import loss_reference as ref
from elball import trainer
from elball.embeddings import TOP_RADIUS, EmbeddingSet, table_views
from elball.family import family_ontology
from elball.losses import LossBatch, batch_gradient, batch_loss
from elball.normalizer import NormalForm, eliminate_abox, normalize
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
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"dim": 2.5},
            {"epochs": 2.5},
            {"epochs": True},
            {"batch_size": 4.0},
            {"steps_per_epoch": 1.5},
            {"negatives_per_positive": 1.5},
            {"negatives_per_positive": np.float64(2.0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 2.5), ("epochs", True), ("batch_size", 4.0), ("steps_per_epoch", 1.5),
         ("negatives_per_positive", 1.5), ("dim", "3")],
    )
    def test_whole_number_fields_name_themselves(self, field, value):
        with pytest.raises(TrainingError, match=f"^{field} must be an integer, not {value!r}$"):
            TrainConfig(**{field: value})

    def test_numpy_integers_are_whole_numbers(self):
        cfg = TrainConfig(dim=np.int64(3), epochs=np.int32(2), batch_size=np.intp(4))
        assert (cfg.dim, cfg.epochs, cfg.batch_size) == (3, 2, 4)

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
        p = np.array([0.5])
        state = Adam(lr=0.01)
        state.step(p, np.array([1.0]))
        # bias-corrected ratio is 1 up to eps, so the step is the full lr
        assert p[0] == pytest.approx(0.49, abs=1e-6)

    def test_zero_gradient_is_noop(self):
        p = np.array([0.5, -0.25])
        state = Adam(lr=0.01)
        state.step(p, np.zeros(2))
        assert np.array_equal(p, [0.5, -0.25])
        assert state.t == 1

    def test_constant_gradient_moves_monotonically(self):
        p = np.array([1.0])
        state = Adam(lr=0.01)
        seen = [p[0]]
        for _ in range(5):
            state.step(p, np.array([2.0]))
            seen.append(p[0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    @pytest.mark.parametrize("shape", [(9, 4), (9,)])
    def test_in_place_step_matches_out_of_place_formula(self, shape):
        rng = np.random.default_rng(7)
        start = rng.normal(size=shape)
        fast, slow = Adam(lr=0.05), Adam(lr=0.05)
        p_fast, p_slow = start.copy(), start.copy()
        for _ in range(300):
            grad = rng.normal(size=shape) * (rng.uniform(size=shape) < 0.2)
            fast.step(p_fast, grad)
            ref.adam_step(slow, p_slow, grad)
            assert p_fast.tobytes() == p_slow.tobytes()
        assert fast.m.tobytes() == slow.m.tobytes()
        assert fast.v.tobytes() == slow.v.tobytes()

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
        separate, whole = {name: Adam(lr=0.05) for name in tables}, Adam(lr=0.05)
        for _ in range(300):
            flat = rng.normal(size=theta.size) * (rng.uniform(size=theta.size) < 0.2)
            for (name, table), grad in zip(tables.items(), table_views(flat, e.n_classes, e.dim)):
                separate[name].step(table, grad)
            whole.step(theta, flat)
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


def round_negatives(nf3, candidates, k, rng):
    """The scalar sampler in redraw rounds: each round visits the negatives
    still open, in order, with two scalar ``rng.integers`` calls each; a miss
    of the asserted triples fills its negative, a hit keeps it open, and those
    open after ``MAX_RETRIES`` rounds are skipped. The oracle
    ``generate_negatives`` must equal bitwise, generator state included."""
    if k == 0 or not len(nf3):
        return [], 0
    asserted = set(map(tuple, nf3))
    cand = np.asarray(candidates, dtype=np.intp)
    positives = [tuple(row) for row in nf3 for _ in range(k)]
    negatives = [None] * len(positives)
    still_open = range(len(positives))
    for _ in range(trainer.MAX_RETRIES):
        hits = []
        for i in still_open:
            c, r, d = positives[i]
            corrupt_head = rng.integers(2) == 0
            replacement = int(cand[rng.integers(len(cand))])
            corrupted = (replacement, r, d) if corrupt_head else (c, r, replacement)
            if corrupted in asserted:
                hits.append(i)
            else:
                negatives[i] = corrupted
        still_open = hits
    return [t for t in negatives if t is not None], len(still_open)


class TestNegatives:
    NF3 = [(2, 0, 3)]

    def test_k_zero(self, rng):
        negatives, skipped = generate_negatives(self.NF3, [2, 3, 4], 0, rng)
        assert negatives.shape == (0, 3) and skipped == 0

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
        assert len(negatives) == 0
        assert skipped == len(nf3)
        assert caplog.messages == ["negative sampling skipped 9 negatives (budget exhausted)"]
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert generate_negatives(nf3, [2, 3, 4], 3, rng)[1] == 27
        assert caplog.messages == ["negative sampling skipped 27 negatives (budget exhausted)"]

    def test_no_positives(self, rng):
        negatives, skipped = generate_negatives([], [], 1, rng)
        assert negatives.shape == (0, 3) and skipped == 0

    def test_no_candidates(self, rng):
        with pytest.raises(TrainingError):
            generate_negatives(self.NF3, [], 1, rng)

    def test_deterministic(self):
        r1 = generate_negatives(self.NF3, [2, 3, 4, 5], 4, np.random.default_rng(9))
        r2 = generate_negatives(self.NF3, [2, 3, 4, 5], 4, np.random.default_rng(9))
        assert np.array_equal(r1[0], r2[0]) and r1[1] == r2[1]

    def test_refuses_handles_the_int64_key_cannot_hold(self, rng):
        # 2**32 classes: their squared count overflows int64, and no table is built
        with pytest.raises(TrainingError, match="overflow the int64 triple keys"):
            generate_negatives([(2, 0, 2**32)], [2, 3], 1, rng)
        with pytest.raises(TrainingError, match="overflow the int64 triple keys"):
            generate_negatives([(2, 2**31, 3)], [2**31], 1, rng)
        with pytest.raises(TrainingError, match="negative class or relation handle"):
            generate_negatives([(2, -1, 3)], [2, 3], 1, rng)

    def test_largest_keys_that_fit_round_trip(self):
        # 2**21 classes and 2**21 - 1 relations: keys up to 2**63 - 2**42 - 1
        big, rel = 2**21 - 1, 2**21 - 2
        nf3 = [(big, rel, big), (0, rel, big)]
        negatives, skipped = generate_negatives(nf3, [0, big], 3, np.random.default_rng(1))
        oracle, oracle_skipped = round_negatives(nf3, [0, big], 3, np.random.default_rng(1))
        assert negatives.tolist() == [list(t) for t in oracle] and skipped == oracle_skipped

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("max_retries", [trainer.MAX_RETRIES, 3, 1])
    def test_equals_the_scalar_loop_on_dense_theories(self, k, max_retries, monkeypatch, caplog):
        # dense random theories, where many draws hit asserted axioms and the
        # budget often runs out: same negatives, skips, warning and generator state
        monkeypatch.setattr(trainer, "MAX_RETRIES", max_retries)
        theories = np.random.default_rng(2024)
        for case in range(60):
            n_classes, n_relations = theories.integers(1, 7), theories.integers(1, 4)
            every = np.stack(np.meshgrid(
                np.arange(n_classes), np.arange(n_relations), np.arange(n_classes), indexing="ij"
            ), axis=-1).reshape(-1, 3)
            nf3 = every[theories.random(len(every)) < theories.choice([0.3, 0.7, 0.95, 1.0])]
            theories.shuffle(nf3)
            candidates = theories.permutation(n_classes)[: theories.integers(1, n_classes + 1)]
            seed = int(theories.integers(1 << 30))
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            caplog.clear()
            with caplog.at_level("WARNING", logger="elball.trainer"):
                negatives, skipped = generate_negatives(nf3, candidates, k, new_rng)
            oracle, oracle_skipped = round_negatives(nf3.tolist(), candidates, k, old_rng)
            assert negatives.dtype == np.intp and negatives.shape == (len(oracle), 3), case
            assert negatives.tolist() == [list(t) for t in oracle], case
            assert skipped == oracle_skipped, case
            assert new_rng.bit_generator.state == old_rng.bit_generator.state, case
            warned = [f"negative sampling skipped {skipped} negatives (budget exhausted)"] if skipped else []
            assert caplog.messages == warned, case
            # without the oracle: in positive order, each positive owns at most k
            # negatives, and each changes one class slot to a candidate without
            # giving an asserted triple
            asserted, cands = set(map(tuple, nf3.tolist())), set(candidates.tolist())
            owner, owned = 0, 0
            for h, r, t in negatives.tolist():
                assert (h, r, t) not in asserted, case
                while owned == k or not one_slot_to_a_candidate(nf3[owner], (h, r, t), cands):
                    owner, owned = owner + 1, 0
                    assert owner < len(nf3), case
                owned += 1
            assert len(negatives) + skipped == len(nf3) * k, case


def one_slot_to_a_candidate(positive, negative, candidates):
    (c, r, d), (h, s, t) = positive, negative
    return r == s and ((h != c and t == d and h in candidates) or (h == c and t != d and t in candidates))


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
        # the full-theory loss after 100 and after 400 epochs of the same seed
        full_batch = LossBatch.from_theory(family_theory, 0.0)
        losses = []
        for epochs in (100, 400):
            cfg = TrainConfig(dim=2, margin=0.0, epochs=epochs, batch_size=16, seed=42)
            e, trace = train(family_theory, cfg)
            losses.append(batch_loss(full_batch, e))
            assert len(trace.minibatch) == epochs
        assert losses[-1] < losses[0]

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

    @pytest.mark.parametrize("neg_mode", trainer.NEG_MODES)
    def test_non_finite_loss_names_the_epoch_of_its_step(self, family_theory, neg_mode, monkeypatch):
        # with 2 steps per epoch, the 5th step is the first of epoch 2
        calls = []

        def poisoned(batch, e):
            grads = batch_gradient(batch, e)
            calls.append(batch)
            if len(calls) == 5:
                grads.loss = math.inf
            return grads

        monkeypatch.setattr(trainer, "batch_gradient", poisoned)
        cfg = TrainConfig(dim=2, epochs=4, steps_per_epoch=2, batch_size=4, seed=0, neg_mode=neg_mode)
        with pytest.raises(TrainingError, match="^non-finite loss at epoch 2 in bucket "):
            train(family_theory, cfg)
        assert len(calls) == 5

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

        for name in ("batch_loss", "batch_gradient", "generate_negatives"):
            assert callable(getattr(trainer, name, None)), name
        assert callable(trainer.Adam.step)

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


def per_step_train(theory, cfg):
    """The training loop drawing each step's minibatch indices with one call per
    nonempty pool, and its negatives with the scalar sampler: the reference that
    ``train``'s chunked draws and array sampler must equal bitwise."""
    full_batch = LossBatch.from_theory(theory, cfg.margin)
    theta, e = init_embeddings(theory, cfg).packed()
    rng = np.random.default_rng([cfg.seed, 1])
    optimizer = Adam(cfg.learning_rate)
    trace = trainer.LossTrace()
    candidates = [cid for cid in range(len(theory.classes)) if cid not in (e.top, e.bot)]
    corruptible = [(c, r, d) for c, r, d in theory.nf3 if {c, d}.isdisjoint((e.top, e.bot))]

    def make_negatives():
        negs, _ = round_negatives(corruptible, candidates, cfg.negatives_per_positive, rng)
        return np.asarray(negs, dtype=np.intp).reshape(-1, 3)

    neg_array = make_negatives()
    pools = [(form.field, getattr(full_batch, form.field)) for form in NormalForm]
    for epoch in range(cfg.epochs):
        if cfg.neg_mode == "fresh":
            neg_array = make_negatives()
        for _ in range(cfg.steps_per_epoch):
            batch = LossBatch(cfg.margin, **{
                name: rows[rng.integers(len(rows), size=cfg.batch_size)] if len(rows) else rows
                for name, rows in (*pools, ("neg", neg_array))
            })
            grads = batch_gradient(batch, e)
            optimizer.step(theta, grads.flat)
            np.maximum(e.class_radii, 0.0, out=e.class_radii)
        trace.minibatch.append(grads.loss)
    return e, trace


# pools of 1 (NF1), 2 (NF2), 3 (NF4) and 4 rows (NF3, and its negatives); the Bot pools are empty
SAMPLING_THEORY = """
A < B
A and B < C
B and C < D
A < r some B
B < r some C
C < s some D
D < r some A
r some A < B
r some B < C
s some C < D
"""


@pytest.mark.parametrize("sample_steps", [trainer._SAMPLE_STEPS, 5])
@pytest.mark.parametrize("neg_mode", trainer.NEG_MODES)
def test_chunked_sampling_equals_per_step_sampling_bitwise(neg_mode, sample_steps, monkeypatch):
    from elball.ontology import parse_ontology

    theory = normalize(parse_ontology(SAMPLING_THEORY))
    assert theory.counts() == {"NF1": 1, "NF2": 2, "NF3": 4, "NF4": 3, "Bot1": 0, "Bot2": 0, "Bot4": 0}
    monkeypatch.setattr(trainer, "_SAMPLE_STEPS", sample_steps)  # 5 splits chunks mid-epoch
    cfg = TrainConfig(dim=3, epochs=7, steps_per_epoch=3, batch_size=6, seed=4, neg_mode=neg_mode)
    (e, trace), (ref_e, ref_trace) = train(theory, cfg), per_step_train(theory, cfg)
    assert e.class_centers.tobytes() == ref_e.class_centers.tobytes()
    assert e.class_radii.tobytes() == ref_e.class_radii.tobytes()
    assert e.rel_vectors.tobytes() == ref_e.rel_vectors.tobytes()
    assert trace == ref_trace and len(trace.minibatch) == 7


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
