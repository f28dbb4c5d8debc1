import collections
import json
import math

import numpy as np
import pytest

from elball import losses
from elball.embeddings import EmbeddingSet, TOP_RADIUS
from elball.geometry import (
    Ball,
    GeometryError,
    check_model,
    containment_violation,
    intersection_ball,
)
from elball.normalizer import NormalForm, NormalizedTheory
from elball.ontology import class_vocabulary, Vocabulary


def ball(x, y, r):
    return Ball(np.array([x, y], dtype=float), r)


class TestContainmentViolation:
    def test_concentric_contained(self):
        assert containment_violation(ball(0, 0, 0.3), ball(0, 0, 0.5)) == 0.0

    def test_offset_not_contained(self):
        v = containment_violation(ball(1, 0, 0.5), ball(0, 0, 0.3))
        assert v == pytest.approx(1.2)

    def test_reflexive(self):
        b = ball(0.3, 0.4, 0.2)
        assert containment_violation(b, b) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            containment_violation(ball(0, 0, 1), Ball(np.zeros(3), 1.0))

    def test_negative_radius_refused(self):
        with pytest.raises(GeometryError, match="^negative radius -0.5$"):
            ball(0, 0, -0.5)
        assert ball(0, 0, -0.0).radius == 0.0  # -0.0 is no negative radius

    def test_zero_exactly_on_constructed_contained_pairs(self, rng):
        for _ in range(200):
            outer = Ball(rng.normal(0, 1, 3), rng.uniform(0.5, 2.0))
            # sample an inner ball genuinely inside the outer one
            r_in = rng.uniform(0, outer.radius)
            direction = rng.normal(0, 1, 3)
            direction /= np.linalg.norm(direction)
            shift = rng.uniform(0, outer.radius - r_in)
            inner = Ball(outer.center + shift * direction, r_in)
            assert containment_violation(inner, outer) <= 1e-12
            # pushing the inner ball just outside breaks containment
            bad = Ball(
                outer.center + (outer.radius - r_in + 1e-6) * direction, r_in + 1e-6
            )
            assert containment_violation(bad, outer) > 0


class TestIntersectionBall:
    def test_symmetric_overlap(self):
        out = intersection_ball(ball(0, 0, 1), ball(1.5, 0, 1))
        assert out.center == pytest.approx([0.75, 0.0])
        assert out.radius == pytest.approx(0.6614378, abs=1e-6)

    def test_disjoint(self):
        assert intersection_ball(ball(0, 0, 1), ball(3, 0, 1)) is None

    def test_touching_counts_as_disjoint(self):
        assert intersection_ball(ball(0, 0, 1), ball(2, 0, 1)) is None

    def test_contained_returns_smaller(self):
        a, b = ball(0, 0, 0.2), ball(0.1, 0, 1)
        assert intersection_ball(a, b) is a

    def test_concentric_returns_smaller(self):
        a, b = ball(0, 0, 0.4), ball(0, 0, 1)
        assert intersection_ball(a, b) is a

    def test_enclosure_is_tight_on_grid(self):
        a, b = ball(0, 0, 1), ball(1.5, 0, 1)
        enclosure = intersection_ball(a, b)
        xs = np.linspace(-1, 2.5, 250)
        ys = np.linspace(-1.2, 1.2, 180)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        inside_both = (np.linalg.norm(pts - a.center, axis=1) < a.radius) & (
            np.linalg.norm(pts - b.center, axis=1) < b.radius
        )
        inter_pts = pts[inside_both]
        dist = np.linalg.norm(inter_pts - enclosure.center, axis=1)
        assert np.all(dist <= enclosure.radius + 1e-12)
        # shrinking the radius noticeably must exclude some intersection point
        assert np.any(dist > enclosure.radius - 0.02)

    def test_boundary_passes_through_intersection_circle(self, rng):
        # the returned sphere is the one spanned by the circle where the two
        # boundary spheres meet: its center sits on the line between the ball
        # centers and both Pythagorean relations to the circle hold
        done = 0
        while done < 50:
            a = Ball(rng.normal(0, 1, 3), rng.uniform(0.3, 1.5))
            b = Ball(rng.normal(0, 1, 3), rng.uniform(0.3, 1.5))
            gap = float(np.linalg.norm(a.center - b.center))
            if gap >= a.radius + b.radius or gap + a.radius <= b.radius:
                continue
            if gap + b.radius <= a.radius or gap == 0.0:
                continue
            out = intersection_ball(a, b)
            # signed offset of the circle plane along the center axis
            h = float((out.center - a.center) @ (b.center - a.center)) / gap
            assert np.allclose(np.cross(out.center - a.center, b.center - a.center), 0)
            assert h**2 + out.radius**2 == pytest.approx(a.radius**2)
            assert (gap - h) ** 2 + out.radius**2 == pytest.approx(b.radius**2, rel=1e-6)
            done += 1

    def test_encloses_lens_when_circle_between_centers(self, rng):
        # when the meeting circle lies between the two centers the returned
        # ball contains the whole lens; verify by rejection sampling
        done = 0
        while done < 20:
            a = Ball(rng.normal(0, 1, 3), rng.uniform(0.3, 1.5))
            b = Ball(rng.normal(0, 1, 3), rng.uniform(0.3, 1.5))
            enclosure = intersection_ball(a, b)
            if enclosure is None or enclosure is a or enclosure is b:
                continue
            gap = np.linalg.norm(a.center - b.center)
            along = float((enclosure.center - a.center) @ (b.center - a.center)) / gap
            if not 0 <= along <= gap:
                continue
            pts = rng.uniform(-3, 3, size=(10_000, 3))
            mask = (np.linalg.norm(pts - a.center, axis=1) < a.radius) & (
                np.linalg.norm(pts - b.center, axis=1) < b.radius
            )
            inter = pts[mask]
            if not len(inter):
                continue
            assert np.all(
                np.linalg.norm(inter - enclosure.center, axis=1)
                <= enclosure.radius + 1e-12
            )
            done += 1


def make_theory(**buckets) -> NormalizedTheory:
    classes = class_vocabulary()
    for name in ("C", "D", "E"):
        classes.intern(name)
    relations = Vocabulary()
    relations.intern("r")
    return NormalizedTheory(classes=classes, relations=relations, **buckets)


def make_embeddings(centers, radii, rels=None):
    rels = rels if rels is not None else np.zeros((1, 2))
    e = EmbeddingSet(
        np.asarray(centers, dtype=float),
        np.asarray(radii, dtype=float),
        np.asarray(rels, dtype=float),
    )
    e.class_radii[e.top] = TOP_RADIUS
    return e


C, D, E = 2, 3, 4  # handles after Top=0, Bot=1


class TestCheckModel:
    def test_nf1_contained(self):
        t = make_theory(nf1=[(C, D)])
        e = make_embeddings(np.zeros((5, 2)), [0, 0, 0.2, 0.5, 0])
        report = check_model(t, e, 0.0)
        assert report.overall and report.checks[0].violation == 0.0

    def test_bot2_violation_magnitude(self):
        t = make_theory(bot2=[(C, D)])
        centers = np.zeros((5, 2))
        centers[D] = [1, 0]
        e = make_embeddings(centers, [0, 0, 0.6, 0.6, 0])
        report = check_model(t, e, 0.0)
        assert not report.overall
        assert report.checks[0].violation == pytest.approx(0.2)

    def test_bot2_touching_spheres_satisfied(self):
        t = make_theory(bot2=[(C, D)])
        centers = np.zeros((5, 2))
        centers[D] = [1.2, 0]
        e = make_embeddings(centers, [0, 0, 0.6, 0.6, 0])
        assert check_model(t, e, 0.0).overall

    def test_nf3_translation(self):
        t = make_theory(nf3=[(C, 0, D)])
        centers = np.zeros((5, 2))
        centers[C] = [0, 1]
        centers[D] = [1, 0]
        e = make_embeddings(centers, [0, 0, 0.1, 0.1, 0], rels=[[1, -1]])
        assert check_model(t, e, 0.0).overall

    def test_nf2_exact_intersection(self):
        t = make_theory(nf2=[(C, D, E)])
        centers = np.zeros((5, 2))
        centers[D] = [1.5, 0]
        centers[E] = [0.75, 0]
        e = make_embeddings(centers, [0, 0, 1.0, 1.0, 0.7])
        assert check_model(t, e, 0.0).overall
        e.class_radii[E] = 0.5  # smaller than the enclosure radius 0.6614
        assert not check_model(t, e, 0.0).overall

    def test_nf2_disjoint_operands_satisfied(self):
        t = make_theory(nf2=[(C, D, E)])
        centers = np.zeros((5, 2))
        centers[D] = [5, 0]
        e = make_embeddings(centers, [0, 0, 0.5, 0.5, 0.01])
        assert check_model(t, e, 0.0).overall

    def test_top_on_rhs_always_satisfied(self):
        t = make_theory(nf1=[(C, 0)], nf3=[(C, 0, 0)])
        e = make_embeddings(np.random.default_rng(1).normal(0, 1, (5, 2)), [0, 0, 3, 1, 1])
        assert check_model(t, e, 0.0).overall

    def test_top_on_lhs_unsatisfiable(self):
        t = make_theory(nf1=[(0, C)])
        e = make_embeddings(np.zeros((5, 2)), [0, 0, 1, 1, 1])
        report = check_model(t, e, 1e9)
        assert not report.overall
        assert math.isinf(report.checks[0].violation)

    def test_nf4_is_informational_only(self):
        t = make_theory(nf4=[(0, C, D)])
        centers = np.zeros((5, 2))
        centers[D] = [9, 0]
        e = make_embeddings(centers, [0, 0, 0.1, 0.1, 0], rels=[[0, 0]])
        report = check_model(t, e, 0.0)
        assert report.overall  # failing NF4 does not flip the overall verdict
        assert report.checks[0].informational
        assert report.checks[0].violation > 0

    def test_bot1_requires_zero_radius(self):
        t = make_theory(bot1=[C])
        e = make_embeddings(np.zeros((5, 2)), [0, 0, 0.7, 0, 0])
        report = check_model(t, e, 0.0)
        assert report.checks[0].violation == pytest.approx(0.7)
        assert check_model(t, e, 0.7).overall

    def test_missing_embedding(self):
        t = make_theory(nf1=[(C, D)])
        e = make_embeddings(np.zeros((2, 2)), [0, 0])
        with pytest.raises(GeometryError):
            check_model(t, e, 0.0)

    def test_missing_symbol_is_named(self):
        e = make_embeddings(np.zeros((5, 2)), [0, 0, 0, 0, 0], rels=np.zeros((0, 2)))
        with pytest.raises(GeometryError, match="relation 'r'"):
            check_model(make_theory(nf3=[(C, 0, D)]), e, 0.0)
        with pytest.raises(GeometryError, match="class 'E'"):
            check_model(make_theory(nf1=[(C, E)]), make_embeddings(np.zeros((4, 2)), [0] * 4), 0.0)

    @pytest.mark.parametrize(
        "buckets, what",
        [
            ({"nf1": [(C, -1)]}, "class handle -1"),
            ({"nf2": [(C, D, -1)]}, "class handle -1"),
            ({"nf3": [(C, -1, D)]}, "relation handle -1"),
            ({"bot1": [-1]}, "class handle -1"),
            ({"bot2": [(-2, C)]}, "class handle -2"),
            ({"nf1": [(C, 9)]}, "class handle 9"),
        ],
        ids=["nf1", "nf2", "nf3", "bot1", "bot2", "past-the-vocabulary"],
    )
    def test_handle_without_a_name_is_refused(self, buckets, what):
        # a negative index would read the table's last rows; neither has a name to report
        e = make_embeddings(np.zeros((5, 2)), [0, 0, 0.2, 0.5, 1.0])
        with pytest.raises(GeometryError, match=f"no embedding for {what}$"):
            check_model(make_theory(**buckets), e, 0.0)

    def test_tolerance_monotonicity(self, rng):
        t = make_theory(nf1=[(C, D)], bot2=[(D, E)], nf3=[(C, 0, E)])
        for _ in range(25):
            e = make_embeddings(
                rng.normal(0, 1, (5, 2)), rng.uniform(0, 1, 5), rels=rng.normal(0, 1, (1, 2))
            )
            if check_model(t, e, 0.0).overall:
                for tol in (0.1, 1.0, 10.0):
                    assert check_model(t, e, tol).overall


class TestNonFinite:
    @pytest.mark.parametrize(
        "table, value", [("center", math.nan), ("center", math.inf), ("radius", math.nan), ("relation", math.nan)]
    )
    def test_non_finite_operand_fails_every_axiom_it_enters(self, table, value):
        t = make_theory(
            nf1=[(C, D), (D, E)], nf2=[(C, D, E)], nf3=[(C, 0, D)], nf4=[(0, C, D)], bot1=[C], bot2=[(C, D)]
        )
        e = make_embeddings(np.zeros((5, 2)), [0, 0, 0.1, 0.5, 0.5])
        clean = check_model(t, e, 1.0)
        assert clean.overall
        {"center": e.class_centers[C], "radius": e.class_radii[C:C + 1], "relation": e.rel_vectors[0]}[table][:] = value
        report = check_model(t, e, 1.0)
        assert not report.overall
        enters = {"NF3", "NF4"} if table == "relation" else {"NF1", "NF2", "NF3", "NF4", "Bot1", "Bot2"}
        for check, before in zip(report.checks, clean.checks):
            if check.form in enters and C in check.axiom:
                assert check.violation == math.inf and not check.satisfied, check
            else:
                assert check == before

    def test_nan_radius_with_coincident_nf2_centers(self):
        inter = intersection_ball(ball(0, 0, math.nan), ball(0, 0, 1))
        assert math.isnan(inter.radius)
        t = make_theory(nf2=[(C, D, E)])
        e = make_embeddings(np.zeros((5, 2)), [0, 0, math.nan, 1, 1])
        report = check_model(t, e, 0.1)
        assert report.checks[0].violation == math.inf and not report.overall

    @pytest.mark.parametrize("tol", [math.inf, np.float64(math.inf)])
    def test_to_dict_names_non_finite_values_as_strings(self, tol):
        t = make_theory(nf1=[(C, D)])
        e = make_embeddings(np.zeros((5, 2)), [0, 0, math.nan, 1, 1])
        d = check_model(t, e, tol).to_dict()
        json.dumps(d, allow_nan=False)
        assert d["tolerance"] == "inf"
        assert d["max_violation"] == d["forms"]["NF1"]["max"] == d["checks"][0]["violation"] == "inf"


# --- the array checker against a scalar reading, axiom by axiom ------------

TOP = 0
N_RANDOM = 30  # random classes, handles 2 .. N_RANDOM + 1
# NF2 operand pairs: c at a dyadic point, d offset along the first axis, so
# that the touching pair's gap is exact
NF2_CASES = {
    "nested": (0.125, 0.25, 0.5),
    "disjoint": (3.0, 0.5, 0.5),
    "touching": (0.75, 0.5, 0.25),
    "lens": (0.625, 0.5, 0.375),
    "concentric": (0.0, 0.25, 0.75),
}


def random_theory(rng):
    """A theory over every form with Top on each side, c == d, the NF2 cases
    above, and a relation whose vector is zero; and an embedding for it."""
    n = 2 + N_RANDOM + 2 * len(NF2_CASES)
    classes = class_vocabulary()
    for i in range(2, n):
        classes.intern(f"C{i}")
    relations = Vocabulary()
    for name in ("r", "s", "zero"):
        relations.intern(name)

    def cls():
        return TOP if rng.random() < 0.15 else int(rng.integers(2, 2 + N_RANDOM))

    def rel():
        return int(rng.integers(3))

    def many(draw, k=25):
        return [draw() for _ in range(k)]

    pairs = [(2 + N_RANDOM + 2 * i, 3 + N_RANDOM + 2 * i) for i in range(len(NF2_CASES))]
    theory = NormalizedTheory(
        classes=classes,
        relations=relations,
        nf1=many(lambda: (cls(), cls())) + [(2, 2), (TOP, TOP), (TOP, 2), (2, TOP)],
        nf2=many(lambda: (cls(), cls(), cls()))
        + [(c, d, cls()) for c, d in pairs]
        + [(d, c, 2) for c, d in pairs]
        + [(TOP, TOP, TOP), (TOP, TOP, 2), (TOP, 2, 3), (2, TOP, 3), (2, 3, TOP)],
        nf3=many(lambda: (cls(), rel(), cls())) + [(TOP, 0, 2), (2, 2, TOP), (2, 2, 3)],
        nf4=many(lambda: (rel(), cls(), cls())) + [(0, TOP, 2), (1, 2, TOP), (2, TOP, TOP)],
        bot1=many(cls) + [TOP],
        bot2=many(lambda: (cls(), cls())) + [(TOP, 2), (2, TOP), (TOP, TOP)],
        bot4=many(lambda: (rel(), cls())) + [(0, TOP)],
    )
    centers = rng.normal(0, 1, (n, 3))
    radii = rng.uniform(0, 1.2, n)
    for i, (c, d) in enumerate(pairs):
        offset, r_c, r_d = list(NF2_CASES.values())[i]
        centers[c] = [0.5 * i, 0.25, -1.0]
        centers[d] = centers[c] + [offset, 0.0, 0.0]
        radii[c], radii[d] = r_c, r_d
    rels = rng.normal(0, 1, (3, 3))
    rels[2] = 0.0
    return theory, make_embeddings(centers, radii, rels)


def scalar_reading(theory, e):
    """(form, axiom, text, violation) of every axiom, one at a time from the
    scalar helpers, with the checker's rules for Top."""
    C, rad, R, inf = e.class_centers, e.class_radii, e.rel_vectors, math.inf
    name, rel = theory.classes.name, theory.relations.name

    def b(c, shift=0.0):
        return Ball(C[c] + shift, float(rad[c]))

    out = []
    for c, d in theory.nf1:
        v = 0.0 if d == TOP or c == d else inf if c == TOP else containment_violation(b(c), b(d))
        out.append(("NF1", (c, d), f"{name(c)} < {name(d)}", v))
    for c, d, x in theory.nf2:
        if c == TOP and d == TOP:
            v = 0.0 if x == TOP else inf
        else:
            inter = b(d) if c == TOP else b(c) if d == TOP else intersection_ball(b(c), b(d))
            v = 0.0 if inter is None or x == TOP else containment_violation(inter, b(x))
        out.append(("NF2", (c, d, x), f"{name(c)} and {name(d)} < {name(x)}", v))
    for c, r, d in theory.nf3:
        v = 0.0 if d == TOP else inf if c == TOP else containment_violation(b(c, R[r]), b(d))
        out.append(("NF3", (c, r, d), f"{name(c)} < {rel(r)} some {name(d)}", v))
    for r, c, d in theory.nf4:
        gap = float(np.linalg.norm(C[c] - R[r] - C[d]))
        v = max(0.0, gap - float(rad[c]) - float(rad[d]))
        out.append(("NF4", (r, c, d), f"{rel(r)} some {name(c)} < {name(d)}", v))
    for c in theory.bot1:
        out.append(("Bot1", (c,), f"{name(c)} < Bot", inf if c == TOP else max(0.0, float(rad[c]))))
    for c, d in theory.bot2:
        gap = float(np.linalg.norm(C[c] - C[d]))
        v = inf if TOP in (c, d) else max(0.0, float(rad[c]) + float(rad[d]) - gap)
        out.append(("Bot2", (c, d), f"{name(c)} and {name(d)} < Bot", v))
    for r, c in theory.bot4:
        v = inf if c == TOP else max(0.0, float(rad[c]))
        out.append(("Bot4", (r, c), f"{rel(r)} some {name(c)} < Bot", v))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_array_checker_matches_scalar_reading(seed):
    theory, e = random_theory(np.random.default_rng(seed))
    tol = 0.05
    report = check_model(theory, e, tol)
    expected = scalar_reading(theory, e)
    assert [(c.form, c.axiom, c.text) for c in report.checks] == [x[:3] for x in expected]
    for check, (form, _, _, v) in zip(report.checks, expected):
        if math.isinf(v):
            assert check.violation == v, check
        else:
            assert check.violation == pytest.approx(v, rel=0, abs=1e-9 if form == "NF2" else 1e-12), check
        assert check.satisfied == (v <= tol), check
        assert check.informational == (form == "NF4")


def test_check_model_writes_into_no_handle_block(monkeypatch):
    theory, e = random_theory(np.random.default_rng(3))
    want = check_model(theory, e, 0.05)
    handles = NormalizedTheory.handles

    def read_only(self, form):
        rows = handles(self, form)
        rows.flags.writeable = False
        return rows

    # every block check_model hands the losses is then read-only
    monkeypatch.setattr(NormalizedTheory, "handles", read_only)
    got = check_model(theory, e, 0.05)
    assert [c.violation for c in got.checks] == [c.violation for c in want.checks]


def test_a_plan_builds_its_scatter_offsets_on_its_first_gradient():
    # check_model reads only the forward pass, so its cached plans hold no lanes
    theory, e = random_theory(np.random.default_rng(4))
    losses._plan.cache_clear()
    check_model(theory, e, 0.05)
    for form in NormalForm:
        if form is NormalForm.NF2:  # checked through its enclosures, not the losses
            continue
        rows = theory.handles(form)
        sizes = tuple(len(rows) if field == form.field else 0 for _, field, _, _ in losses._FORMS)
        key = (sizes, e.n_classes, e.n_relations, e.dim)
        hits = losses._plan.cache_info().hits
        plan = losses._plan(*key)
        assert losses._plan.cache_info().hits == hits + 1, form  # the plan check_model built
        assert "lanes" not in vars(plan), form
        with np.errstate(over="ignore", invalid="ignore"):  # Top's sentinel radius
            losses.batch_gradient(losses.LossBatch(0.0, **{form.field: rows}), e)
        assert losses._plan(*key) is plan
        lanes = vars(plan)["lanes"]
        assert np.array_equal(lanes, np.tile(np.arange(e.dim), len(plan.abr))), form
        assert not lanes.flags.writeable


def test_a_theory_converted_by_training_checks_as_a_fresh_one():
    from elball.family import family_ontology
    from elball.normalizer import eliminate_abox, normalize

    warm, e = family_model()  # train converted its buckets
    cold = normalize(eliminate_abox(family_ontology()))
    for tol in (0.0, 0.1):
        got, want = check_model(warm, e, tol), check_model(cold, e, tol)
        for form in NormalForm:
            assert got.violations[form].tobytes() == want.violations[form].tobytes(), form
            assert got.axioms[form] == getattr(cold, form.field)
        assert [c.to_dict() for c in got.checks] == [c.to_dict() for c in want.checks]
    # a bucket changed after training is converted again
    warm.nf1.append((warm.classes.id("Male"), warm.classes.id("Female")))
    report = check_model(warm, e, 0.1)
    assert report.forms["NF1"].count == len(warm.nf1) == len(cold.nf1) + 1
    assert report.checks[len(cold.nf1)].text == "Male < Female"


# --- the report's summary and its laziness -----------------------------------


def family_model():
    from elball.family import family_ontology
    from elball.normalizer import eliminate_abox, normalize
    from elball.trainer import TrainConfig, train

    theory = normalize(eliminate_abox(family_ontology()))
    e, _ = train(theory, TrainConfig(dim=2, epochs=50, batch_size=8, seed=0))
    return theory, e


def summaries_agree_with_checks(report):
    binding = [c for c in report.checks if not c.informational]
    assert report.overall == all(c.satisfied for c in binding)
    assert report.max_violation == max((c.violation for c in binding), default=0.0)
    assert list(report.forms) == [form.value for form in NormalForm]
    for label, summary in report.forms.items():
        rows = [c for c in report.checks if c.form == label]
        assert summary.count == len(rows)
        assert summary.violated == sum(not c.satisfied for c in rows)
        assert summary.informational == (label == "NF4")
        if rows:
            worst = max(rows, key=lambda c: c.violation)  # the first on ties
            assert (summary.max, summary.worst) == (worst.violation, worst.text)
        else:
            assert (summary.max, summary.worst) == (0.0, None)


@pytest.mark.parametrize("seed", range(20))
def test_summary_matches_checks_on_random_theories(seed):
    theory, e = random_theory(np.random.default_rng(seed))
    summaries_agree_with_checks(check_model(theory, e, 0.05))


@pytest.mark.parametrize("tol", [0.0, 0.1, 100.0])
def test_summary_matches_checks_on_the_family_kb(tol):
    theory, e = family_model()
    report = check_model(theory, e, tol)
    summaries_agree_with_checks(report)
    assert report.forms["Bot2"].count == len(theory.bot2) > 0


def test_text_is_formatted_only_on_request(monkeypatch):
    theory, e = random_theory(np.random.default_rng(0))
    formatted = collections.Counter()
    original = NormalForm.format

    def counting(form, rows, names):
        formatted[form.value] += len(rows)
        return original(form, rows, names)

    monkeypatch.setattr(NormalForm, "format", counting)
    report = check_model(theory, e, 0.05)
    report.overall, report.max_violation, report.forms
    assert formatted and all(n <= 1 for n in formatted.values()), formatted
    formatted.clear()
    checks = report.checks
    assert formatted == theory.counts() and len(checks) == theory.n_axioms()
    assert report.checks is checks  # built once
