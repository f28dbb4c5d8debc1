"""Loop-shaped reference for the fused loss/gradient pass and in-place Adam.

One forward function per normal form and one ``np.add.at`` per gradient
row, written the long way: it is the arithmetic the fused pass in
``elball.losses`` and the in-place ``Adam.step`` in ``elball.trainer``
must reproduce. Handles are assumed valid; the library checks them.
"""

import numpy as np


def _dist(u):
    return np.linalg.norm(u, axis=-1)


def _dir(u):
    d = np.linalg.norm(u, axis=-1, keepdims=True)
    return np.divide(u, d, out=np.zeros_like(u), where=d > 0)


def _norm_penalty(e, idx):
    pen = np.abs(_dist(e.class_centers[idx]) - 1.0)
    return np.where(idx == e.top, 0.0, pen)


def _acc_norm_penalty(e, g, idx):
    c = e.class_centers[idx]
    n = np.linalg.norm(c, axis=-1, keepdims=True)
    contrib = np.sign(n - 1.0) * np.divide(c, n, out=np.zeros_like(c), where=n > 0)
    np.add.at(g.class_centers, idx, contrib)


def nf1_terms(e, c, d, gamma):
    geom = np.maximum(
        0.0,
        _dist(e.class_centers[c] - e.class_centers[d]) + e.class_radii[c] - e.class_radii[d] - gamma,
    )
    return geom, _norm_penalty(e, c) + _norm_penalty(e, d)


def nf2_terms(e, c, d, ee, gamma):
    cc, cd, ce = e.class_centers[c], e.class_centers[d], e.class_centers[ee]
    rc, rd, re_ = e.class_radii[c], e.class_radii[d], e.class_radii[ee]
    geom = (
        np.maximum(0.0, _dist(cc - cd) - rc - rd - gamma)
        + np.maximum(0.0, _dist(cc - ce) - rc - gamma)
        + np.maximum(0.0, _dist(cd - ce) - rc - gamma)
        + np.maximum(0.0, np.minimum(rc, rd) - re_ - gamma)
    )
    return geom, _norm_penalty(e, c) + _norm_penalty(e, d) + _norm_penalty(e, ee)


def nf3_terms(e, c, r, d, gamma):
    geom = np.maximum(
        0.0,
        _dist(e.class_centers[c] + e.rel_vectors[r] - e.class_centers[d])
        + e.class_radii[c]
        - e.class_radii[d]
        - gamma,
    )
    return geom, _norm_penalty(e, c) + _norm_penalty(e, d)


def nf4_terms(e, r, c, d, gamma):
    geom = np.maximum(
        0.0,
        _dist(e.class_centers[c] - e.rel_vectors[r] - e.class_centers[d])
        - e.class_radii[c]
        - e.class_radii[d]
        - gamma,
    )
    return geom, _norm_penalty(e, c) + _norm_penalty(e, d)


def bot2_terms(e, c, d, gamma):
    geom = np.maximum(
        0.0,
        e.class_radii[c] + e.class_radii[d] - _dist(e.class_centers[c] - e.class_centers[d]) + gamma,
    )
    return geom, _norm_penalty(e, c) + _norm_penalty(e, d)


def neg_terms(e, c, r, d, gamma):
    geom = np.maximum(
        0.0,
        e.class_radii[c]
        + e.class_radii[d]
        - _dist(e.class_centers[c] + e.rel_vectors[r] - e.class_centers[d])
        + gamma,
    )
    return geom, _norm_penalty(e, c) + _norm_penalty(e, d)


def bucket_losses(batch, e):
    out = {}
    g = batch.gamma
    forms = (
        ("NF1", batch.nf1, lambda b: nf1_terms(e, b[:, 0], b[:, 1], g)),
        ("NF2", batch.nf2, lambda b: nf2_terms(e, b[:, 0], b[:, 1], b[:, 2], g)),
        ("NF3", batch.nf3, lambda b: nf3_terms(e, b[:, 0], b[:, 1], b[:, 2], g)),
        ("NF4", batch.nf4, lambda b: nf4_terms(e, b[:, 0], b[:, 1], b[:, 2], g)),
        ("Bot1", batch.bot1, lambda b: (e.class_radii[b], 0.0)),
        ("Bot2", batch.bot2, lambda b: bot2_terms(e, b[:, 0], b[:, 1], g)),
        ("Bot4", batch.bot4, lambda b: (e.class_radii[b[:, 1]], 0.0)),
        ("neg", batch.neg, lambda b: neg_terms(e, b[:, 0], b[:, 1], b[:, 2], g)),
    )
    for name, rows, terms in forms:
        if rows.size:
            out[name] = float(np.sum(np.add(*terms(rows))))
    return out


def batch_loss(batch, e):
    return float(sum(bucket_losses(batch, e).values()))


def _hinge_weight(arg):
    return (arg > 0).astype(np.float64)


def batch_gradient(batch, e):
    g = e.zeros_like()
    gamma = batch.gamma
    centers, radii, rels = e.class_centers, e.class_radii, e.rel_vectors

    if batch.nf1.size:
        c, d = batch.nf1[:, 0], batch.nf1[:, 1]
        u = centers[c] - centers[d]
        w = _hinge_weight(_dist(u) + radii[c] - radii[d] - gamma)
        wd = w[:, None] * _dir(u)
        np.add.at(g.class_centers, c, wd)
        np.add.at(g.class_centers, d, -wd)
        np.add.at(g.class_radii, c, w)
        np.add.at(g.class_radii, d, -w)
        _acc_norm_penalty(e, g, c)
        _acc_norm_penalty(e, g, d)

    if batch.nf2.size:
        c, d, ee = batch.nf2[:, 0], batch.nf2[:, 1], batch.nf2[:, 2]
        cc, cd, ce = centers[c], centers[d], centers[ee]
        rc, rd, re_ = radii[c], radii[d], radii[ee]
        u1, u2, u3 = cc - cd, cc - ce, cd - ce
        w1 = _hinge_weight(_dist(u1) - rc - rd - gamma)
        w2 = _hinge_weight(_dist(u2) - rc - gamma)
        w3 = _hinge_weight(_dist(u3) - rc - gamma)
        w4 = _hinge_weight(np.minimum(rc, rd) - re_ - gamma)
        d1, d2, d3 = (w[:, None] * _dir(u) for w, u in ((w1, u1), (w2, u2), (w3, u3)))
        np.add.at(g.class_centers, c, d1 + d2)
        np.add.at(g.class_centers, d, -d1 + d3)
        np.add.at(g.class_centers, ee, -d2 - d3)
        np.add.at(g.class_radii, c, -w1 - w2 - w3)
        np.add.at(g.class_radii, d, -w1)
        np.add.at(g.class_radii, ee, -w4)
        min_is_c = rc <= rd
        np.add.at(g.class_radii, c, np.where(min_is_c, w4, 0.0))
        np.add.at(g.class_radii, d, np.where(min_is_c, 0.0, w4))
        _acc_norm_penalty(e, g, c)
        _acc_norm_penalty(e, g, d)
        _acc_norm_penalty(e, g, ee)

    if batch.nf3.size:
        c, r, d = batch.nf3[:, 0], batch.nf3[:, 1], batch.nf3[:, 2]
        u = centers[c] + rels[r] - centers[d]
        w = _hinge_weight(_dist(u) + radii[c] - radii[d] - gamma)
        wd = w[:, None] * _dir(u)
        np.add.at(g.class_centers, c, wd)
        np.add.at(g.rel_vectors, r, wd)
        np.add.at(g.class_centers, d, -wd)
        np.add.at(g.class_radii, c, w)
        np.add.at(g.class_radii, d, -w)
        _acc_norm_penalty(e, g, c)
        _acc_norm_penalty(e, g, d)

    if batch.nf4.size:
        r, c, d = batch.nf4[:, 0], batch.nf4[:, 1], batch.nf4[:, 2]
        u = centers[c] - rels[r] - centers[d]
        w = _hinge_weight(_dist(u) - radii[c] - radii[d] - gamma)
        wd = w[:, None] * _dir(u)
        np.add.at(g.class_centers, c, wd)
        np.add.at(g.rel_vectors, r, -wd)
        np.add.at(g.class_centers, d, -wd)
        np.add.at(g.class_radii, c, -w)
        np.add.at(g.class_radii, d, -w)
        _acc_norm_penalty(e, g, c)
        _acc_norm_penalty(e, g, d)

    if batch.bot1.size:
        np.add.at(g.class_radii, batch.bot1, 1.0)

    if batch.bot2.size:
        c, d = batch.bot2[:, 0], batch.bot2[:, 1]
        u = centers[c] - centers[d]
        w = _hinge_weight(radii[c] + radii[d] - _dist(u) + gamma)
        wd = w[:, None] * _dir(u)
        np.add.at(g.class_centers, c, -wd)
        np.add.at(g.class_centers, d, wd)
        np.add.at(g.class_radii, c, w)
        np.add.at(g.class_radii, d, w)
        _acc_norm_penalty(e, g, c)
        _acc_norm_penalty(e, g, d)

    if batch.bot4.size:
        np.add.at(g.class_radii, batch.bot4[:, 1], 1.0)

    if batch.neg.size:
        c, r, d = batch.neg[:, 0], batch.neg[:, 1], batch.neg[:, 2]
        u = centers[c] + rels[r] - centers[d]
        w = _hinge_weight(radii[c] + radii[d] - _dist(u) + gamma)
        wd = w[:, None] * _dir(u)
        np.add.at(g.class_centers, c, -wd)
        np.add.at(g.rel_vectors, r, -wd)
        np.add.at(g.class_centers, d, wd)
        np.add.at(g.class_radii, c, w)
        np.add.at(g.class_radii, d, w)
        _acc_norm_penalty(e, g, c)
        _acc_norm_penalty(e, g, d)

    g.class_centers[e.top] = 0.0
    g.class_radii[e.top] = 0.0
    return g


def adam_step(state, p, grad):
    """One out-of-place Adam step on array ``p``: new arrays for m, v and the update."""
    if not state.t:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
