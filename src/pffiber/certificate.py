"""The operator certificate h > tau on a block of H(P), without an
eigensolve: the lower bound that rules out Delta trials
(:func:`certify_above`) and the later theta-pairs of the ground energy
(:func:`certify_stack_block`).

A block is h = gamma sqrt(s^dagger s + M^2) + diag(d), and the certificate
reduces h > tau to Z = s^dagger s + diag(z) > 0 (:func:`certify_block`).
Two tiers decide it.  z > 0 on every state proves it in O(n); otherwise a
Schur complement on the states where z <= 0 does, from a few
conjugate-gradient solves with s applied through the block's per-state
tables and the ladder table (:func:`_block_gram`), never formed.  Both
tiers charge their own rounding, so a proven block lies above tau in
exact arithmetic.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .hamiltonian import (
    STACK_BYTES,
    FiberModel,
    _as_model,
    _dagger,
    _reps,
    _spin_frame,
    pair_heads,
    setup_stacks,
)

EPS = np.finfo(float).eps


def certify_above(P, tau, params_or_model) -> np.ndarray:
    """Whether E(q) > tau is proven for each momentum q of the (g, 3) P and
    its level tau, without an eigensolve: :func:`certify_stack_block` on
    the first block of each theta-pair, with c^2 = |q|^2 + M^2.

    Every block of H(q), one per theta-pair (:func:`pair_heads`), is
    h = gamma sqrt(s^dagger s + M^2) + D: s is the s_i of
    :func:`pffiber.hamiltonian._block_s` and D is the block's H_f diagonal;
    the partner has the same spectrum.
    c^2 is the s^dagger s + M^2 of the e = 0 vacuum, so the minorant is
    tight near the ground state: on the trials of the 24-mode N_max 2 sweep
    it certifies every tau up to 4e-6 to 7e-6 below E(q).  The momenta are
    taken in the stacks of :func:`setup_stacks`; a momentum that fails on
    one block is not tried on the next.
    """
    model = _as_model(params_or_model)
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    tau = np.asarray(tau, dtype=float).reshape(-1)
    out = np.zeros(len(P), dtype=bool)
    for index, setup in setup_stacks(P, model):
        out[index] = _certify_stack(P[index], tau[index], model, setup)
    return out


def _certify_stack(P, tau, model: FiberModel, setup) -> np.ndarray:
    """:func:`certify_above` for the (g, 3) P under one ``setup``."""
    proven = np.ones(len(P), dtype=bool)
    for i in pair_heads(setup):
        at = np.flatnonzero(proven)
        if not at.size:
            break
        proven[at] = certify_stack_block(P[at], tau[at], model, setup, i)
    return proven


def certify_stack_block(P, tau, model: FiberModel, setup, i: int) -> np.ndarray:
    """Whether block i of ``setup`` is proven > tau at each momentum of the
    (g, 3) P and its (g,) level tau.

    The certificate of :func:`certify_block`, c^2 = |q|^2 + M^2, in two
    tiers: the diagonal one (:func:`_z_diagonal`) proves Z > 0 where z > 0
    on every row; on the momenta it leaves with A > 0, the Schur complement
    of :func:`certify_block` decides, with s_i applied by
    :func:`_block_gram`.  Neither tier forms s_i or any n x n matrix.
    """
    _, _, _, specs = setup
    gamma, M = model.params.gamma, model.params.M
    c2 = np.sum(P * P, axis=1) + M * M
    d = model.hf[_reps(specs[i][1])]
    positive, z = _z_diagonal(d, tau, gamma, M, c2)
    proven = positive & np.all(z > 0.0, axis=1)
    at = np.flatnonzero(positive & ~proven)
    if at.size:
        proven[at] = certify_block(_block_gram(P[at], model, setup, i), z[at])
    return proven


def _root_minorant(gamma: float, c):
    """(alpha, beta) = (2 gamma c, 2 gamma c^3): for y >= 0,
    gamma sqrt(y) >= alpha - beta / (y + c^2), with equality at y = c^2,
    since (sqrt(y) - c)^2 >= 0 is y + c^2 >= 2c sqrt(y)."""
    return 2.0 * gamma * c, 2.0 * gamma * c**3


def _z_diagonal(d, tau, gamma: float, M: float, c2) -> tuple:
    """(positive, z) of :func:`certify_block` for the (g, n) or (n,) H_f
    diagonal d and the (g,) tau and c^2, at tau raised by the rounding of
    z (see there): ``positive`` says whether A > 0 on every row, and z =
    M^2 + c^2 - beta / A is the (g, n) diagonal of Z - s^dagger s, with
    beta / A read as 0 where A <= 0."""
    alpha, beta = _root_minorant(gamma, np.sqrt(c2))
    y = c2 + M * M
    a = alpha[:, None] + d - tau[:, None]
    size = alpha + np.max(np.abs(d), axis=-1) + np.abs(tau)
    low = np.min(a, axis=1)  # where it is <= 0, nothing is proven
    ratio, spread = (
        np.divide(x, low, out=np.zeros_like(low), where=low > 0.0) for x in (beta, size)
    )
    eta = 8.0 * EPS * (y + ratio * (1.0 + spread))
    a -= (8.0 * EPS * size + gamma * eta / (2.0 * M))[:, None]
    z = y[:, None] - beta[:, None] / np.where(a > 0.0, a, np.inf)
    return np.all(a > 0.0, axis=1), z


# the Schur complement of certify_block: a block with more states where
# z <= 0 than SCHUR_STATES, or not decided within CG_STEPS conjugate-gradient
# steps, is not proven (and so solved)
SCHUR_STATES = 64
CG_STEPS = 32


class Gram(NamedTuple):
    """s^dagger s of each of g matrices s, as an operator on (k, m, n)
    stacks of vectors: ``apply(x, at)`` is s_a^dagger s_a x[b, j], a =
    at[b].  With ``absolute`` it applies s_+^dagger s_+ instead, s_+ >=
    |s| entrywise, so that each entry of the computed s^dagger s x errs by
    at most ``terms`` eps times that of s_+^dagger s_+ |x|.  ``real``: s is
    real and so is x."""

    apply: Callable
    terms: int
    real: bool


def certify_block(gram: Gram, z) -> np.ndarray:
    """Whether h = gamma sqrt(Y) + diag(d) > tau is proven, Y = s^dagger s
    + M^2, for each of g matrices s: whether Z = s^dagger s + diag(z) > 0
    is, with ``gram`` the operator s^dagger s and the (g, n) z of
    :func:`_z_diagonal`.  No n x n matrix is formed.

    With (alpha, beta) of :func:`_root_minorant` at c > 0, the spectral
    theorem of Y gives gamma sqrt(Y) >= alpha - beta (Y + c^2)^{-1}, so

        h - tau >= A - beta (Y + c^2)^{-1},   A = alpha + diag(d) - tau.

    When the diagonal A is > 0, the matrix [[A, sqrt(beta)], [sqrt(beta),
    Y + c^2]] has two Schur complements, and the right side is positive
    definite exactly when Z = Y + c^2 - beta A^{-1} = s^dagger s + diag(z),
    z = M^2 + c^2 - beta / A, is.  No other hypothesis is used: neither
    gamma < 1 nor a bound on the coupling.  A matrix with some A_i <= 0 is
    not certified.  Since s^dagger s >= 0, z > 0 on every row proves Z > 0:
    that is the diagonal tier of :func:`certify_stack_block`.

    Where some z_i <= 0, on the states S, put zeta = max |z| on S: G =
    s^dagger s + diag(z~), z~ = z off S and zeta on S, is >= lambda = min
    z~ > 0, and Z = G - sum_{i in S} delta_i e_i e_i^T, delta_i = zeta -
    z_i > 0.  So Z > 0 exactly when T = I - D^{1/2} (G^{-1})_SS D^{1/2} >
    0, D = diag(delta): an |S| x |S| test.  (G^{-1})_SS comes from |S|
    conjugate-gradient solves G x_j = e_j, stacked over momenta and
    right-hand sides, each matvec one application of ``gram``.  For any x~
    with residual r = e - G x~,

        (G^{-1})_ij = e_i^T x~_j + x~_i^dagger r_j + r_i^dagger G^{-1} r_j,

    and the last term is a PSD matrix <= sum_j ||r_j||^2 / lambda.  The
    Hermitian part of the first two is computed: T~.  After each step, T
    > 0 is proven where the Cholesky of T~ - theta runs through, and
    refuted where that of T~ + theta does not, theta bounding all that T~
    misses (below); a momentum neither proven nor refuted takes the next
    step, and after ``CG_STEPS`` it is not proven.  So is one with more
    than ``SCHUR_STATES`` states in S, or with a z that is not finite.

    Rounding.  Z is formed from the computed z, and :func:`_z_diagonal`
    raises tau by gamma eta / (2M), the rounding of z: if the exact Z is
    >= -eta, the argument above, run with Y + eta, proves h > tau - gamma
    eta / (2M), because sqrt(Y + eta) - sqrt(Y) <= eta / (2M).  z's
    rounding: A_i errs by eps L, L = alpha + max |d| + |tau|, and the
    division and subtraction by eps (M^2 + c^2 + beta / A_i), so the exact
    z_i lies within eta = 8 eps (M^2 + c^2 + beta / A (1 + L / A)) of the
    computed one, A the smallest A_i; tau is also raised by 8 eps L for the
    rounding of alpha and beta themselves.  The Schur test then proves
    that Z of the computed z is > 0 in exact arithmetic, so it adds
    nothing to tau:

    - delta is rounded up (times 1 + 4 eps), so G - sum delta e e^T <= Z.
    - The computed residual: each sum of k terms errs by gamma_k times the
      sum of their moduli, so the computed G x~ errs by at most
      (terms + 8) eps (s_+^dagger s_+ |x~| + z~ |x~| + e) entrywise, b_j, with
      ``terms`` of :class:`Gram` (a chain of three sparse maps is bounded
      by the chain of their moduli, and the errors of the maps add up).
      So the true r_j lies within b_j of the computed one, ||r_j|| <=
      ||r~_j|| + ||b_j||, and x~_i^dagger r_j within |x~_i| (b_j + (n + 4)
      eps |r~_j|) of the computed product, plus eps of the sum: E_ij.
    - The small matrix: ||D^{1/2} E D^{1/2}||_F + sum_j delta_j ||r_j||^2
      / lambda bounds T~ - T, and is doubled for the rounding of these
      sums; forming T~ and a Cholesky of T~ - theta that runs through
      (Higham, *Accuracy and Stability of Numerical Algorithms*, thm.
      10.3: the factor is exact for a matrix within 2 (m + 1) eps trace of
      it) add 4 (m + 2) eps (m + sum |T~_ij|), m = |S|.

    On the 24-mode N_max 2 grid at M = 1 the z term raises tau by at most
    3e-14, at M = 1e-6 by 1e-8, and at M = 1e-150 by more than any gap, so
    nothing is proven.  ``PRUNE_MARGIN`` (1e-9), which the Delta trials
    and the ground energy add to tau, is left for the rounding of the
    eigensolves that found tau and that build the block from s.
    """
    low = z <= 0.0
    count = np.count_nonzero(low, axis=1)
    finite = np.all(np.isfinite(z), axis=1)
    proven = finite & (count == 0)
    live = np.flatnonzero(finite & (count > 0) & (count <= SCHUR_STATES))
    if not live.size:
        return proven
    z, low, count = z[live], low[live], count[live]
    m, n = count.max(), z.shape[1]
    # S in index order; a momentum with |S| < m repeats its first state with
    # delta = 0, which leaves T as it is
    states = np.argsort(~low, axis=1, kind="stable")[:, :m]
    pad = np.arange(m) >= count[:, None]
    states = np.where(pad, states[:, :1], states)
    zeta = np.max(np.abs(z), axis=1)
    zt = np.where(low, zeta[:, None], z)
    lam = zt.min(axis=1)
    delta = np.take_along_axis(zeta[:, None] - z, states, axis=1) * (1.0 + 4.0 * EPS)
    delta[pad] = 0.0
    e = np.zeros((len(live), m, n), float if gram.real else complex)
    np.put_along_axis(e, states[:, :, None], 1.0, axis=2)

    def times_g(v, at):
        return gram.apply(v, live[at]) + zt[at, None, :] * v

    at = np.arange(len(live))  # the undecided momenta, positions in live
    x, r, p = np.zeros_like(e), e.copy(), e.copy()
    rr = np.ones((len(live), m))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(CG_STEPS):
            q = times_g(p, at)
            pq = np.sum((np.conj(p) * q).real, axis=2)
            x += np.divide(rr, pq, out=np.zeros_like(rr), where=pq > 0.0)[..., None] * p
            # the true residual, not the recurrence, so that the bound holds
            r = e[at] - times_g(x, at)
            ax = np.abs(x)
            bound = (gram.terms + 8) * EPS * (
                gram.apply(ax, live[at], absolute=True) + zt[at, None, :] * ax + e[at]
            ) + EPS * np.abs(r)
            yes, no = _schur_test(x, r, bound, states[at], delta[at], lam[at])
            proven[live[at[yes]]] = True
            keep = ~(yes | no)
            if not keep.any():
                break
            at, x, r, p, rr = at[keep], x[keep], r[keep], p[keep], rr[keep]
            rr_next = np.sum(np.abs(r) ** 2, axis=2)
            p = r + np.divide(rr_next, rr, out=np.zeros_like(rr), where=rr > 0.0)[..., None] * p
            rr = rr_next
    return proven


def _schur_test(x, r, bound, states, delta, lam) -> tuple:
    """(proven, refuted) of :func:`certify_block`'s T > 0 for each momentum
    of a stack: the (k, m, n) approximate solutions x and computed residuals
    r of G x_j = e_{S_j}, the entrywise bound of their rounding, and the
    (k, m) S, delta and (k,) lambda."""
    n, m = x.shape[-1], states.shape[1]
    first = np.take_along_axis(x, states[:, None, :], axis=2).swapaxes(1, 2)
    b = first + np.conj(x) @ r.swapaxes(1, 2)
    err = np.abs(x) @ (bound + (n + 4) * EPS * np.abs(r)).swapaxes(1, 2) + EPS * np.abs(b)
    root = np.sqrt(delta)
    t = -0.5 * root[:, :, None] * (b + _dagger(b)) * root[:, None, :]
    diagonal = np.einsum("...ii->...i", t)
    diagonal += 1.0
    norm = np.sqrt(np.sum(np.abs(r) ** 2, axis=2)) + np.sqrt(np.sum(bound**2, axis=2))
    theta = 2.0 * (
        np.sqrt(np.sum((root[:, :, None] * err * root[:, None, :]) ** 2, axis=(1, 2)))
        + np.sum(delta * norm**2, axis=1) / lam
    ) + 4.0 * (m + 2) * EPS * (m + np.sum(np.abs(t), axis=(1, 2)))
    shift = theta[:, None, None] * np.eye(m)
    return _pivots_positive(t - shift), ~_pivots_positive(t + shift)


def _pivots_positive(t) -> np.ndarray:
    """Whether the Cholesky factorization of each Hermitian matrix of the
    (k, m, m) stack t runs through in floating point, every pivot > 0 (a
    pivot that is not finite fails): outer products on a copy, column by
    column over the stack."""
    t = t.copy()
    ok = np.ones(len(t), dtype=bool)
    for j in range(t.shape[-1]):
        pivot = t[:, j, j].real
        ok &= pivot > 0.0
        col = t[:, j + 1:, j] / np.sqrt(np.where(ok, pivot, 1.0))[:, None]
        t[:, j + 1:, j + 1:] -= col[:, :, None] * np.conj(col[:, None, :])
    return ok


class _Rows(NamedTuple):
    """A sparse map as runs of terms sorted by row: entry at[k] of the
    image of x sums val[t] x[col[t]] over the run start[k]:start[k + 1]."""

    at: np.ndarray
    start: np.ndarray
    col: np.ndarray
    val: np.ndarray
    size: int  # the length of the image
    longest: int  # the most terms in one run

    def apply(self, x, absolute: bool = False) -> np.ndarray:
        """The map of x along its last axis, or that of the moduli: the
        vectors of x in turn, as many at once as keep their terms within
        ``STACK_BYTES``."""
        val = np.abs(self.val) if absolute else self.val
        out = np.zeros(x.shape[:-1] + (self.size,), np.result_type(x, val))
        if self.col.size:
            flat, image = x.reshape(-1, x.shape[-1]), out.reshape(-1, self.size)
            step = max(1, STACK_BYTES // (16 * self.col.size))
            for a in range(0, len(flat), step):
                terms = flat[a:a + step, self.col] * val
                image[a:a + step, self.at] = np.add.reduceat(terms, self.start, axis=-1)
        return out


def _rows(i, j, val, size: int) -> _Rows:
    """The :class:`_Rows` of the terms val at (i, j)."""
    order = np.argsort(i, kind="stable")
    i = i[order]
    start = np.flatnonzero(np.diff(i, prepend=-1))
    longest = int(np.diff(start, append=i.size).max(initial=0))
    return _Rows(i[start], start, j[order], val[order], size, longest)


def _frame_columns(parts, dim: int) -> tuple:
    """(W, W^dagger) of the block columns ``parts`` ((chi_+, F), (chi_-,
    G)), as :class:`_Rows` in the spin frame: W x = (F x_+, G x_-) on the
    2 dim coordinates (chi_+, chi_-) x Fock."""
    i, j, w, offset = [], [], [], 0
    for spin, (_, cols) in enumerate(parts):
        state, k = np.nonzero(cols.w)
        i.append(spin * dim + state)
        j.append(offset + cols.col[state, k])
        w.append(cols.w[state, k])
        offset += cols.rep.size
    i, j, w = (np.concatenate(a) for a in (i, j, w))
    return _rows(i, j, w, 2 * dim), _rows(j, i, np.conj(w), offset)


def _ladder_rows(model: FiberModel, g_ax, g_fl) -> _Rows:
    """The entries of sigma.v on the ladder table in the spin frame, from
    the per-mode coefficients (g_ax, g_fl) of :func:`_spin_frame`: the
    quadrants [[axial, flip], [conj(flip), -axial]] on 2 dim coordinates."""
    dim = model.dim
    lowered, raised, modes, amps = model.basis.ladder
    ax, fl = g_ax[modes] * amps, g_fl[modes] * amps
    quadrants = [(0, 0, ax), (0, dim, fl), (dim, 0, np.conj(fl)), (dim, dim, -ax)]
    return _rows(
        np.concatenate([a + k for a, _, _ in quadrants for k in (lowered, raised)]),
        np.concatenate([b + k for _, b, _ in quadrants for k in (raised, lowered)]),
        np.concatenate([v for *_, v in quadrants for _ in range(2)]),
        2 * dim,
    )


def _block_gram(P, model: FiberModel, setup, i: int) -> Gram:
    """s_i^dagger s_i of block i of ``setup`` for the (g, 3) P, as a
    :class:`Gram`: s_i = W_t^dagger (sigma.v) W_i of :func:`pffiber.hamiltonian._block_s`,
    applied as three sparse maps and never formed.

    W_i and W_t come from the :class:`Columns` tables of the blocks, in the
    spin frame, where sigma.v = [[axial, flip], [conj(flip), -axial]] of
    :func:`_spin_frame`: a diagonal per momentum plus the entries on the
    ladder table, which do not depend on P.  On J-fixed columns s_i is the
    real part of the chain, so each of its products keeps the real part.
    The bound s_+ is the chain of the moduli of the three maps, and every
    sum in a map has at most ``longest`` terms (plus 2 for the diagonal of
    sigma.v, and 2 more per map for complex products).  The W maps, from
    the columns of blocks i and t, and the ladder map do not depend on P;
    they are built per call, which costs less than one application to 16
    vectors."""
    mirror, real, coefs, specs = setup
    dim = model.dim
    partner, parts, _ = specs[i]
    w_i, w_i_dag = _frame_columns(parts, dim)
    w_t, w_t_dag = _frame_columns(specs[partner][1], dim) if mirror else (w_i, w_i_dag)
    (d_ax, g_ax), (d_fl, g_fl) = _spin_frame(P, model, coefs)
    ladder = _ladder_rows(model, g_ax, g_fl)

    def sigma_v(u, at, absolute):
        a, f = d_ax[at][:, None, :], d_fl[at][:, None, :]
        back, lower = np.conj(f), -a
        if absolute:
            a, f = np.abs(a), np.abs(f)
            back, lower = f, a
        out = ladder.apply(u, absolute)
        up, down = u[..., :dim], u[..., dim:]
        out[..., :dim] += a * up + f * down
        out[..., dim:] += back * up + lower * down
        return out

    def s(w, w_dag, x, at, absolute):
        y = w_dag.apply(sigma_v(w.apply(x, absolute), at, absolute), absolute)
        return y.real if real and not absolute else y

    def apply(x, at, absolute=False):
        return s(w_t, w_i_dag, s(w_i, w_t_dag, x, at, absolute), at, absolute)

    chain = w_i.longest + w_t_dag.longest + w_t.longest + w_i_dag.longest
    return Gram(apply, chain + 2 * ladder.longest + 16, real)
