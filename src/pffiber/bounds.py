"""Explicitly diagonalizable comparison operators and energy inequalities.

The fiber Hamiltonian is sandwiched between two operators that are diagonal
in the occupation basis,

    L_-(P) <= H(|P| u) <= L_+(P),        u = (1, 0, 0),

with

    L_-(P) = gamma sqrt(P^2 + M^2) + (1 - gamma - eC1) H_f - eC2,
    L_+(P) = gamma [ (|P| u - P_f)^2 + 2 |P| (H_f + n_half)
                     + 4 (H_f + 1) P_f^2 + n_one^2 + n_one^2 (H_f + 1)
                     + H_f + n_kin^2 + M^2 ]^{1/2} + H_f.

The explicit constants replay the lower-bound proof with the quadratic-form
coupling estimates, keeping the kinetic prefactor gamma on every step:

    eC1 = eC2 = gamma * ( n_half_along_u  +  (3 pi / M) * n_curl ).

Both parts erode H_f and shift the bottom; they vanish linearly in e.  The
sandwich itself is re-verified by eigensolves.  Each closed form is one
:class:`BoundConstants` method: ``l_minus``, L_- at H_f = h, gives Sigma_-(P)
(h = m_ph; at most two eigenvalues below it) and the lower envelope of E(P)
(h = 0); ``upper_envelope``, ``gap_floor`` (E1 - E) and ``delta_floor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blas import threads

# build_H and ground_data are unused here but stay bound: the tests of
# perfbench/tracer.py check that tracing patches this module's copies
from .hamiltonian import (  # noqa: F401
    FiberModel,
    _as_model,
    build_H,
    kinetic_root,
    op_sqrt_eig,
)
from .spectral import FiberSolve, ground_data, solve_fiber  # noqa: F401

# the one tolerance of the sandwich and envelope inequalities, relative to
# ||H|| for a sandwich margin: verify's checks 5, 7, 8, 9 and inv2, the
# Kramers certificate's sandwich_ok and theorem_gap_report's envelope_ok
SANDWICH_TOL = 1e-9
# trials per stacked draw of sqrt_monotone_test.  The chunk sets the check's
# peak memory: at dim 12, 0.5 MB of traced numpy memory at 16, 2.1 MB at 64
# and 28 MB for 1000 trials at once, where verify's peak RSS is about 44 MB
SQRT_MONOTONE_CHUNK = 16
U_DIRECTION = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class BoundConstants:
    """Measured constants entering L_-, Sigma_- and the corollary envelope.

    e_c1 / e_c2: H_f erosion and constant offset of the lower comparison
    operator (equal by construction).  e_c3 and e2_c4 parametrize the upper
    corollary E(P) <= gamma sqrt((|P| + eC3)^2 + M^2 + e^2 C4).

    e_c_prime = gamma (n_half + (3 pi / M) n_curl) is eC1 with the norm of
    the whole form factor in place of its u-component, so that the lower
    bound holds at every momentum q, not only along u:

        H(q) >= gamma sqrt(q^2 + M^2) + (1 - gamma - eC') H_f - eC'.

    The proof along u replays at q = |q| d for any unit vector d.  With
    v = q - P_f + A(0), sum_j v_j^2 = sum over an orthonormal frame (d, e, e')
    of (d.v)^2 + (e.v)^2 + (e'.v)^2 >= (d.v)^2, so by operator monotonicity
    H_SL(q) >= gamma f(|q| - X) + H_f, f(x) = sqrt(x^2 + M^2), with
    X = d.P_f - d.A(0).  Convexity of f gives f(|q| - X) >= f(|q|) -
    f'(|q|) X with |f'| <= 1; |d.P_f| <= |P_f| <= H_f as |k| <= omega(k);
    and d.A(0) = sum_m (d.f_m)(a_m + a_m^dagger) >= -n_d (H_f + 1), where
    n_d = || omega^{-1/2} |d.f| || is the norm that ``n_half_comp[0]``
    takes at d = u.  By Cauchy-Schwarz |d.f_m| <= |f_m|, so n_d <= n_half
    for every d.  The spin difference |H - H_SL| <= gamma (3 pi / M) n_curl
    (H_f + 1) does not depend on a direction.  Where 1 - gamma - eC' >= 0,
    dropping the H_f term leaves the direction-free corollary
    E(q) >= gamma sqrt(q^2 + M^2) - eC' (:meth:`direction_free_envelope`),
    which :func:`pffiber.spectral.delta_trials` uses to skip trials.
    """

    gamma: float
    M: float
    m_ph: float
    e_c1: float
    e_c_prime: float
    e_c2: float
    e_c3: float
    e2_c4: float

    def l_minus(self, P, h=None):
        """L_-(P) where H_f takes the value h (a float or the diagonal of
        H_f): gamma sqrt(P^2 + M^2) + (1 - gamma - eC1) h - eC2.  h = None
        is the vacuum, H_f = 0, with no H_f term: (1 - gamma - eC1) * 0.0
        would be a NaN where an overflowing coupling makes eC1 infinite."""
        p2 = float(np.dot(P, P))
        out = self.gamma * math.sqrt(p2 + self.M**2)
        if h is not None:
            out = out + (1.0 - self.gamma - self.e_c1) * h
        return out - self.e_c2

    def sigma_minus(self, P) -> float:
        """Bottom of the continuous part of spec(L_-(P)): L_- at H_f = m_ph."""
        return self.l_minus(P, self.m_ph)

    def lower_envelope(self, P) -> float:
        """Corollary lower bound gamma sqrt(P^2 + M^2) - eC2: L_- at H_f = 0."""
        return self.l_minus(P)

    def direction_free_holds(self) -> bool:
        """Whether :meth:`direction_free_envelope` bounds E: gamma < 1,
        m_ph > 0 and 1 - gamma - eC' >= 0."""
        slack = 1.0 - self.gamma - self.e_c_prime
        return self.gamma < 1.0 and self.m_ph > 0.0 and slack >= 0.0

    def direction_free_envelope(self, P):
        """gamma sqrt(P^2 + M^2) - eC', a lower bound on E(P) in every
        direction of P where :meth:`direction_free_holds`; one value per
        row of a (n, 3) P."""
        p2 = np.sum(np.square(P), axis=-1)
        return self.gamma * np.sqrt(p2 + self.M**2) - self.e_c_prime

    def upper_envelope(self, P) -> float:
        """Corollary upper bound: gamma sqrt((|P| + eC3)^2 + M^2 + e^2 C4)."""
        absp = float(np.linalg.norm(P))
        return self.gamma * math.sqrt(
            (absp + self.e_c3) ** 2 + self.M**2 + self.e2_c4
        )

    def gap_floor(self) -> float:
        """The explicit floor E1 - E >= (1 - eC1 - gamma) m_ph - eC2."""
        return (1.0 - self.e_c1 - self.gamma) * self.m_ph - self.e_c2

    def delta_floor(self, P) -> float:
        """The explicit floor Delta(P) >= (1 - gamma) m_ph - [eC2 + (upper
        envelope - gamma sqrt(P^2 + M^2))]."""
        free = self.gamma * math.sqrt(float(np.dot(P, P)) + self.M**2)
        return (1.0 - self.gamma) * self.m_ph - (
            self.e_c2 + self.upper_envelope(P) - free
        )


def bound_constants(params_or_model) -> BoundConstants:
    """Assemble the explicit constants from the discrete coupling norms."""
    model = _as_model(params_or_model)
    p, n = model.params, model.norms
    e_c = p.gamma * (n.n_half_comp[0] + (3.0 * math.pi / p.M) * n.n_curl)
    return BoundConstants(
        gamma=p.gamma,
        M=p.M,
        m_ph=p.m_ph,
        e_c1=e_c,
        e_c_prime=p.gamma * (n.n_half + (3.0 * math.pi / p.M) * n.n_curl),
        e_c2=e_c,
        e_c3=n.n_half,
        e2_c4=2.0 * n.n_one**2 + n.n_kin**2,
    )


def build_L_minus(P, params_or_model):
    """Diagonal of L_-(P) on the Fock factor (spin-trivial)."""
    model = _as_model(params_or_model)
    if model.params.gamma >= 1.0:
        raise ValueError("the lower comparison operator requires gamma < 1")
    return bound_constants(model).l_minus(P, model.hf)


def build_L_plus(P, params_or_model):
    """Diagonal of L_+(P) on the Fock factor.

    All constituents are functions of the occupation diagonals, so they
    commute and the entrywise formula is the full operator.
    """
    model = _as_model(params_or_model)
    p, n = model.params, model.norms
    absp = float(np.linalg.norm(P))
    rel = absp * U_DIRECTION[None, :] - model.pf
    hf = model.hf
    pf2 = np.sum(model.pf * model.pf, axis=1)
    radicand = (
        np.sum(rel * rel, axis=1)
        + 2.0 * absp * (hf + n.n_half)
        + 4.0 * (hf + 1.0) * pf2
        + n.n_one**2
        + n.n_one**2 * (hf + 1.0)
        + hf
        + n.n_kin**2
        + p.M**2
    )
    if np.any(radicand < 0.0):  # impossible by construction
        raise ValueError("negative radicand in the upper comparison operator")
    return p.gamma * np.sqrt(radicand) + hf


def count_below(h, threshold: float) -> int:
    """Number of eigenvalues strictly below the threshold."""
    h = np.asarray(h)
    vals = np.linalg.eigvalsh(h) if h.ndim == 2 else np.sort(h)
    return int(np.searchsorted(vals, threshold, side="left"))


def sandwich_margins(P, params_or_model):
    """min eig(H(|P|u) - L_-) and min eig(L_+ - H(|P|u)), with the scale
    ||H(|P|u)||_2: the ``sandwich`` of the
    :func:`pffiber.spectral.solve_fiber` record of |P|u, None at
    gamma >= 1.

    The Hamiltonian is evaluated at |P| u as in the comparison statements;
    rotation covariance of E(P) is probed separately.
    """
    P_u = float(np.linalg.norm(np.asarray(P, dtype=float))) * U_DIRECTION
    return solve_fiber(P_u, params_or_model).sandwich


def comparison_diagonals(P, model: FiberModel) -> tuple:
    """The diagonals of L_-(P) and of L_+(P) on the Fock factor, one row
    per momentum of the (g, 3) P."""
    return (
        np.array([build_L_minus(p, model) for p in P]),
        np.array([build_L_plus(p, model) for p in P]),
    )


def block_margins(h, rows, lm, lp):
    """The sandwich margins of one block of H(|P|u) at each momentum of a
    stack: min eig(h - L_-) and min eig(L_+ - h) for each matrix of the
    (g, n, n) block stack ``h``, one stacked ``eigvalsh`` each.  ``lm`` and
    ``lp`` are the (g, dim) :func:`comparison_diagonals` of the stack, and
    ``rows`` the orbit representatives of the block's columns, the
    :func:`pffiber.hamiltonian._reps` of its set-up entry.

    L_-(P) and L_+(P) are spin-trivial, diagonal in the occupation basis and
    functions of H_f, |P_f|^2 and u.P_f, so they are constant on the
    Gamma-orbits of every element of the grid that fixes u: on a block of
    H(|P| u) (:func:`pffiber.hamiltonian._symmetry_setup`) they are
    diagonal, read at ``rows``.  A theta-partner takes its head's margins
    (:func:`pffiber.spectral._pair_values`).
    """
    shifted = h.copy()
    np.einsum("...ii->...i", shifted)[...] -= lm[:, rows]
    with threads(h):
        lower = np.linalg.eigvalsh(shifted)[..., 0]
        np.negative(h, out=shifted)
        np.einsum("...ii->...i", shifted)[...] += lp[:, rows]
        return lower, np.linalg.eigvalsh(shifted)[..., 0]


@dataclass
class GapReport:
    """Margins of the uniform-gap inequalities at one momentum, each the
    measured side minus its closed form: Delta(P) - delta_floor(P), E1 - E -
    (Sigma_-(P) - upper envelope) (the min-max chain) and E1 - E -
    gap_floor(); and whether E lies in the envelope within SANDWICH_TOL."""

    delta_margin: float
    chain_margin: float
    direct_margin: float
    envelope_ok: bool


def theorem_gap_report(
    P, consts: BoundConstants, solve: FiberSolve, delta: float
) -> GapReport:
    """Evaluate the gap inequalities with the constants ``consts`` at one
    P: E and E1 are read from ``solve``, the
    :func:`pffiber.spectral.solve_fiber` record of H(P), and Delta(P) is
    ``delta``.  E1 - E is infinite where the record has no E1."""
    e0, e1 = solve.E, solve.E1
    lower, upper = consts.lower_envelope(P), consts.upper_envelope(P)
    gap = math.inf if e1 is None else e1 - e0
    return GapReport(
        delta_margin=delta - consts.delta_floor(P),
        chain_margin=gap - (consts.sigma_minus(P) - upper),
        direct_margin=gap - consts.gap_floor(),
        envelope_ok=lower - SANDWICH_TOL <= e0 <= upper + SANDWICH_TOL,
    )


def taylor_remainder_min_eig(P, params_or_model) -> float:
    """min eig of the second-order rest term of the square-root expansion.

    With X = P_f1 - A(0)_1 and f(s) = sqrt(s^2 + M^2), the operator
    f(|P| - X) - f(|P|) - f'(|P|) (-X) is positive by convexity of f; this
    evaluates its smallest eigenvalue directly.
    """
    model = _as_model(params_or_model)
    p = model.params
    absp = float(np.linalg.norm(P))
    x = np.diag(model.pf[:, 0]) - model.A[0]
    arg = absp * np.eye(model.dim) - x
    val = math.sqrt(absp**2 + p.M**2)
    rest = (
        kinetic_root(arg, p.M)
        - val * np.eye(model.dim)
        - (absp / val) * (-x)
    )
    return float(np.linalg.eigvalsh(rest)[0])


def sqrt_monotone_test(dim: int = 12, trials: int = 1000, rng_seed: int = 0):
    """Property test of operator monotonicity of the square root.

    Draws Hermitian PSD S and T = S + W^dagger W and returns the worst
    margin min eig(sqrt(T) - sqrt(S)) / ||sqrt(T)||, NaN if any margin is;
    verify's check 10b compares it with its tolerance.

    The trials run in chunks of ``SQRT_MONOTONE_CHUNK``: one draw of the
    chunk's G and W (the stream of drawing each trial's Re G, Im G, Re W,
    Im W in turn), one stacked :func:`op_sqrt_eig` for T and one for S, and
    one stacked ``eigvalsh``.  ||sqrt(T)||_2 is the square root of T's
    largest eigenvalue, which the ``eigh`` of the root of T has given.  Each
    matrix goes through the same LAPACK calls as on its own, so the margins
    are those of a trial-by-trial loop that roots T and S with ``eigh``
    alone, bit for bit.
    """
    if dim > 32:
        raise ValueError("property suite is desk-scale: dim <= 32")
    rng = np.random.default_rng(rng_seed)
    worst = math.inf
    for start in range(0, trials, SQRT_MONOTONE_CHUNK):
        draw = rng.standard_normal(
            (min(SQRT_MONOTONE_CHUNK, trials - start), 4, dim, dim)
        )
        g = draw[:, 0] + 1j * draw[:, 1]
        w = draw[:, 2] + 1j * draw[:, 3]
        s = g.conj().swapaxes(-1, -2) @ g
        t = s + w.conj().swapaxes(-1, -2) @ w
        rt, norm = op_sqrt_eig(t, with_norm=True)
        diff = rt - op_sqrt_eig(s)
        margins = np.linalg.eigvalsh(diff)[:, 0] / norm
        worst = float(np.minimum(worst, np.min(margins)))
    return worst
