"""Time-reversal symmetry and two-fold degeneracy certificates.

The occupation basis is declared the real structure: J is entrywise complex
conjugation there.  This matches conjugation of the n-photon wavefunction
coefficients because the mode couplings are real by the dreibein convention.
The time reversal operator is the antiunitary

    theta = (sigma_2 tensor 1) J,      sigma_2 = [[0, -i], [i, 0]],

with theta^2 = -1.  Any Hamiltonian commuting with theta has purely even
eigenvalue multiplicities (Kramers); combined with the min-max count of at
most two eigenvalues below Sigma_-(P), the ground level is exactly two-fold.
theta also commutes with the grid symmetries that block H(P), so it maps
each block onto a partner block.  Between the two block bases it is
x -> K conj(x) with K a phased permutation, (perm, phase) with
K[i, perm[i]] = phase[i], which the block's set-up entry lists
(:func:`pffiber.hamiltonian._symmetry_setup`; W = 1 without a symmetry,
where K = sigma_2 tensor 1).  The solves build only the first block of
each pair, check theta on sigma.v
(:func:`pffiber.hamiltonian.theta_pair`) and take the overlap
<v, theta v> of the ground vector
(:func:`pffiber.hamiltonian.theta_pairing`); :func:`theta_defect` is a
gather through K.

The same argument applies to related models: the nonrelativistic fiber
operator, and position-space models with an even external potential, where
the conjugation acquires a parity flip x -> -x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import SANDWICH_TOL, bound_constants, count_below, sandwich_margins
from .fock import frobenius
from .hamiltonian import SIGMA, _as_model, hf_spinor, theta_image
from .spectral import EnergyCache, solve_fiber

# the bound gamma ||theta s theta^-1 + s||_F / ||H|| on the theta defect of
# H(P) (:mod:`pffiber.spectral`): verify's check 4 and the certificate's (a)
THETA_COMM_TOL = 1e-12


def _sigma2(dim_fock: int) -> tuple:
    """theta = (sigma_2 tensor 1) J as the (perm, phase) of :func:`theta_defect`."""
    return np.roll(np.arange(2 * dim_fock), dim_fock), np.repeat([-1j, 1j], dim_fock)


def theta_squared_sign(dim_fock: int) -> float:
    """Certificate that theta^2 = -1: max |theta(theta(e_i)) + e_i| over a
    basis.  theta^2 is the phased permutation (perm[perm], phase
    conj(phase[perm])), so theta^2 e_i + e_i is (phase' + 1) e_i where
    perm[perm] fixes i, and two entries of moduli |phase'| and 1 elsewhere."""
    perm, phase = _sigma2(dim_fock)
    square = phase * np.conj(phase[perm])
    fixed = perm[perm] == np.arange(perm.size)
    defect = np.where(fixed, np.abs(square + 1.0), np.maximum(np.abs(square), 1.0))
    return float(np.max(defect))


def check_reality_relations(params_or_model) -> dict:
    """Residuals of the conjugation relations of the field operators.

    P_f components, A(0) components and H_f commute with entrywise
    conjugation (real matrices); B(0) anticommutes (purely imaginary
    entries).  All residuals are exact zeros up to construction rounding.
    """
    model = _as_model(params_or_model)
    res = {}
    for j in range(3):
        res[f"P_f_{j}"] = 0.0  # diagonal real by construction
        res[f"A_{j}"] = float(np.max(np.abs(np.imag(model.A[j]))))
        res[f"B_{j}"] = float(np.max(np.abs(np.conj(model.B[j]) + model.B[j])))
    res["H_f"] = float(np.max(np.abs(np.imag(model.hf))))
    return res


def theta_defect(h_src: np.ndarray, h_dst: np.ndarray, theta):
    """||K conj(H_src) K^dagger - H_dst||_F for the phased permutation
    ``theta`` = (perm, phase), K[i, perm[i]] = phase[i]: a float, or one per
    matrix for (g, n, n) stacks of both blocks.

    The first term is the theta-image of block H_src, one gather
    (:func:`pffiber.hamiltonian.theta_image`) with exact signs, so with
    W = 1 it equals the dense (s2 x 1) conj(H) (s2 x 1) bit for bit.
    """
    defect = frobenius(theta_image(h_src, theta, theta) - h_dst)
    return float(defect) if defect.ndim == 0 else defect


def check_theta_commutes(h: np.ndarray) -> float:
    """Relative commutation residual of a C^2 tensor Fock Hamiltonian.

    theta H theta^{-1} = (sigma_2 tensor 1) conj(H) (sigma_2 tensor 1), so the
    residual is ||(s2 x 1) conj(H) (s2 x 1) - H||_F / ||H||_F.
    """
    if h.shape[0] % 2:
        raise ValueError("spinor dimension must be even")
    return theta_defect(h, h, _sigma2(h.shape[0] // 2)) / float(frobenius(h))


@dataclass
class KramersCertificate:
    """Outcome of the exact-two-fold-degeneracy argument at one momentum."""

    P: tuple
    hypotheses_met: bool
    theta_comm_residual: float | None = None
    ground_multiplicity: int | None = None
    pairing_residual: float | None = None
    ground_overlap: float | None = None
    count_below_sigma: int | None = None
    sandwich_ok: bool | None = None
    conclusion: str = "hypotheses not met"


def kramers_certificate(
    P,
    params_or_model,
    e_star: float = 0.3,
    cache: EnergyCache | None = None,
) -> KramersCertificate:
    """Certify that the ground level of H(P) is exactly two-fold degenerate.

    Checks (a) theta commutes with H(P), the record's bound on
    ||theta H theta^-1 - H||_F / ||H|| being within ``THETA_COMM_TOL``;
    (b) the ground cluster has multiplicity >= 2 with theta mapping the
    ground vector to an orthogonal ground vector; (c) at most two
    eigenvalues lie below Sigma_-(P), given the verified lower sandwich.
    (a) + (b) + (c) give exactly two.  The result is marked inconclusive
    if the sandwich check fails; the guard hypotheses (gamma < 1, m_ph > 0,
    e <= e_star) are reported, not enforced.
    Sigma_-(P) and the sandwich both use the model's own bound constants.
    The ground cluster is the record's, at ``spectral.CLUSTER_TOL``, and the
    lower sandwich margin, :func:`pffiber.bounds.sandwich_margins`, passes
    down to ``-SANDWICH_TOL * ||H||``, the tolerance of verify's check 5.
    Both are read through ``cache``, without one through one of the call's
    own, so a P along u is solved once.
    """
    model = _as_model(params_or_model)
    p = model.params
    P = np.asarray(P, dtype=float)
    if not (p.gap_hypotheses_met() and p.e <= e_star):
        return KramersCertificate(P=tuple(P), hypotheses_met=False)
    consts = bound_constants(model)
    cache = EnergyCache() if cache is None else cache
    solve = solve_fiber(P, model, cache)
    mult = solve.mult
    pairing, overlap = solve.ground_pairing
    theta = solve.residuals["theta_commutation"]
    lower, _, scale = sandwich_margins(P, model, cache)
    sandwich_ok = lower >= -SANDWICH_TOL * scale
    cnt = count_below(solve.eigenvalues, consts.sigma_minus(P))
    if not sandwich_ok:
        conclusion = "inconclusive (sandwich failed)"
    elif mult == 2 and cnt <= 2 and theta <= THETA_COMM_TOL:
        conclusion = "exactly two-fold"
    elif mult >= 2:
        conclusion = "at least two-fold"
    else:
        conclusion = "violation"
    return KramersCertificate(
        P=tuple(P),
        hypotheses_met=True,
        theta_comm_residual=theta,
        ground_multiplicity=mult,
        pairing_residual=pairing,
        ground_overlap=overlap,
        count_below_sigma=cnt,
        sandwich_ok=sandwich_ok,
        conclusion=conclusion,
    )


def build_H_NR(P, params_or_model) -> np.ndarray:
    """Nonrelativistic fiber operator (P - P_f + A)^2/2M + sigma.B/2M + H_f.

    The coupling sits inside the mode table, so the explicit field B(0)
    appears with prefactor 1/2M.  Commutes with theta for every P and e.
    """
    from .hamiltonian import build_v

    model = _as_model(params_or_model)
    p = model.params
    v = build_v(P, model)
    v2 = sum(vj @ vj for vj in v)
    h = np.kron(np.eye(2), v2 / (2.0 * p.M)).astype(complex)
    h += sum(np.kron(SIGMA[j], model.B[j]) for j in range(3)) / (2.0 * p.M)
    h += hf_spinor(model)
    return h


def position_toy(odd_potential: bool = False):
    """Minimal spin-1/2 particle on a symmetric position grid.

    H = p^2/2m + V(x) + lambda sigma_1 (x p + p x)/2 with a grid-antisymmetric
    momentum p.  With even V every term preserves the modified reality
    structure (conjugation composed with x -> -x), so H commutes with the
    position-space time reversal; an odd V breaks it.

    Returns (H, parity permutation matrix).
    """
    # an even site count, so that the grid is parity symmetric
    n_sites, box, mass, v_strength, spin_orbit = 8, 4.0, 1.0, 0.6, 0.3
    x = np.linspace(-box, box, n_sites)
    dx = x[1] - x[0]
    # 4th-order antisymmetric stencil; mixing 1- and 2-site shifts avoids the
    # checkerboard doubling symmetry of the plain central difference
    pmat = np.zeros((n_sites, n_sites), dtype=complex)
    for i in range(n_sites - 1):
        pmat[i, i + 1] = -8.0j / (12 * dx)
        pmat[i + 1, i] = 8.0j / (12 * dx)
    for i in range(n_sites - 2):
        pmat[i, i + 2] = 1.0j / (12 * dx)
        pmat[i + 2, i] = -1.0j / (12 * dx)
    kin = (pmat @ pmat).real / (2.0 * mass)
    v = v_strength * (x if odd_potential else x**2 / box)
    xmat = np.diag(x)
    so = 0.5 * (xmat @ pmat + pmat @ xmat)
    h = np.kron(np.eye(2), kin + np.diag(v)) + spin_orbit * np.kron(SIGMA[0], so)
    parity = np.eye(n_sites)[::-1].copy()
    return h, parity


def check_theta_commutes_position(h: np.ndarray, parity: np.ndarray) -> float:
    """Commutation residual with theta = sigma_2 (conj o parity).

    For position-space models the reality-preserving conjugation composes
    entrywise conjugation with x -> -x, so the twist matrix is
    sigma_2 tensor parity.
    """
    u = np.kron(SIGMA[1], parity)
    twisted = u @ np.conj(h) @ u.conj().T
    return float(np.linalg.norm(twisted - h) / np.linalg.norm(h))


def check_theta_commutes_related(model_kind: str, params_or_model=None, P=None,
                                 odd_potential: bool = False) -> float:
    """Residual contract of :func:`check_theta_commutes` for related models.

    ``model_kind``: 'nonrelativistic' (fiber operator at momentum P) or
    'position_toy' (grid model; ``odd_potential=True`` is the negative
    control and is rejected as a certified-symmetric input).
    """
    if model_kind == "nonrelativistic":
        h = build_H_NR(np.zeros(3) if P is None else P, params_or_model)
        return check_theta_commutes(h)
    if model_kind == "position_toy":
        if odd_potential:
            raise ValueError(
                "odd external potentials break the modified reality structure"
            )
        h, parity = position_toy()
        return check_theta_commutes_position(h, parity)
    raise ValueError(f"unknown related model {model_kind!r}")
