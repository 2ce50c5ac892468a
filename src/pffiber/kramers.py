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
K[i, perm[i]] = phase[i], which each block carries (W = 1 without a
symmetry, where K = sigma_2 tensor 1); :func:`theta_defect` and
:func:`theta_pairing` check theta block by block as gathers through it.

The same argument applies to related models: the nonrelativistic fiber
operator, and position-space models with an even external potential, where
the conjugation acquires a parity flip x -> -x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bound_constants, count_below
from .hamiltonian import SIGMA, _as_model, hf_spinor
from .spectral import DEFAULT_CLUSTER_TOL, EnergyCache, solve_fiber

PAIRING_TOL = 1e-8


def _theta(x: np.ndarray) -> np.ndarray:
    """(sigma_2 tensor 1) conj(x), column by column."""
    half = x.shape[0] // 2
    out = np.empty(x.shape, dtype=complex)
    conj = np.conj(x)
    out[:half] = -1.0j * conj[half:]
    out[half:] = 1.0j * conj[:half]
    return out


def apply_theta(psi: np.ndarray) -> np.ndarray:
    """theta psi = (sigma_2 tensor 1) conj(psi); antiunitary and isometric."""
    psi = np.asarray(psi)
    if psi.ndim != 1 or psi.shape[0] % 2:
        raise ValueError("state must be a vector on C^2 tensor Fock")
    return _theta(psi)


def theta_squared_sign(dim_fock: int) -> float:
    """Certificate that theta^2 = -1: max |theta(theta(e_i)) + e_i| over a basis."""
    worst = 0.0
    eye = np.eye(2 * dim_fock)
    for col in eye.T:
        worst = max(worst, float(np.max(np.abs(apply_theta(apply_theta(col)) + col))))
    return worst


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


def frobenius(h: np.ndarray):
    """||H||_F of a matrix, or of each matrix of a (g, n, n) stack, summed
    in place by ``einsum``: no temporary of the size of h."""
    parts = (h.real, h.imag) if np.iscomplexobj(h) else (h,)
    return np.sqrt(sum(np.einsum("...ij,...ij->...", x, x) for x in parts))


def theta_defect(h_src: np.ndarray, h_dst: np.ndarray, theta):
    """||K conj(H_src) K^dagger - H_dst||_F for the phased permutation
    ``theta`` = (perm, phase), K[i, perm[i]] = phase[i]: a float, or one per
    matrix for (g, n, n) stacks of both blocks.

    The first term is the theta-image of block H_src, one gather:
    phase_i conj(phase_j) conj(H_src)[perm_i, perm_j].  Each entry is one
    product, so with W = 1, where the phases are -+i, it equals the dense
    (s2 x 1) conj(H) (s2 x 1) bit for bit.
    """
    perm, phase = theta
    twisted = h_src[..., perm[:, None], perm].astype(complex, copy=False)
    np.conj(twisted, out=twisted)
    twisted *= phase[:, None]
    twisted *= np.conj(phase)
    twisted -= h_dst
    defect = frobenius(twisted)
    return float(defect) if defect.ndim == 0 else defect


def check_theta_commutes(h: np.ndarray) -> float:
    """Relative commutation residual of a C^2 tensor Fock Hamiltonian.

    theta H theta^{-1} = (sigma_2 tensor 1) conj(H) (sigma_2 tensor 1), so the
    residual is ||(s2 x 1) conj(H) (s2 x 1) - H||_F / ||H||_F.
    """
    if h.shape[0] % 2:
        raise ValueError("spinor dimension must be even")
    half = h.shape[0] // 2
    s2 = np.roll(np.arange(2 * half), half), np.repeat([-1.0j, 1.0j], half)
    return theta_defect(h, h, s2) / float(frobenius(h))


def theta_pairing(block, twin, h_twin: np.ndarray, lam: float, x):
    """The Kramers pairing of an eigenpair (lam, x) of ``block``, one of
    :func:`pffiber.hamiltonian.block_stacks`, whose partner is ``twin``.

    v = W x has theta v = W' K conj(x), K the phased permutation
    ``block.theta`` onto ``twin``: (K conj(x))_i = phase_i conj(x)[perm_i].
    Returns (||H' K conj(x) - lam K conj(x)||, |<v, theta v>|), H' the 2-D
    ``h_twin`` of ``twin`` at the momentum of x; divided by ||H||, the first
    is the ``ground_pairing`` residual of a :class:`FiberSolve`.
    """
    perm, phase = block.theta
    tx = phase * np.conj(x)[perm]
    res = float(np.linalg.norm(h_twin @ tx - lam * tx))
    v, tv = block.expand(x), twin.expand(tx)
    return res, abs(complex(np.vdot(v, tv)))


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
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cache: EnergyCache | None = None,
) -> KramersCertificate:
    """Certify that the ground level of H(P) is exactly two-fold degenerate.

    Checks (a) theta commutes with H(P); (b) the ground cluster has
    multiplicity >= 2 with theta mapping the ground vector to an orthogonal
    ground vector; (c) at most two eigenvalues lie below Sigma_-(P), given
    the verified lower sandwich.  (a) + (b) + (c) give exactly two.  The
    result is marked inconclusive if the sandwich check fails; the guard
    hypotheses (gamma < 1, m_ph > 0, e <= e_star) are reported, not enforced.
    Sigma_-(P) and the sandwich both use the model's own bound constants.
    """
    model = _as_model(params_or_model)
    p = model.params
    P = np.asarray(P, dtype=float)
    if not (p.gap_hypotheses_met() and p.e <= e_star):
        return KramersCertificate(P=tuple(P), hypotheses_met=False)
    consts = bound_constants(model)
    solve = solve_fiber(P, model, cluster_tol, cache)
    mult = solve.mult
    pairing, overlap = solve.ground_pairing
    lower, _, scale = solve.sandwich
    sandwich_ok = lower >= -1e-9 * scale
    cnt = count_below(solve.eigenvalues, consts.sigma_minus(P))
    if not sandwich_ok:
        conclusion = "inconclusive (sandwich failed)"
    elif mult == 2 and cnt <= 2 and pairing <= PAIRING_TOL:
        conclusion = "exactly two-fold"
    elif mult >= 2:
        conclusion = "at least two-fold"
    else:
        conclusion = "violation"
    return KramersCertificate(
        P=tuple(P),
        hypotheses_met=True,
        theta_comm_residual=solve.residuals["theta_commutation"],
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


def position_toy(n_sites: int = 8, box: float = 4.0, mass: float = 1.0,
                 v_strength: float = 0.6, spin_orbit: float = 0.3,
                 odd_potential: bool = False):
    """Minimal spin-1/2 particle on a symmetric position grid.

    H = p^2/2m + V(x) + lambda sigma_1 (x p + p x)/2 with a grid-antisymmetric
    momentum p.  With even V every term preserves the modified reality
    structure (conjugation composed with x -> -x), so H commutes with the
    position-space time reversal; an odd V breaks it.

    Returns (H, parity permutation matrix).
    """
    if n_sites % 2:
        raise ValueError("use an even site count so the grid is parity symmetric")
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
