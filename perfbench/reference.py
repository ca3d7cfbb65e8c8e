"""Plain-NumPy reference values and the output checks built on them.

Nothing here calls entbound: channel images are explicit Kraus sums,
lower bounds are the overlap with the canonical maximally entangled
state (MES), the two-qubit concurrence comes from the spectrum of
rho rho~, and probabilities are traces of unnormalised images.  Each
``check_*`` function compares one program output with these values and
returns the list of failure kinds it found (empty when the output is
correct).  Tolerances follow the library's ladder: 1e-8 on bounds,
1e-10 on probabilities, 1e-12 on the Theorem-1 lower edge.
"""

from __future__ import annotations

import numpy as np

TOL_BOUND = 1e-8
TOL_PROB = 1e-10
TOL_STRUCTURE = 1e-12

# The one failure the seed program is known to produce: under a
# non-trace-preserving channel the determinant-normalised upper bound
# omits the 1/p_t factor and can fall below the exact concurrence.
KNOWN_DEFECT = "nontp_upper_violation"

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def prefactor(r: int) -> float:
    return float(np.sqrt(2.0 * r / (r - 1.0)))


def kraus_image(rho, dims, kraus, side: str) -> np.ndarray:
    """Unnormalised sum_k (M_k o 1) rho (M_k o 1)^dag, or (1 o M_k) for side "second"."""
    n1, n2 = dims
    total = np.zeros_like(rho, dtype=complex)
    for m in kraus:
        lifted = np.kron(m, np.eye(n2)) if side == "first" else np.kron(np.eye(n1), m)
        total = total + lifted @ rho @ lifted.conj().T
    return total


def evolve(rho, dims, kraus_1=None, kraus_2=None):
    """Normalised image and its probability p under channel(s) on either side."""
    image = np.asarray(rho, dtype=complex)
    if kraus_1 is not None:
        image = kraus_image(image, dims, kraus_1, "first")
    if kraus_2 is not None:
        image = kraus_image(image, dims, kraus_2, "second")
    p = float(np.trace(image).real)
    return image / p, p


def probe_density(probe_matrix) -> np.ndarray:
    vec = np.asarray(probe_matrix, dtype=complex).reshape(-1)
    return np.outer(vec, vec.conj())


def mes_bound(rho, dims) -> float:
    """Raw sqrt(2R/(R-1)) (<Phi|rho|Phi> - 1/R) for the canonical MES Phi."""
    r = min(dims)
    diag = [i * dims[1] + i for i in range(r)]
    fidelity = float(np.asarray(rho)[np.ix_(diag, diag)].sum().real) / r
    return prefactor(r) * (fidelity - 1.0 / r)


def wootters(rho) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the square roots of the eigenvalues of rho rho~ with
    rho~ = (sy o sy) rho* (sy o sy).  They are taken as the singular
    values of sqrt(rho) sqrt(rho~), whose squares are those eigenvalues;
    square roots of the tiny eigenvalues of the product itself would
    carry O(1e-8) rounding noise.
    """
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ (_YY @ root.conj() @ _YY), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def upper_formula(c_in: float, probe_images, probe_matrix) -> float:
    """c_in * prod_i C(rho_Pi) / (2 |det P|), one factor per channel side."""
    det = abs(np.linalg.det(np.asarray(probe_matrix, dtype=complex)))
    value = c_in
    for image in probe_images:
        value *= wootters(image) / (2.0 * det)
    return float(value)


def schmidt_concurrence(coefficients) -> float:
    """Pure-state concurrence sqrt(2 (1 - sum s^4)) of a coefficient matrix."""
    s = np.linalg.svd(np.asarray(coefficients, dtype=complex), compute_uv=False)
    total = float(np.sum(s ** 2))
    return float(np.sqrt(max(0.0, 2.0 * (total * total - np.sum(s ** 4)))))


def _upper_checks(upper, expected, non_tp: bool) -> list:
    kinds = []
    if abs(upper - expected["upper"]) > TOL_BOUND:
        kinds.append("upper_formula")
    if upper < expected["exact"] - TOL_BOUND:
        kinds.append(KNOWN_DEFECT if non_tp else "upper_violation")
    return kinds


def sweep_reference(base, kraus_1, kraus_2, probe_matrix, x_grid) -> list:
    """Expected row values of a two-qubit sweep CSV, one dict per grid point."""
    dims = (2, 2)
    probe_rho = probe_density(probe_matrix)
    images = (evolve(probe_rho, dims, kraus_1=kraus_1)[0],
              evolve(probe_rho, dims, kraus_2=kraus_2)[0])
    mix = np.eye(4) / 4.0
    rows = []
    for x in x_grid:
        rho = x * np.asarray(base) + (1.0 - x) * mix
        out, p = evolve(rho, dims, kraus_1, kraus_2)
        rows.append({"x": float(x), "lower": max(0.0, mes_bound(out, dims)),
                     "exact": wootters(out), "p": p,
                     "upper": upper_formula(wootters(rho), images, probe_matrix)})
    return rows


def check_sweep_row(expected: dict, row: dict, non_tp: bool) -> list:
    """Failure kinds of one CSV row (x, lower_bound, concurrence, upper_bound, p_total)."""
    kinds = []
    if abs(row["x"] - expected["x"]) > TOL_STRUCTURE:
        kinds.append("grid")
    if abs(row["lower_bound"] - expected["lower"]) > TOL_BOUND:
        kinds.append("lower")
    if abs(row["concurrence"] - expected["exact"]) > TOL_BOUND:
        kinds.append("exact")
    if abs(row["p_total"] - expected["p"]) > TOL_PROB:
        kinds.append("p")
    return kinds + _upper_checks(row["upper_bound"], expected, non_tp)


def bound_reference(rho, kraus, side: str, probe_matrix) -> dict:
    """Expected fields of a probe-method bound report.

    ``kraus`` holds one Kraus list (acting on ``side``) or two (first,
    second).  The probe route must reproduce the directly evolved state's
    MES bound; ``p_prime`` is the probe's own channel probability.
    """
    n = int(np.asarray(probe_matrix).shape[0])
    dims = (n, n)
    probe_rho = probe_density(probe_matrix)
    if len(kraus) == 1:
        first, second = (kraus[0], None) if side == "first" else (None, kraus[0])
        out, p = evolve(rho, dims, first, second)
        probe_out, p_prime = evolve(probe_rho, dims, first, second)
        images = (probe_out,)
    else:
        out, p = evolve(rho, dims, kraus[0], kraus[1])
        image_1, p1 = evolve(probe_rho, dims, kraus_1=kraus[0])
        image_2, p2 = evolve(probe_rho, dims, kraus_2=kraus[1])
        p_prime = p1 * p2
        images = (image_1, image_2)
    expected = {"lower_raw": mes_bound(out, dims), "p": p, "p_prime": p_prime}
    if n == 2:
        expected["exact"] = wootters(out)
        expected["upper"] = upper_formula(wootters(rho), images, probe_matrix)
    return expected


def check_bound_report(expected: dict, report: dict, non_tp: bool) -> list:
    """Failure kinds of one ``evaluate_bound`` report (as its JSON dict)."""
    kinds = []
    if abs(report["lower_raw"] - expected["lower_raw"]) > TOL_BOUND:
        kinds.append("lower_raw")
    if abs(report["lower"] - max(0.0, expected["lower_raw"])) > TOL_BOUND:
        kinds.append("lower")
    if abs(report["p"] - expected["p"]) > TOL_PROB:
        kinds.append("p")
    if abs(report["p_prime"] - expected["p_prime"]) > TOL_PROB:
        kinds.append("p_prime")
    if abs(report["p_t"] * report["p_prime"] - expected["p"]) > TOL_PROB:
        kinds.append("p_t")
    if "exact" in expected:
        if abs(report["exact"] - expected["exact"]) > TOL_BOUND:
            kinds.append("exact")
        kinds += _upper_checks(report["upper"], expected, non_tp)
    return kinds


def theorem1_reference(rho, dims, coefficients=None) -> dict:
    """Bracket for a Theorem-1 bound: the fixed-MES bound below, the
    largest-eigenvalue bound above, and the Schmidt concurrence for pure input."""
    r = min(dims)
    top = float(np.linalg.eigvalsh(np.asarray(rho, dtype=complex))[-1])
    expected = {"low": mes_bound(rho, dims), "high": prefactor(r) * (top - 1.0 / r)}
    if coefficients is not None:
        expected["schmidt"] = schmidt_concurrence(coefficients)
    return expected


def check_theorem1(expected: dict, value: float) -> list:
    kinds = []
    if value < expected["low"] - TOL_STRUCTURE:
        kinds.append("below_fixed_mes")
    if value > expected["high"] + TOL_STRUCTURE:
        kinds.append("above_eigenvalue_bound")
    if "schmidt" in expected and value > expected["schmidt"] + TOL_BOUND:
        kinds.append("above_schmidt")
    return kinds


def check_suite(result) -> list:
    """A suite result must pass and must have evaluated at least one trial."""
    kinds = []
    if not result.passed:
        kinds.append("suite_failed")
    if result.trials <= 0:
        kinds.append("zero_trials")
    return kinds
