"""Executable numerical checks for the structural claims behind the model.

Each check is deterministic given its seed and returns a measured
discrepancy against a stated tolerance: a subtraction oracle versus the
shipped nearest-neighbour search, the simplex QP oracle versus the
closed-form affinity rows, zero-eigenvalue counting versus connected
components, the trace form of the bottom-eigenvalue sum, the cut/trace
identity over exhaustively enumerated partitions, and finite-difference
gradient checking through the full encoder stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import block_diag

from . import affinity as aff


@dataclass
class VerificationResult:
    name: str
    passed: bool
    discrepancy: float
    tolerance: float
    instance: str

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name}\t{status}\t{self.discrepancy:.3e}"
                f"\t{self.tolerance:.3e}\t{self.instance}")


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_candidates = u + (1.0 - css) / np.arange(1, v.size + 1)
    rho = int(np.nonzero(rho_candidates > 0)[0][-1]) + 1
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(v - theta, 0.0)


def qp_oracle(d_row: np.ndarray, alpha: float) -> np.ndarray:
    """Ground-truth simplex weights: argmin |s + d/(2 alpha)|^2 over the simplex."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    d_row = np.asarray(d_row, dtype=np.float64)
    return simplex_project(-d_row / (2.0 * alpha))


def _as_dense_sym(L, tol: float = 1e-10) -> np.ndarray:
    if hasattr(L, "toarray"):
        M = L.toarray()
    else:
        M = np.asarray(L, dtype=np.float64)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > tol * scale:
        raise ValueError("matrix is not symmetric")
    return M


def zero_eig_count(L, tol: float) -> int:
    """Number of eigenvalues below tol (dense symmetric solver, n <= 2000)."""
    M = _as_dense_sym(L)
    if M.shape[0] > 2000:
        raise ValueError(f"dense eigensolver limited to n <= 2000, got {M.shape[0]}")
    w = np.linalg.eigvalsh(M)
    return int((w < tol).sum())


def kyfan_check(L, c: int) -> float:
    """|Tr(F^T L F) at the bottom-c eigenvectors - sum of c smallest eigenvalues|."""
    M = _as_dense_sym(L)
    if c > M.shape[0]:
        raise ValueError("c exceeds matrix size")
    w, V = np.linalg.eigh(M)
    F = V[:, :c]
    return float(abs(np.trace(F.T @ M @ F) - w[:c].sum()))


def component_count(S: aff.AffinityMatrix, tol: float = 0.0) -> int:
    """Connected components of the support {w > tol} of S + S^T."""
    # imported here: csgraph loads scipy.linalg, which training never needs
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rows, cols = np.nonzero(S.weights > tol)
    support = csr_matrix((np.ones(rows.size), (rows, S.indices[rows, cols])),
                         shape=(S.n, S.n))
    return int(connected_components(support, directed=False)[0])


def enumerate_partitions(n: int, max_parts: int):
    """All set partitions of range(n) into at most max_parts nonempty parts."""

    def rec(i: int, parts: list[list[int]]):
        if i == n:
            yield [list(p) for p in parts]
            return
        for p in parts:
            p.append(i)
            yield from rec(i + 1, parts)
            p.pop()
        if len(parts) < max_parts:
            parts.append([i])
            yield from rec(i + 1, parts)
            parts.pop()

    yield from rec(1, [[0]]) if n else iter(())


def ratiocut_check(W: np.ndarray, partition: list[list[int]]):
    """Evaluate both sides of the cut/trace identity.

    Returns (Tr(H^T L H), sum_j W(V_j, complement)/|V_j|) for the
    normalized indicator H with entries 1/sqrt(|V_j|). The two agree for
    every partition of a symmetric weight matrix.
    """
    W = _as_dense_sym(W)
    n = W.shape[0]
    seen = np.zeros(n, dtype=bool)
    for part in partition:
        if len(part) == 0:
            raise ValueError("empty part in partition")
        arr = np.asarray(part)
        if arr.min() < 0 or arr.max() >= n or seen[arr].any():
            raise ValueError("partition is not a disjoint cover")
        seen[arr] = True
    if not seen.all():
        raise ValueError("partition does not cover all nodes")
    L = np.diag(W.sum(axis=1)) - W
    H = np.zeros((n, len(partition)))
    for j, part in enumerate(partition):
        H[np.asarray(part), j] = 1.0 / np.sqrt(len(part))
    trace = float(np.trace(H.T @ L @ H))
    cut = 0.0
    mask = np.zeros(n, dtype=bool)
    for part in partition:
        mask[:] = False
        mask[np.asarray(part)] = True
        cut += float(W[np.ix_(mask, ~mask)].sum()) / len(part)
    return trace, cut


def _relu_masks(stepper) -> list[np.ndarray]:
    """The relu masks cached by the stepper's last forward; the cluster
    head is linear and has none."""
    cache = stepper._cache
    return [cache["c_g"][1], cache["c_q1"][1], cache["c_q2"][1],
            *(record[-1] for record in cache["c_h"].values())]


# loss name -> (LossReport field, backward weights; None is the backward's
# default, the total objective)
_TERMS = {
    "spectral": ("l_sp", (1.0, 0.0, 0.0)),
    "node": ("l_nc", (0.0, 1.0, 0.0)),
    "cluster": ("l_cc", (0.0, 0.0, 1.0)),
    "total": ("total", None),
}


def gradient_check(loss_name: str, seed: int, step: float = 1e-5,
                   n: int = 12) -> float:
    """Central finite differences vs analytic gradients, full stack.

    Only the hard cluster indicators and the affinity matrix are held at
    their base values on both sides, matching the backward contract; the
    QR orthogonalization is refactorized at every perturbed point.
    Returns the max relative error over every parameter entry. A graph and
    initialization whose finite differences cross a relu kink are replaced
    by the next attempt (seed shifted by 101); if all 60 attempts cross
    one, the result is inf.
    """
    from .synth import SynthSpec, generate
    from .graph import build_neighborhoods
    from .trainer import TrainConfig, TrainStepper, build_stack

    if loss_name not in _TERMS:
        raise ValueError(f"unknown loss name {loss_name!r}")
    attempt = seed
    for _ in range(60):
        spec = SynthSpec(n=n, c=2, feature_dim=5, aux_count=8, aux_feature_dim=4,
                         relations=2, edges_per_node=2, separation=3.0,
                         noise=1.0, cross_edge_rate=0.1, seed=attempt)
        g = generate(spec)
        nb = build_neighborhoods(g)
        cfg = TrainConfig(c=2, d1=6, d2=4, k=3, beta=0.7, gamma=0.5, eta=0.8,
                          mu=0.9, delta=1.1, seed=attempt)
        worst = _fd_check(TrainStepper(build_stack(g, nb, cfg), g, nb, cfg),
                          loss_name, step)
        if worst is not None:
            return worst
        attempt += 101
    return np.inf


def _fd_check(stepper, loss_name: str, step: float) -> float | None:
    """The worst relative error of ``gradient_check`` at the stepper's
    current parameters, or None when a perturbed forward crosses a relu kink.

    Every relu input is piecewise linear in any one parameter (the QR
    feeds no relu), so relu masks equal at -step, 0 and +step mean that no
    kink lies between those points and the central difference is smooth.
    """
    term, weights = _TERMS[loss_name]
    stack = stepper.stack
    base_report = stepper.forward()
    base_masks = _relu_masks(stepper)
    S = stepper.S
    yhat = stepper._cache["yhat"].copy()
    stepper.backward(weights=weights)
    analytic = stack.grads.copy()

    # entries below the finite-difference resolution are indistinguishable
    # from zero, so the comparison floor scales with the loss magnitude
    f_base = abs(getattr(base_report, term))
    noise = np.finfo(float).eps * max(1.0, f_base) / (2.0 * step)
    floor = max(1e-6, 3e4 * noise)

    params = stack.params
    worst = 0.0
    for idx in range(params.size):
        orig = params[idx]
        f, crossed = [], False
        for x in (orig + step, orig - step):
            params[idx] = x
            f.append(getattr(stepper.forward(S, yhat=yhat), term))
            crossed |= not all(map(np.array_equal, base_masks, _relu_masks(stepper)))
        params[idx] = orig
        if crossed:
            return None
        fd = (f[0] - f[1]) / (2.0 * step)
        err = abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]), floor)
        worst = max(worst, err)
    stepper._cache = None
    return worst


def _random_row_instances(rng, count: int):
    for _ in range(count):
        k = int(rng.integers(1, 11))
        extra = int(rng.integers(1, 6))
        d = np.sort(rng.uniform(0.0, 10.0, size=k + extra))
        yield k, d


def check_qp_agreement(count: int, seed: int = 0) -> float:
    """Max per-entry gap between closed-form rows and the QP oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k, d in _random_row_instances(rng, count):
        weights, alphas = aff.affinity_rows(d[None, :], k)
        if alphas[0] <= 0:
            continue
        closed = np.zeros(d.size)
        closed[:k] = weights[0]
        oracle = qp_oracle(d, float(alphas[0]))
        worst = max(worst, float(np.abs(closed - oracle).max()))
    return worst


def knn_oracle(X: np.ndarray, rows: np.ndarray, k: int):
    """The k+1 nearest other rows of each X[rows[i]] by direct subtraction,
    ties to the lower index: (idx, dist) of shape (rows, k+1)."""
    idx = np.empty((rows.size, k + 1), dtype=np.int64)
    dist = np.empty((rows.size, k + 1))
    for r, i in enumerate(rows):
        D = ((X - X[i]) ** 2).sum(axis=1)
        D[i] = np.inf
        idx[r] = np.argsort(D, kind="stable")[:k + 1]
        dist[r] = D[idx[r]]
    return idx, dist


def _knn_cases(rng):
    """One input per path of ``nearest_candidates``: the full scan, the
    projected search over several row blocks (on clusters, duplicate rows
    and coordinates quantized to 0.1, whose distances tie or nearly tie),
    and its scan fallback (48 isotropic dimensions, which eight projected
    ones bound too poorly)."""
    n = aff._SCAN_MAX_N + 600
    yield "scan", rng.standard_normal((600, 8))
    centers = 6.0 * rng.standard_normal((4, 6))
    yield "projected", centers[rng.integers(4, size=n)] + rng.standard_normal((n, 6))
    base = rng.standard_normal((n // 8, 5))
    yield "duplicates", base[rng.integers(base.shape[0], size=n)]
    yield "quantized", np.round(rng.standard_normal((n, 5)), 1)
    yield "scan_fallback", rng.standard_normal((2000, 48))


def check_knn_exact(seed: int = 0, rows: int = 32, k: int = 8) -> tuple[float, str]:
    """Sampled rows of ``nearest_candidates`` against ``knn_oracle``.

    ``rows`` evenly spaced rows of each case are compared, so every row
    block of the projected search is sampled. The discrepancy is inf when
    any neighbour index differs, else the largest distance gap over the
    case's largest squared norm: the scan forms |x|^2 + |y|^2 - 2 x.y, so
    its distances differ from the oracle's by rounding. Returns it with the
    case names.
    """
    worst, names = 0.0, []
    for name, X in _knn_cases(np.random.default_rng(seed)):
        sample = np.linspace(0, X.shape[0] - 1, rows).astype(np.int64)
        idx, dist = aff.nearest_candidates(X, k)
        idx_o, dist_o = knn_oracle(X, sample, k)
        if not np.array_equal(idx[sample], idx_o):
            return np.inf, name
        scale = max(1.0, float(np.einsum("ij,ij->i", X, X).max()))
        worst = max(worst, float(np.abs(dist[sample] - dist_o).max()) / scale)
        names.append(name)
    return worst, "/".join(names)


def _random_affinity(rng, n: int, k: int) -> aff.AffinityMatrix:
    H = rng.standard_normal((n, int(rng.integers(2, 8))))
    return aff.build_affinity(H, k=k)


def run_suite(scale: str = "small", seed: int = 0) -> list[VerificationResult]:
    """Run every check in a fixed order; see the CLI ``verify`` command."""
    from .trainer import TrainConfig, fit

    full = scale == "full"
    rng = np.random.default_rng(seed)
    results: list[VerificationResult] = []

    disc, cases = check_knn_exact(seed)
    results.append(VerificationResult(
        "knn_exact", disc <= 1e-12, disc, 1e-12, f"rows=32,k=8,cases={cases}"))

    disc = check_qp_agreement(1000 if full else 200, seed)
    results.append(VerificationResult(
        "qp_closed_form", disc <= 1e-6, disc, 1e-6,
        f"rows={1000 if full else 200},k=1..10"))

    worst_sum, worst_count = 0.0, 0
    trials = 500 if full else 60
    for _ in range(trials):
        n = int(rng.integers(12, 40))
        k = int(rng.integers(1, min(10, n - 2) + 1))
        S = _random_affinity(rng, n, k)
        worst_sum = max(worst_sum, float(np.abs(S.row_sums() - 1.0).max()))
        worst_count = max(worst_count, int(np.abs((S.weights > 0).sum(axis=1) - k).max()))
    results.append(VerificationResult(
        "row_stochastic", worst_sum <= 1e-9 and worst_count == 0,
        worst_sum, 1e-9, f"instances={trials}"))

    from .encoders import orthogonal_layer
    worst = 0.0
    trials = 200 if full else 50
    for _ in range(trials):
        n = int(rng.integers(4, 120))
        c = int(rng.integers(1, min(8, n) + 1))
        P = rng.standard_normal((n, c))
        Y, _ = orthogonal_layer(P)
        worst = max(worst, float(np.abs(Y.T @ Y / n - np.eye(c)).max()))
    results.append(VerificationResult(
        "orthogonal_layer", worst <= 1e-6, worst, 1e-6, f"instances={trials}"))

    # a random 4-NN block may itself be disconnected, so the expected count
    # is the blocks' total component count, not the block count m
    worst = 0
    for m in range(1, 6):
        blocks = [_random_affinity(rng, int(rng.integers(20, 100 if full else 40)), 4)
                  for _ in range(m)]
        L = block_diag([aff.laplacian(b) for b in blocks]).toarray()
        count = zero_eig_count(L, 1e-8)
        worst = max(worst, abs(count - sum(component_count(b) for b in blocks)))
    results.append(VerificationResult(
        "component_eig_count", worst == 0, float(worst), 0.0, "m=1..5"))

    worst = 0.0
    trials = 100 if full else 30
    for _ in range(trials):
        n = int(rng.integers(5, 200 if full else 80))
        c = int(rng.integers(1, min(5, n) + 1))
        W = rng.random((n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        L = np.diag(W.sum(axis=1)) - W
        worst = max(worst, kyfan_check(L, c))
    results.append(VerificationResult(
        "kyfan", worst <= 1e-8, worst, 1e-8, f"instances={trials}"))

    worst = 0.0
    n_part = 8 if full else 6
    for n in range(2, n_part + 1):
        W = rng.random((n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        for partition in enumerate_partitions(n, 3):
            trace, cut = ratiocut_check(W, partition)
            worst = max(worst, abs(trace - cut))
    results.append(VerificationResult(
        "ratiocut_trace", worst <= 1e-10, worst, 1e-10, f"n<= {n_part}, parts<=3"))

    from .losses import spectral_loss
    worst = 0.0
    for _ in range(30 if full else 10):
        n = int(rng.integers(8, 64))
        c = int(rng.integers(1, 6))
        S = _random_affinity(rng, n, min(5, n - 2))
        Y = rng.standard_normal((n, c))
        value, _, h = spectral_loss(S, Y, 0.0)
        L = aff.laplacian(S).toarray()
        trace_form = 2.0 / n**2 * float(np.trace(Y.T @ L @ Y))
        worst = max(worst, abs(value - trace_form))
    results.append(VerificationResult(
        "spectral_trace_identity", worst <= 1e-9, worst, 1e-9, "n<=64"))

    worst = 0.0
    for _ in range(20 if full else 8):
        n = int(rng.integers(10, 100))
        S = _random_affinity(rng, n, min(6, n - 2))
        w = np.linalg.eigvalsh(aff.laplacian(S).toarray())
        worst = max(worst, max(0.0, -float(w[0])))
    results.append(VerificationResult(
        "laplacian_psd", worst <= 1e-8, worst, 1e-8, "random instances"))

    worst = 0.0
    seeds = range(20) if full else range(4)
    for s in seeds:
        for term in ("spectral", "node", "cluster", "total"):
            worst = max(worst, gradient_check(term, seed=1000 + 17 * s))
    results.append(VerificationResult(
        "gradient_full_stack", worst <= 1e-4, worst, 1e-4,
        f"seeds={len(list(seeds))},terms=4"))

    if full:
        from .synth import SynthSpec, generate
        spec = SynthSpec(n=300, c=3, separation=7.5, noise=0.9, seed=seed)
        g = generate(spec)
        cfg = TrainConfig(c=3, d1=64, d2=16, k=6, mu=0.01, delta=0.01, beta=5.0,
                          gamma=1e-2, lr=1e-2, max_epochs=300, patience=60,
                          seed=seed)
        result = fit(g, cfg)
        count = zero_eig_count(aff.laplacian(result.S).toarray(), 1e-6)
        results.append(VerificationResult(
            "trained_components_reported", True, float(abs(count - 3)), np.inf,
            f"count={count},expected=3 (soft)"))

    return results


def write_results(results: list[VerificationResult], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("check\tstatus\tdiscrepancy\ttolerance\tinstance\n")
        for r in results:
            fh.write(r.row() + "\n")
