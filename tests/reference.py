"""Reference computations that only the tests use.

Each one is written independently of the library path it checks: feasible
points drawn per body kind, the Minkowski gauge, each potential's value,
gradient and strong-convexity modulus on the body its iterates live in
(``body.iterate_space()[0]`` of the run's body), the Bregman divergence, the
dense vertex list of the bodies with vertices, the squared loss and its
gradient by a pass over the rows, the per-record loss gradient, the sampled
curvature expression, the closed-form Gaussian widths, each algorithm's
calibration (step count, noise scales and steps) and a coordinate-descent
LASSO solve.
The sort-based projections, the out-of-place entropy step, the certified
first-order loop without gradient reuse and the Frank-Wolfe loop with dense
vertices and a replayed ledger are the library's earlier forms, kept to
check that the leaner ones return the same bits.
"""

import functools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtr

from dperm.geometry import (Box, GroupedL1Ball, L1Ball, L2Ball, Polytope, Simplex,
                            gaussian_width_mc)
from dperm.losses import Huber, SquaredError
from dperm.potentials import (ENTROPY_FLOOR, GroupedL1, NegativeEntropy, PolytopeQNorm, SquaredL2,
                              default_q_exponent, grouped_exponents)


def block_slices(dimension: int, group_size: int) -> list[slice]:
    """The contiguous blocks of ``group_size`` coordinates; the last may be
    shorter.  Written out here so the grouped references do not share the
    library's padded block layout."""
    return [slice(i, min(i + group_size, dimension)) for i in range(0, dimension, group_size)]


def vertex_list(body) -> np.ndarray:
    """The dense (k, p) vertex list of an l1 ball, a simplex or a polytope,
    in the documented vertex order: +r e_1 .. +r e_p then -r e_1 .. -r e_p
    on the l1 ball, e_1 .. e_p on the simplex, the given rows of a
    polytope."""
    if isinstance(body, L1Ball):
        eye = body.radius * np.eye(body.dimension)
        return np.vstack([eye, -eye])
    if isinstance(body, Simplex):
        return np.eye(body.dimension)
    if isinstance(body, Polytope):
        return body.vertex_array
    raise ValueError(f"no vertex list for {type(body).__name__}")


def sample_feasible(body, rng: np.random.Generator) -> np.ndarray:
    """Draw a random point of the body (full support, not necessarily uniform)."""
    p = body.dimension
    if isinstance(body, L2Ball):
        g = rng.standard_normal(p)
        nrm = np.linalg.norm(g)
        if nrm == 0.0:
            return np.zeros(p)
        return body.radius * rng.random() ** (1.0 / p) * g / nrm
    if isinstance(body, L1Ball):
        w = rng.dirichlet(np.ones(p))
        signs = rng.choice([-1.0, 1.0], size=p)
        return body.radius * rng.random() ** (1.0 / p) * signs * w
    if isinstance(body, Simplex):
        return rng.dirichlet(np.ones(p))
    if isinstance(body, Polytope):
        w = rng.dirichlet(np.ones(body.n_vertices))
        return body.vertex_array.T @ w
    if isinstance(body, GroupedL1Ball):
        slices = block_slices(body.dimension, body.group_size)
        alloc = rng.dirichlet(np.ones(len(slices))) * body.radius * rng.random()
        out = np.zeros(p)
        for s, a in zip(slices, alloc):
            g = rng.standard_normal(s.stop - s.start)
            nrm = np.linalg.norm(g)
            if nrm > 0:
                out[s] = a * g / nrm
        return out
    if isinstance(body, Box):
        return body.lo + (body.hi - body.lo) * rng.random(p)
    raise ValueError(f"no sampler for {type(body).__name__}")


def gauge(body, v) -> float:
    """The Minkowski gauge min {r >= 0 : v in r*C} of a symmetric body.

    A polytope's gauge is the coefficient LP min sum|a_i| over signed
    coefficients with sum a_i v_i = v, the gauge of the hull of V and -V.
    """
    v = np.asarray(v, dtype=float)
    if isinstance(body, L1Ball):
        return float(np.abs(v).sum()) / body.radius
    if isinstance(body, L2Ball):
        return float(np.linalg.norm(v)) / body.radius
    if isinstance(body, GroupedL1Ball):
        return sum(float(np.linalg.norm(v[s]))
                   for s in block_slices(body.dimension, body.group_size)) / body.radius
    if isinstance(body, Polytope):
        V = body.vertex_array
        k = V.shape[0]
        # Split a = a+ - a-: minimize 1' (a+ + a-).
        res = linprog(np.ones(2 * k), A_eq=np.hstack([V.T, -V.T]), b_eq=v,
                      bounds=[(0, None)] * (2 * k), method="highs")
        if not res.success:
            raise ValueError("vector is outside the span of the polytope's vertices")
        return float(res.fun)
    raise ValueError(f"no gauge for {type(body).__name__}")


def _entropy_floored(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if np.any(v < -1e-8):
        raise ValueError("entropy potential requires (near-)nonnegative input")
    return np.maximum(v, ENTROPY_FLOOR)


def entropy_step_out_of_place(x_t, g, eta: float) -> np.ndarray:
    """The negative-entropy prox step with a new array for every operation,
    the form ``NegativeEntropy.mirror_step`` had before it worked in place."""
    z = np.log(_entropy_floored(x_t)) - eta * np.asarray(g, dtype=float)
    z -= z.max()
    w = np.exp(z)
    w = np.maximum(w / w.sum(), ENTROPY_FLOOR)
    return w / w.sum()


def potential_value(pot, body, x) -> float:
    """Psi(x) of a potential on its iterate body, per kind; the q-norm
    potential's body is the coefficient simplex and x its coefficient
    vector a."""
    x = np.asarray(x, dtype=float)
    if isinstance(pot, SquaredL2):
        return 0.5 * float(x @ x)
    if isinstance(pot, NegativeEntropy):
        v = _entropy_floored(x)
        return float(np.sum(v * np.log(v))) + math.log(body.dimension)
    if isinstance(pot, PolytopeQNorm):
        q = default_q_exponent(body.dimension)
        nq = float(np.sum(np.abs(x) ** q)) ** (1.0 / q)
        return nq * nq / (4.0 * (q - 1.0))
    if isinstance(pot, GroupedL1):
        M, xi = grouped_exponents(body)
        total = sum(float(np.linalg.norm(x[s])) ** M
                    for s in block_slices(body.dimension, body.group_size))
        return total / (M * xi)
    raise ValueError(f"no value for {type(pot).__name__}")


def potential_grad(pot, body, x) -> np.ndarray:
    """grad Psi(x) on the iterate body: the closed forms of the squared-l2
    and entropy potentials, and the library's own gradient of the others,
    which their prox steps read."""
    if isinstance(pot, SquaredL2):
        return np.asarray(x, dtype=float)
    if isinstance(pot, NegativeEntropy):
        return np.log(_entropy_floored(x)) + 1.0
    return pot.grad(body, x)


def strong_convexity_modulus(pot, body) -> float:
    """The modulus of strong convexity of a potential on its iterate body
    w.r.t. the gauge of its ``natural_q`` body."""
    if isinstance(pot, PolytopeQNorm):
        # ||a||_q^2/(4(q-1)) is (1/2)-strongly convex w.r.t. ||a||_q (the
        # norm-power inequality; the source's stated constant of 1 fails
        # the interpolation definition numerically).  ||a||_1 <=
        # k^(1-1/q) ||a||_q then bridges to the hull gauge, so the modulus
        # absorbs that factor squared (1/(2 e^2) at the default exponent).
        k = body.dimension
        return 0.5 * float(k ** (-2.0 * (1.0 - 1.0 / default_q_exponent(k))))
    if isinstance(pot, (SquaredL2, NegativeEntropy, GroupedL1)):
        return 1.0
    raise ValueError(f"no modulus for {type(pot).__name__}")


def bregman(potential, body, a, b) -> float:
    """Psi(a) - Psi(b) - <grad Psi(b), a - b> on the iterate body, from
    ``potential_value`` and ``potential_grad``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (potential_value(potential, body, a) - potential_value(potential, body, b)
            - float(potential_grad(potential, body, b) @ (a - b)))


def row_loss(theta, X, y) -> float:
    """The 1/n-normalized squared loss over the batch, by a pass over the rows."""
    r = X @ theta - y
    return 0.5 * float(r @ r) / X.shape[0]


def row_grad(theta, X, y) -> np.ndarray:
    """The gradient of ``row_loss``, by a pass over the rows."""
    return X.T @ (X @ theta - y) / X.shape[0]


def record_grad(loss, theta, x, y: float) -> np.ndarray:
    """The gradient of one record's loss, per built-in kind."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    r = float(x @ theta) - y
    if type(loss) is Huber:
        return float(np.clip(r, -loss.delta, loss.delta)) * x
    if type(loss) is SquaredError:
        return r * x + loss.ridge * theta if loss.ridge else r * x
    raise ValueError(f"no record gradient for {type(loss).__name__}")


def curvature_empirical(loss, body, data, trials: int, seed: int = 0) -> float:
    """Sampled supremum of the second-order curvature expression.

    A lower bound on the true curvature constant, used to sanity-check
    ``curvature_bound``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        t1 = sample_feasible(body, rng)
        t2 = sample_feasible(body, rng)
        gamma = 1.0 - rng.random()  # in (0, 1]
        t3 = t1 + gamma * (t2 - t1)
        val = (2.0 / gamma ** 2) * (
            loss.loss(t3, data) - loss.loss(t1, data)
            - float((t3 - t1) @ loss.grad(t1, data))
        )
        best = max(best, val)
    return best


@functools.cache
def abs_max_gaussian_mean(p: int, points: int = 400_001) -> float:
    """E max_i |g_i| over g ~ N(0, I_p), the integral over t >= 0 of
    1 - P(|g_1| <= t)^p with P(|g_1| <= t) = 1 - 2 Phi(-t), by Simpson's
    rule on ``points`` equally spaced points of [0, sqrt(2 ln 2p) + 10]."""
    t, h = np.linspace(0.0, math.sqrt(2.0 * math.log(2.0 * p)) + 10.0, points, retstep=True)
    with np.errstate(divide="ignore"):  # log 0 at t = 0, where the integrand is 1
        f = -np.expm1(p * np.log1p(-2.0 * ndtr(-t)))
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def chi_mean(p: int) -> float:
    """E ||g||_2 over g ~ N(0, I_p), sqrt(2) Gamma((p+1)/2) / Gamma(p/2), from
    exact integers: sqrt(2 pi) m C(2m, m) / 4^m at p = 2m and
    sqrt(2/pi) 4^m / C(2m, m) at p = 2m + 1, each integer ratio correctly
    rounded, so the value is within a few ulps at any p."""
    m, odd = divmod(p, 2)
    if odd:
        return math.sqrt(2.0 / math.pi) * (4 ** m / math.comb(2 * m, m))
    return math.sqrt(2.0 * math.pi) * m * (math.comb(2 * m, m) / 4 ** m)


def reference_width(body) -> float:
    """The Gaussian width a default T uses: r E||g||_inf on the l1 ball of
    radius r and E||g||_inf on the simplex, r E||g||_2 on the l2 ball, and
    on any other body the Monte-Carlo estimate at the public seed."""
    from dperm.solvers import WIDTH_SAMPLES, WIDTH_SEED

    if isinstance(body, (L1Ball, Simplex)):
        return getattr(body, "radius", 1.0) * abs_max_gaussian_mean(body.dimension)
    if isinstance(body, L2Ball):
        return body.radius * chi_mean(body.dimension)
    return gaussian_width_mc(body, WIDTH_SAMPLES, WIDTH_SEED).mean


def reference_plan(cfg, data) -> dict:
    """T, sigma, the Laplace scale, zeta, eta_t and mu_t at t = 1, 2, 5 of
    ``cfg`` on ``data``, from the displays each algorithm states.

    The user's T is taken verbatim; else the algorithm's T formula is
    floored and capped at ``t_cap`` (10^6 when None), a non-private budget
    or a zero denominator giving the cap, and a formula below 1 raises
    ``ValueError``.
    The Gaussian widths are those of ``reference_width``.
    """
    alg, body, loss = cfg.algorithm, cfg.body, cfg.loss
    eps, delta, n = cfg.budget.epsilon, cfg.budget.delta, data.n
    private = math.isfinite(eps)
    L1, L2 = loss.lipschitz_constants(body, data)
    out = {"T": 1, "sigma": 0.0, "laplace_scale": 0.0, "zeta": 0.0, "eta": None, "mu": None}
    if alg == "obj_pert":
        lam_min, lam_max = loss.hessian_eig_bounds(data)
        if private:
            out["sigma"] = L2 * math.sqrt(2.0 * math.log(1.0 / delta)) / (n * eps)
            out["zeta"] = max(2.0 * lam_max / (n * eps) - lam_min, 0.0)
        return out

    cap = 10 ** 6 if cfg.t_cap is None else cfg.t_cap

    def steps(numerator, denominator, power):
        if cfg.T > 0:
            return cfg.T
        if not private or denominator == 0.0:
            return cap
        value = (numerator / denominator) ** power
        if value < 1.0:
            raise ValueError(f"default T {value} < 1")
        return min(math.floor(value), cap)

    if alg in ("noisy_md", "strongly_convex_md"):
        if alg == "noisy_md":
            q_body = cfg.potential.natural_q(body)
            T = steps(q_body.l2_diameter() * eps * n,
                      L2 * math.log(n / delta) * reference_width(q_body), 2)
            eta = math.sqrt(cfg.potential.max_over_domain(body)) / (
                L2 * q_body.l2_diameter() * math.sqrt(T))
            out["eta"] = [eta, eta, eta]
        else:
            T = steps(body.l2_diameter() * n * eps, reference_width(body), 2)
            out["eta"] = [2.0 / (loss.strong_convexity * t) for t in (1, 2, 5)]
        if private:
            out["sigma"] = math.sqrt(32.0 * T) * L2 * math.log(T / delta) / (eps * n)
    else:
        gamma = loss.curvature_bound(body, data)
        if alg == "fw_polytope":
            c_l1 = body.max_norm(1)
            T = steps(gamma * n * eps, L1 * c_l1, 2 / 3)
            if private:
                out["laplace_scale"] = (L1 * c_l1 * math.sqrt(8.0 * T * math.log(1.0 / delta))
                                        / (n * eps))
        else:
            T = steps(gamma * n * eps, L2 * reference_width(body), 2 / 3)
            if private:
                out["sigma"] = math.sqrt(32.0 * L2 * T) * math.log(n / delta) / (n * eps)
        out["mu"] = [2.0 / (t + 2.0) for t in (1, 2, 5)]
    out["T"] = T
    return out


def lasso_cd_penalized(G: np.ndarray, b: np.ndarray, lam: float,
                       theta0: np.ndarray | None = None,
                       tol: float = 1e-13, max_passes: int = 50_000) -> np.ndarray:
    """Coordinate descent for (1/2n)||X theta - y||^2 + lam ||theta||_1.

    Takes the Gram statistics G = X'X/n and b = X'y/n, so a full pass
    costs O(p^2) whatever n is.
    """
    p = b.shape[0]
    theta = np.zeros(p) if theta0 is None else theta0.copy()
    diag = np.diag(G).copy()
    grad_lin = G @ theta  # G theta, updated incrementally
    for _ in range(max_passes):
        max_change = 0.0
        for j in range(p):
            cj = diag[j]
            if cj == 0.0:
                continue
            rho = b[j] - grad_lin[j] + cj * theta[j]
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) / cj
            change = new - theta[j]
            if change != 0.0:
                grad_lin += G[:, j] * change
                theta[j] = new
                max_change = max(max_change, abs(change))
        if max_change <= tol:
            break
    return theta


def lasso_oracle_cd(data, radius: float, bisect_iters: int = 200) -> tuple[np.ndarray, float]:
    """Constrained-LASSO optimum via a penalized coordinate-descent path.

    Bisects the penalty until the penalized solution's l1 norm matches the
    constraint radius; returns (theta, objective value) under the 1/(2n)
    normalization.  Independent of the projected-gradient oracle path.
    """
    X, y = data.X, data.y
    n = X.shape[0]

    def value(theta):
        r = X @ theta - y
        return 0.5 * float(r @ r) / n

    theta_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    if np.abs(theta_ls).sum() <= radius:
        return theta_ls, value(theta_ls)

    # Built here, not read from ``data.gram()``, to keep the check independent.
    G, b = (X.T @ X) / n, (X.T @ y) / n
    lam_hi = float(np.abs(b).max())  # theta = 0 beyond this
    lam_lo = 0.0
    theta = np.zeros(X.shape[1])
    theta_hi = theta.copy()
    for _ in range(bisect_iters):
        lam = 0.5 * (lam_lo + lam_hi)
        theta = lasso_cd_penalized(G, b, lam, theta0=theta)
        if np.abs(theta).sum() > radius:
            lam_lo = lam
        else:
            lam_hi = lam
            theta_hi = theta.copy()
        if lam_hi - lam_lo <= 1e-16 * max(lam_hi, 1.0):
            break
    # Feasible iterate from the high side of the bisection.
    if np.abs(theta_hi).sum() > radius:
        theta_hi *= radius / np.abs(theta_hi).sum()
    return theta_hi, value(theta_hi)


def project_simplex_sorted(v, total: float) -> np.ndarray:
    """Projection of v onto {w >= 0, sum w = total} by the sort-based
    threshold rule (Duchi et al.), written out step by step."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(u) + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def project_l1_sorted(x, radius: float) -> np.ndarray:
    """Projection onto the l1 ball of ``radius``: the signs of x times the
    simplex projection of |x|, or x itself inside the ball."""
    v = np.asarray(x, dtype=float)
    if np.abs(v).sum() <= radius:
        return v.copy()
    return np.sign(v) * project_simplex_sorted(np.abs(v), radius)


def minimize_without_reuse(body, fgrad, tol: float):
    """``firstorder.minimize`` for a projectable body and an absolute
    target, taking grad f(z) afresh after every restart.

    Returns (x, gap, iterations); raises ``RuntimeError`` on a stall.
    """
    from dperm.firstorder import CHECK_EVERY, MIN_STEP, STALL_CHECKS

    x = body.canonical_point()
    z = x.copy()
    t_mom, step = 1.0, 1.0
    best_gap, stale_checks, it = math.inf, 0, 0
    while True:
        if it % CHECK_EVERY == 0:
            g = fgrad(x)
            gap = max(float(g @ (x - body.lmo(g))), 0.0)
            if gap <= tol:
                return x, gap, it
            if gap < best_gap:
                best_gap, stale_checks = gap, 0
            else:
                stale_checks += 1
                if stale_checks >= STALL_CHECKS:
                    raise RuntimeError("gap stalled")
        it += 1
        gz = fgrad(z)
        while True:
            x_new = body.euclidean_project(z - step * gz)
            diff = x_new - z
            if float((fgrad(x_new) - gz) @ diff) <= float(diff @ diff) / (2 * step):
                break
            step *= 0.5
            if step < MIN_STEP:
                raise RuntimeError("step search underflow")
        if float((z - x_new) @ (x_new - x)) > 0:
            z = x_new
            t_mom = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            z = body.euclidean_project(x_new + ((t_mom - 1.0) / t_new) * (x_new - x))
            t_mom = t_new
        x = x_new
        step *= 1.1


def dense_frank_wolfe(cfg, data, run, rng):
    """The Frank-Wolfe loop over the iterate space with a dense target: each
    step is x <- (1 - mu_t) x + mu_t v, v a row of ``vertex_list`` of the
    iterate body (the LMO of the noisy gradient on a body without one), and
    the fw_polytope vertex ledger is replayed from the picks after the loop.

    A generator like the library's loop: it yields theta_1 .. theta_T and
    returns (iterate, T, extras).
    """
    from dperm.geometry import noise_blocks
    from dperm.privacy import report_noisy_min, sample_gaussian_vec, sample_laplace

    T, mu = run.plan.steps, run.step
    it_body, point_of, pullback = cfg.body.iterate_space()
    V = vertex_list(it_body) if it_body.n_vertices else None
    if cfg.algorithm == "fw_polytope":
        k = len(V)
        noise = [row for block in noise_blocks(
            lambda shape: sample_laplace(run.plan.laplace_scale, rng, size=shape), T - 1, k)
            for row in block]
    else:
        noise = [row for block in noise_blocks(
            lambda shape: sample_gaussian_vec(shape, run.plan.sigma, rng),
            T - 1, cfg.body.dimension) for row in block]
    picks = []
    x = it_body.canonical_point()
    theta = point_of(x)
    yield theta
    for t, z in enumerate(noise, 1):
        g = cfg.loss.grad(theta, data)
        if cfg.algorithm == "fw_polytope":
            idx = report_noisy_min(V @ pullback(g), z)
            picks.append(idx)
            target = V[idx]
        elif V is not None:
            target = V[int(np.argmin(V @ pullback(g + z)))]
        else:
            target = it_body.lmo(pullback(g + z))
        x = (1.0 - mu(t)) * x + mu(t) * target
        theta = point_of(x)
        yield theta
    if cfg.algorithm != "fw_polytope":
        return x, T, {}
    w = np.zeros(k + 1)
    w[k] = 1.0
    for t, idx in enumerate(picks, 1):
        w *= 1.0 - mu(t)
        w[idx] += mu(t)
    ledger = {"start": float(w[k]), **{str(i): float(w[i]) for i in dict.fromkeys(picks)}}
    return x, T, {"vertex_weights": ledger,
                  "support_size": sum(1 for v in ledger.values() if v > 0)}
