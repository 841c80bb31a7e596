"""Newton solve of the gated semilinear free-boundary problem.

Two equivalent variable forms share the machinery:

    w-form:  -delta^2 lap w = sum_i X_i (w - k_i^+ - 2 pi q/|ln eps|)_+^p
                            - sum_j X_j (2 pi q/|ln eps| - k_j^- - w)_+^p
    u-form:  -eps^2  lap u  = sum_i X_i (u - q - k_i^+ |ln eps|/(2 pi))_+^p
                            - sum_j X_j (q - k_j^- |ln eps|/(2 pi) - u)_+^p

with w = 2 pi u / |ln eps| and delta = eps (2 pi/|ln eps|)^((p-1)/2).  Each
gate X_i is the indicator of the vortex subdomain.  The right side vanishes
off the candidate core nodes T, so eliminating the other nodes leaves the
exact system S w_T = f(w_T), S the Schur complement of the operator on T,
whose inverse the grid's solver (grid.GridSolver) gives without a sparse
factorization.  Newton iterates on the core values and their load S w_T,
with the semismooth derivative p(.)_+^(p-1), a dense solve on the active
nodes alone per step (the primal-dual active-set form of semismooth
Newton) and a backtracking line search on the core residual; the field is
one FFT convolution at the end.  A solve whose line search would need a
damping below MIN_DAMPING (creep along the near-null core translations),
or that stops making progress, restarts once from its best iterate in a
deflated mode that splits each step along the near-null eigenvectors of
the core Jacobian, and raises if that stalls too.  `picard_gap` applies
the bare fixed-point map w <- (-coef lap)^{-1} rhs(w) once to given nodal
values: a solver-independent check of a solution.  Iterating that map does
not reach the solution, which is an unstable fixed point of it.
"""

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .ansatz import activation_level, delta_from_eps, eps_log
from .errors import ConfigError, ConvergenceError
from .grid import GridField

TWO_PI = 2.0 * np.pi
# Newton restarts in deflated mode (the second time: raises) after this many
# iterations without a new lowest max-residual of the core system.  On the
# acceptance fixtures and the benchmark workloads the longest such run is 1
# iteration (the zero-background pair at eps 3e-4, in deflated mode); the
# window is for iterates that lower the l2 residual the line search sees
# but not the max.
STALL_WINDOW = 8
# the smallest damping of the plain line search; a step that needs less is a
# stall.  Steps that make progress accept 2^-3 or more on those runs, while
# the first dozen steps creeping along the near-null pair of the
# zero-background pair at eps 3e-4 need 2^-11 to 2^-14 (and later ones less).
MIN_DAMPING = 2.0**-10
# initial trust radius of the deflated mode along span(Q), a 2-norm in field
# units; it adapts from there
TRUST_RADIUS = 0.05
# trial steps of one deflated iteration, the radius shrinking by 4 after
# each refused one, before the iteration counts as refused
DEFLATED_TRIES = 8
# the candidate core nodes of a Newton solve: the gated nodes whose gate
# argument at the start exceeds -CORE_MARGIN times its maximum
CORE_MARGIN = 0.15


@dataclass
class ProblemSetup:
    """Node-level data of the gated problem on one grid.

    The gate map: the subdomains are disjoint, so each node has at most one
    gate.  `vortex` is the index of the vortex whose subdomain holds the node
    (-1 off every subdomain), `sign` that vortex's sign and `level` its
    activation level in the variable's units (both 0 off every subdomain).
    The setup is the one owner of the variable form: nodal arrays carry no
    tag, and `u_per_unit` converts them to the physical u.
    """
    spec: object
    coef: float                 # delta^2 (w-form) or eps^2 (u-form)
    p: float
    eps: float
    variable: str
    vortex: np.ndarray          # (N,) int
    sign: np.ndarray            # (N,)
    level: np.ndarray           # (N,)

    @property
    def u_per_unit(self):
        """The physical u per unit of the variable: |ln eps|/2 pi in the
        w-form (u = |ln eps| w/2 pi), 1 in the u-form."""
        return eps_log(self.eps) / TWO_PI if self.variable == "w" else 1.0

    def apply(self, values):
        """The scaled operator coef (-lap_h) applied to nodal values."""
        return self.coef * self.spec.solver.apply(values)

    @property
    def near_null_dim(self):
        """Two core translations per vortex whose subdomain holds a node."""
        # bincount, not unique: np.unique imports numpy.ma (30 ms) on first use
        return 2 * int(np.count_nonzero(np.bincount(self.vortex[self.vortex >= 0])))

    def gate_argument(self, values):
        """sign * field - level on every gated node, -1 off every subdomain."""
        return np.where(self.vortex >= 0, self.sign * values - self.level, -1.0)

    def excess(self, values):
        """The gated excess (sign * field - level)_+, 0 off every subdomain."""
        return np.maximum(self.gate_argument(values), 0.0)


def setup_problem(spec, vs, q, eps, p, variable="w"):
    """Precompute the gate map of the vortex system's gate disks and the
    operator's scale for one grid."""
    if variable not in ("w", "u"):
        raise ConfigError("variable must be 'w' or 'u'")
    pts = spec.points
    vortex = np.full(spec.n_interior, -1)
    for i, (c, r) in enumerate(zip(vs.positions, vs.subdomain_radii(spec.domain))):
        inside = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) < r
        taken = inside & (vortex >= 0)
        if np.any(taken):
            pair = (int(vortex[np.argmax(taken)]), i)
            raise ConfigError(f"vortex subdomains overlap on the grid: pair {pair}")
        vortex[inside] = i

    gated = vortex >= 0
    sign = np.where(gated, vs.signs[vortex], 0.0)
    level = np.where(gated, activation_level(vs.kappas[vortex], sign, q.value(pts), eps), 0.0)
    if variable == "w":
        coef = delta_from_eps(eps, p)**2
    else:
        coef = eps**2
        level *= eps_log(eps) / TWO_PI
    return ProblemSetup(spec=spec, coef=coef, p=p, eps=float(eps),
                        variable=variable, vortex=vortex, sign=sign, level=level)


def rhs_eval(values, setup):
    """Gated nonlinearity sign (arg)_+^p at the nodes, for nodal values."""
    return setup.sign * setup.excess(values)**setup.p


def rhs_derivative(values, setup):
    """d rhs / d field, a nonnegative diagonal: p X (arg)_+^(p-1)."""
    return setup.p * setup.excess(values)**(setup.p - 1.0)


@dataclass
class SolveReport:
    iterations: int = 0
    converged: bool = False
    residual_history: list = field(default_factory=list)   # (l2, max) pairs
    damping_history: list = field(default_factory=list)
    factorizations: int = 0         # cores factored, a core rebuild included
    core_nodes: int = 0             # k, the size of the last core
    active_nodes: list = field(default_factory=list)   # |A| of each iteration's Jacobian
    notes: str = ""

    def to_dict(self):
        return asdict(self)


def _norms(r, f):
    """The l2 and max norms of a core residual r, and the max norm of its
    nonlinearity f, the scale of the tolerance."""
    if len(r) == 0:
        return 0.0, 0.0, 1e-300
    return (float(np.linalg.norm(r)), float(np.max(np.abs(r))),
            max(float(np.max(np.abs(f))), 1e-300))


def _core_candidates(setup, w):
    """The nodes where the Jacobian may leave Ac: the gated nodes whose gate
    argument exceeds -CORE_MARGIN times its maximum (every active node among
    them)."""
    arg = setup.gate_argument(w)
    return np.flatnonzero((setup.vortex >= 0) & (arg > -CORE_MARGIN * np.max(arg)))


class _Core:
    """The operator on the candidate core nodes T (sorted node numbers).

    A field whose residual vanishes off T is fixed by its core values x, or
    by their load y = S x, S the Schur complement of Ac on T: its residual
    on T is y - f_T(x), and its Jacobian Ac - diag(d), d zero off T, is
    S - diag(d_T) there.  W = S^-1 = (Ac^-1)[T, T] is h^2 M/coef, M from the
    grid's capacitance solver (grid.GridSolver.core); S is formed on demand.
    """

    def __init__(self, setup, core, report):
        self.solver = setup.spec.solver
        self.core = core
        self.X, M = self.solver.core(core)
        self.lattice_per_load = setup.spec.h**2 / setup.coef
        self.W = self.lattice_per_load * M
        self.report = report
        report.factorizations += 1
        report.core_nodes = self.core.size

    @cached_property
    def S(self):
        """The Schur complement W^-1, for the deflated mode."""
        return _dense_solve(self.W, np.eye(self.core.size), self.report)

    def step(self, r, d):
        """The Newton step (dx, dy) of the core values and their load for the
        residual r and the derivative d = f'_T(x): (S - diag(d)) dx = -r and
        dy = S dx.  In the load the Jacobian is I - diag(d) W, whose rows off
        the active nodes A (d = 0) are those of I: there dy = -r, and the
        rows of A solve (I - D_A W_AA) dy_A = -r_A + D_A W_AN dy_N, one dense
        |A| x |A| solve; then dx = W dy."""
        A = np.flatnonzero(d)
        dy = np.where(d > 0.0, 0.0, -r)
        # W[A][:, A], two takes, in a third of the time of W[np.ix_(A, A)]
        K = np.eye(A.size) - d[A, None] * self.W[A][:, A]
        dy[A] = _dense_solve(K, d[A] * (self.W @ dy)[A] - r[A], self.report)
        return self.W @ dy, dy

    def field(self, x, y):
        """The field with core values x and load y = S x whose residual
        vanishes off T, from the lattice load h^2 y/coef on T.  It takes the
        values x on T up to rounding, and exactly once they are set."""
        w = self.solver.core_field(self.core, self.X, self.lattice_per_load * y)
        w[self.core] = x
        return w


def _dense_solve(J, b, report):
    """J^-1 b for a block J of the core operator or Jacobian (b a vector or
    a matrix); a singular J fails the solve."""
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Newton Jacobian factorization failed (singular core "
                               f"block: {exc})", report=report)


def _near_null_basis(J, k):
    """Orthonormal eigenvectors of the symmetric part of the core Jacobian J
    for its k eigenvalues nearest zero, and those eigenvalues.

    These are the core-translation modes of the linearization, along which
    the deflated mode steps; the failure message quotes their eigenvalues.
    """
    vals, vecs = np.linalg.eigh(0.5 * (J + J.T))
    near = np.argsort(np.abs(vals), kind="stable")[:k]
    return vecs[:, near], vals[near]


def _trust_step(g, M, radius):
    """Minimizer of g.b + b.M.b/2 over |b| <= radius for symmetric M (the
    hard case aside), and whether it lies inside the ball."""
    lam, vecs = np.linalg.eigh(M)
    gh = vecs.T @ g

    def step(mu):
        return -vecs @ (gh / (lam + mu))

    if lam[0] > 0.0:
        b = step(0.0)
        if np.linalg.norm(b) <= radius:
            return b, True
    lo = max(0.0, -lam[0])
    hi = lo + np.linalg.norm(g) / radius + np.max(np.abs(lam))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(step(mid)) > radius:
            lo = mid
        else:
            hi = mid
    return step(hi), False


def _deflated_step(x, r, residual, J, J_inv, Q, radius):
    """One Newton step on the core values split along the near-null
    subspace span(Q).

    `residual(v)` returns the core residual and nonlinearity at v, J is the
    core Jacobian at x and J_inv its inverse.  On the complement the step is
    the full Newton step P J^-1 P (-r), with P = I - Q Q^T; there J is well
    conditioned.  Along span(Q) the residual g = Q^T r is the gradient of
    the reduced energy of the core positions, and M = Q^T J Q (symmetrized)
    its Hessian.  The step minimizes the quadratic model within
    |beta| <= radius, the complement is re-solved at the trial point (chord
    steps with the same J_inv), and the trial is accepted when the energy
    change, integrated from g at both ends, is at least a tenth of the
    model's; the radius grows after a good prediction at the boundary and
    shrinks after a poor one.  Minimizing rather than zeroing |g| steps over
    folds of the reduced problem (a near-zero eigenvalue with g not in
    range), where Gauss-Newton on |g| stops.  Returns the new iterate, its
    residual and nonlinearity, the fraction of the reduced Newton step taken
    (0 when every trial was refused) and the new radius.
    """
    def complement(v, res):
        step = J_inv @ (Q @ (Q.T @ res) - res)
        return v + step - Q @ (Q.T @ step)

    x = complement(x, r)
    r, f = residual(x)
    g = Q.T @ r
    M = Q.T @ (J @ Q)
    M = 0.5 * (M + M.T)
    newton = max(float(np.linalg.norm(np.linalg.lstsq(M, g, rcond=None)[0])), 1e-300)
    for _ in range(DEFLATED_TRIES):
        beta, interior = _trust_step(g, M, radius)
        predicted = g @ beta + 0.5 * beta @ M @ beta
        x_try = x + Q @ beta
        for _ in range(3):
            x_try = complement(x_try, residual(x_try)[0])
        r_try, f_try = residual(x_try)
        actual = 0.5 * (g + Q.T @ r_try) @ beta
        rho = actual / predicted if predicted < 0.0 else 0.0
        if rho > 0.1:
            if rho > 0.75 and not interior:
                radius *= 2.0
            elif rho < 0.25:
                radius *= 0.5
            return x_try, r_try, f_try, min(1.0, np.linalg.norm(beta) / newton), radius
        radius *= 0.25
    return x, r, f, 0.0, radius


def solve_newton(setup, start, tol=1e-10, max_iter=60):
    """Damped semismooth Newton on the core values from the nodal values
    `start`; returns the solved GridField and its SolveReport.

    tol is relative to the max norm of the active nonlinearity.  The block
    W = S^-1 on the candidate core nodes T of the start is formed once
    (`_Core`), and Newton iterates on the core values x and their load
    y = S x, from one LU solve with W: the residual is y - f_T(x), and each
    step is the exact Newton step, a dense solve on the active nodes alone
    (`_Core.step`).  Steps are capped at 0.3 times the larger of the start's
    range and the largest activation level (crossing the free boundary by
    many cells in one shot invalidates the local model; a flat start still
    moves by up to its levels), and the line search backtracks on the l2
    residual down to MIN_DAMPING.  A converged load gives the field by one
    FFT convolution; if that field activates a node outside T, T grows to
    the union and Newton continues from the field's values there.  A start
    that activates no node has an empty core and the zero field.

    The solve stalls when the line search would need a smaller damping, or
    when STALL_WINDOW iterations pass without a new lowest max-residual.
    The first stall restarts once from the best iterate in deflated mode:
    each iteration takes `_deflated_step` along the near-null basis Q of
    the core Jacobian S - diag(f'_T), two core translations per vortex,
    starting from TRUST_RADIUS along span(Q).  This is the regime of
    degenerate equilibria (a pair on a rotation orbit), where the near-null
    eigenvalues come within the grid's own pinning of the cores and plain
    Newton steps creep along span(Q).  A second stall raises
    ConvergenceError carrying the lowest-residual iterate and quoting the
    near-null eigenvalues.
    """
    report = SolveReport()
    n_null = setup.near_null_dim
    step_cap = 0.3 * max(float(np.max(start) - np.min(start)),
                         float(np.max(np.abs(setup.level))), 1e-12)
    core_sys = gates = eigvals = None

    def residual(v, load=None):
        """The core residual load - f_T(v), the load S v unless given (in the
        deflated mode), and f_T(v)."""
        f = rhs_eval(v, gates)
        return (core_sys.S @ v if load is None else load) - f, f

    def field_of(v, load):
        return core_sys.field(v, load) if core_sys is not None else np.zeros_like(start)

    def enter(core, w):
        """The core on `core`; the values of w there, their load, residual
        and nonlinearity."""
        nonlocal core_sys, gates
        core_sys = _Core(setup, core, report)
        T = core_sys.core
        # the gate map of the core nodes alone
        gates = replace(setup, vortex=setup.vortex[T], sign=setup.sign[T], level=setup.level[T])
        y = _dense_solve(core_sys.W, w[T], report)      # S w_T, one LU solve with W
        return (w[T], y) + residual(w[T], y)

    core = _core_candidates(setup, start)
    x, y, r, f = enter(core, start) if core.size else (np.empty(0),) * 4
    rl2, rn, scale = _norms(r, f)
    report.residual_history.append((rl2, rn))
    # iterates are never modified in place, so the best one is kept by reference
    best_x, best_y, best_rn, best_it = x, y, rn, 0
    idle = 0                 # iterations since the last new best (or restart)
    radius = None            # trust radius along span(Q) once deflated
    stalled = None
    it = 0

    def fail(message):
        nonlocal eigvals
        if eigvals is None:
            eigvals = _near_null_basis(core_sys.S - np.diag(rhs_derivative(x, gates)),
                                       n_null or 2)[1]
        near_null = ", ".join(f"{v:.2e}" for v in sorted(eigvals, key=abs))
        raise ConvergenceError(
            f"{message}; best residual {best_rn:.3e} at iteration {best_it}; "
            f"near-null eigenvalues of the core Jacobian: {near_null}",
            best=GridField(setup.spec, field_of(best_x, best_y)), report=report)

    while True:
        if rn <= tol * scale:
            w = field_of(x, y)
            core = core_sys.core if core_sys is not None else np.empty(0, dtype=int)
            grown = setup.excess(w) > 0.0
            grown[core] = True
            grown = np.flatnonzero(grown)
            if grown.size == core.size:
                report.converged = True
                break
            # the field activates nodes outside T: the iterate's residual on
            # the grown core replaces the one on T, and Newton goes on there
            x, y, r, f = enter(grown, w)
            rl2, rn, scale = _norms(r, f)
            report.residual_history[-1] = (rl2, rn)
            best_x, best_y, best_rn, best_it = x, y, rn, it
            idle = 0
            continue
        if it == max_iter:
            fail(f"Newton did not converge in {max_iter} iterations (residual {rn:.3e})")
        it += 1
        if stalled is None and idle >= STALL_WINDOW:
            stalled = f"no new best residual in {STALL_WINDOW} iterations"
        if stalled is not None:
            if radius is not None or not n_null:
                fail(f"Newton stalled ({stalled}, iteration {it})")
            report.notes = (f"deflated from iteration {it} ({stalled}), "
                            f"restarted at the best iterate {best_it}")
            stalled = None
            radius = TRUST_RADIUS
            idle = 0
            x = best_x
            r, f = residual(x)
        d = rhs_derivative(x, gates)
        report.active_nodes.append(int(np.count_nonzero(d)))
        if radius is not None:
            J = core_sys.S - np.diag(d)
            Q, eigvals = _near_null_basis(J, n_null)
            J_inv = _dense_solve(J, np.eye(J.shape[0]), report)
            x_try, r_try, f_try, lam, radius = _deflated_step(x, r, residual, J, J_inv, Q, radius)
            y_try = r_try + f_try   # S x_try, as the deflated residual has it
        else:
            dx, dy = core_sys.step(r, d)
            sn = float(np.max(np.abs(dx)))
            if sn > step_cap:
                dx, dy = dx * (step_cap / sn), dy * (step_cap / sn)
            lam = 1.0
            while lam >= MIN_DAMPING:
                x_try, y_try = x + lam * dx, y + lam * dy
                r_try, f_try = residual(x_try, y_try)
                if np.linalg.norm(r_try) <= (1.0 - 1e-4 * lam) * rl2 or \
                   np.max(np.abs(r_try)) <= tol * scale:
                    break
                lam *= 0.5
            else:
                # the step is refused and recorded with damping 0; the next
                # iteration restarts in deflated mode
                stalled = f"line search stalled below damping {MIN_DAMPING:.1e} at iteration {it}"
                x_try, y_try, r_try, f_try, lam = x, y, r, f, 0.0
        x, y, r, f = x_try, y_try, r_try, f_try
        rl2, rn, scale = _norms(r, f)
        report.iterations = it
        report.residual_history.append((rl2, rn))
        report.damping_history.append(lam)
        idle += 1
        if rn < best_rn:
            best_x, best_y, best_rn, best_it = x, y, rn, it
            idle = 0
    return GridField(setup.spec, w), report


def picard_gap(setup, values):
    """Max-norm distance between nodal values and one application of the
    Picard map; a solver-independent fixed-point check."""
    mapped = setup.spec.solver.solve(rhs_eval(values, setup)) / setup.coef
    return float(np.max(np.abs(mapped - values)))
