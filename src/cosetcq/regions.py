"""Achievable rate regions: coset-code inner bound, point-to-point window,
message splitting, and the unstructured baseline."""

from __future__ import annotations

import functools
import itertools
from math import comb, prod

import numpy as np

from ._record import Record
from .channels import (
    CqChannel,
    InputDistribution,
    SplitInputDistribution,
    _aux_sums,
    _check_biases,
    _cyclic_sum_pmf,
    _entropy_plan,
    _joint_state,
    _shannon_bits,
    _side_states,
    _sum_state,
    binary_input_distribution,
    example1_channel,
    example2_channel,
    example2_mix,
    label_entropy,
    split_sigma1,
    split_sigma_receiver,
)
from . import errors
from .errors import ConsistencyError, check_count, check_memory, check_pmf
from .linalg import _as_matrix, _entropies, von_neumann_entropy

__all__ = [
    "hb",
    "conv",
    "shannon",
    "RatePoint",
    "Constraint",
    "RegionSpec",
    "NccRateParams",
    "Theorem2Bounds",
    "SeparationReport",
    "GridSearchResult",
    "theorem1_region",
    "theorem2_bounds",
    "theorem3_region",
    "usb_region",
    "example_separation_witness",
    "grid_search",
    "simplex_grid",
]


def hb(x: float) -> float:
    """Binary entropy in bits; domain [0, 1] with hb(0) = hb(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def conv(a: float, b: float) -> float:
    """Binary convolution a*b = a(1-b) + b(1-a)."""
    for name, val in (("a", a), ("b", b)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"convolution argument {name} must lie in [0, 1], got {val}")
    return a * (1.0 - b) + b * (1.0 - a)


def shannon(pmf) -> float:
    """Shannon entropy in bits of a finite pmf."""
    return float(_shannon_bits(check_pmf(pmf, "pmf", (None,))[None])[0])


def _holevo(pmf, states) -> float:
    """Holevo information (bits) of the ensemble {pmf[i], states[i]}."""
    avg = sum(p * s for p, s in zip(pmf, states))
    kept = [(p, s) for p, s in zip(pmf, states) if p > 0.0]
    h_avg, *ents = _entropies([avg] + [s for _, s in kept])
    return h_avg - sum(p * h for (p, _), h in zip(kept, ents))


class RatePoint(Record):
    """A rate triple with per-sender cost budgets."""

    r1: float
    r2: float
    r3: float
    tau1: float = np.inf
    tau2: float = np.inf
    tau3: float = np.inf

    def __post_init__(self) -> None:
        if np.isnan([self.r1, self.r2, self.r3, self.tau1, self.tau2, self.tau3]).any():
            raise ValueError("rates and cost budgets must not be NaN")
        if min(self.r1, self.r2, self.r3) < 0:
            raise ValueError("rates must be nonnegative")

    @property
    def rates(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3])

    @property
    def taus(self) -> np.ndarray:
        return np.array([self.tau1, self.tau2, self.tau3])


class Constraint(Record):
    """A half-space coeffs . (r1, r2, r3) <= rhs.

    ``clamped`` records that a negative right-hand side was raised to zero.
    """

    name: str
    coeffs: tuple
    rhs: float
    clamped: bool = False


# Coefficients of the named rate lines; Theorem 1 uses all seven, in order.
_LINES = {
    "r1": (1, 0, 0), "r2": (0, 1, 0), "r3": (0, 0, 1), "r2_coset": (0, 1, 0),
    "r3_coset": (0, 0, 1), "r1_plus_r2": (1, 1, 0), "r1_plus_r3": (1, 0, 1),
}


def _region(rhs: dict, costs) -> "RegionSpec":
    """The region of the named lines; a negative right-hand side is clamped
    to zero and tagged."""
    lines = tuple(
        Constraint(name, _LINES[name], 0.0, clamped=True) if r < 0.0
        else Constraint(name, _LINES[name], float(r))
        for name, r in rhs.items()
    )
    return RegionSpec(lines, tuple(costs))


@functools.lru_cache(maxsize=256)
def _plane_triples(coeffs: tuple) -> tuple:
    """For the normals ``coeffs`` plus the three nonnegativity facets, the
    triples of planes (in combinations order) that meet in one point: their
    indices (T, 3) and normal matrices (T, 3, 3), both read-only."""
    normals = np.vstack([np.array(coeffs, dtype=float).reshape(-1, 3), np.diag(-np.ones(3))])
    trios = np.array(list(itertools.combinations(range(len(normals)), 3)), dtype=np.intp)
    a = normals[trios]
    regular = ~(np.abs(np.linalg.det(a)) < 1e-12)
    trios, a = trios[regular], a[regular]
    trios.setflags(write=False)
    a.setflags(write=False)
    return trios, a


class RegionSpec(Record):
    """A rate region cut out by linear constraints plus cost expectations.

    ``cost_expectations[j]`` is E[cost_{j+1}(X_{j+1})] under the generating
    input distribution; a point belongs to the region when its rate triple
    satisfies every constraint and its budgets cover those expectations.
    """

    constraints: tuple
    cost_expectations: tuple

    def contains(self, point: RatePoint, tol: float = 1e-9) -> bool:
        r = point.rates
        for c in self.constraints:
            if float(np.dot(c.coeffs, r)) > c.rhs + tol:
                return False
        for cost, budget in zip(self.cost_expectations, point.taus):
            if cost > budget + tol:
                return False
        return True

    def constraint(self, name: str) -> Constraint:
        for c in self.constraints:
            if c.name == name:
                return c
        raise KeyError(f"no constraint named {name!r}")

    def corner_points(self, tol: float = 1e-9) -> np.ndarray:
        """Vertices of the polytope (rates only), one per row, sorted; the
        feasible intersections of every three constraint planes, the
        nonnegativity facets included (``_vertices``)."""
        coeffs = tuple(tuple(c.coeffs) for c in self.constraints)
        rhs = np.array([c.rhs for c in self.constraints], dtype=float)
        points, _ = _vertices(coeffs, rhs[None], tol)
        if not len(points):
            return np.zeros((1, 3))
        return _unique_rows(points)

    def max_weighted_sum(self, weights) -> tuple:
        """Maximum of weights . r over the region and the first corner in
        sorted order attaining it (``_best_vertices`` on one polytope)."""
        corners = self.corner_points()
        w = np.asarray(weights, dtype=float)
        values, best = _best_vertices(corners, np.zeros(len(corners), dtype=int), w)
        return float(values[0]), best[0]


def _vertices(coeffs: tuple, rhs: np.ndarray, tol: float = 1e-9) -> tuple:
    """Vertices of B polytopes {r >= 0 : coeffs r <= rhs[b]} as ``(points,
    feasible)``: every feasible intersection of three planes, clipped at 0
    and rounded to 9 decimals (duplicates kept), polytope by polytope, and
    the (B, T) mask that picked them.  One batched ``solve`` finds them all."""
    trios, a = _plane_triples(coeffs)
    offsets = np.concatenate([rhs, np.zeros((len(rhs), 3))], axis=1)
    v = np.linalg.solve(a, offsets[:, trios][..., None])[..., 0]
    # Negated comparisons, as in a scalar skip test, so NaN rows survive.
    feasible = ~(v.min(axis=-1) < -tol)
    normals = np.array(coeffs, dtype=float).reshape(-1, 3)
    feasible &= ~np.any(v @ normals.T > rhs[:, None, :] + tol, axis=-1)
    return np.round(np.clip(v[feasible], 0.0, None), 9), feasible


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """``np.unique(points, axis=0)`` for the (N, 3) vertices of ``_vertices``:
    one stable ``lexsort``, then each run of equal rows kept once.

    Rows that compare equal have the same bytes, as the clip at 0 leaves no
    -0.0, so which one of a run survives does not show.  NaN rows tie with
    NaN rows of other bits in ``np.unique``'s unstable sort, so rows with a
    NaN go to ``np.unique`` itself.
    """
    if np.isnan(points).any():
        return np.unique(points, axis=0)
    points = points[np.lexsort(points.T[::-1])]
    return points[np.r_[True, (points[1:] != points[:-1]).any(axis=1)]]


def _best_vertices(points: np.ndarray, rows: np.ndarray, w: np.ndarray) -> tuple:
    """Per polytope, the maximum of w . r over its vertices and the first
    vertex in sorted order attaining it: ``max_weighted_sum`` for every
    polytope of ``_vertices``, each of which must have a vertex; ``rows``
    gives each point's polytope, ascending."""
    values = points @ w
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0], rows))
    points, rows, values = points[order], rows[order], values[order]
    top = np.maximum.reduceat(values, np.flatnonzero(np.diff(rows, prepend=-1)))
    hits = np.flatnonzero(values == top[rows])
    first = hits[np.diff(rows[hits], prepend=-1) > 0]
    return values[first], points[first]


def _theorem1_rhs(channel: CqChannel, p_x1, p_v2x2, p_v3x3) -> np.ndarray:
    """Right-hand sides (B, 7) of Theorem 1's lines, before clamping, for
    B pmfs given as arrays (B, |X1|), (B, q, |X2|), (B, q, |X3|)."""
    p_v2, p_v3 = p_v2x2.sum(axis=-1), p_v3x3.sum(axis=-1)
    p_u = _cyclic_sum_pmf(p_v2, p_v3)
    s1 = _sum_state(channel, p_x1, p_v2x2, p_v3x3, p_u, ("x1", "u"))
    s2 = _joint_state(channel, p_x1, p_v2x2, p_v3x3)
    i_x1_given_u, i_u_given_x1, i_x1u, *direct = _entropy_plan(
        ("I", s1, ("x1",), ("u",)),
        ("I", s1, ("u",), ("x1",)),
        ("I", s1, ("x1", "u"), ()),
        ("I", s2.reduce_quantum([1]), ("v2",), ()),
        ("I", s2.reduce_quantum([2]), ("v3",), ()),
    )
    h_u = _shannon_bits(p_u)
    h_v2, h_v3 = _shannon_bits(p_v2), _shannon_bits(p_v3)
    min_hv = np.where(h_v3 < h_v2, h_v3, h_v2)  # min(h_v2, h_v3), ties to h_v2
    coset_rhs = min_hv - h_u + i_u_given_x1
    sum_rhs = min_hv - h_u + i_x1u
    # one pmf gives floats: column_stack takes those as well as (B,) arrays
    return np.column_stack([i_x1_given_u, *direct, coset_rhs, coset_rhs, sum_rhs, sum_rhs])


def theorem1_region(channel: CqChannel, dist: InputDistribution) -> RegionSpec:
    """Coset-code inner bound for a 3-to-1 channel at one input pmf.

    Seven rate constraints: one private line for sender 1, and per j in
    {2, 3} a direct line, a coset-density line, and a sum line covering the
    interference decoded at receiver 1.  Negative right-hand sides (possible
    when the coset-density penalty exceeds the mutual information) are
    clamped to zero and tagged.  Evaluated as a batch of one pmf.
    """
    pmfs = (dist.p_x1, dist.p_v2x2, dist.p_v3x3)
    rhs = _theorem1_rhs(channel, *(p[None] for p in pmfs))[0]
    return _region(dict(zip(_LINES, rhs)), dist.cost_expectations(channel))


class NccRateParams(Record):
    """Blocklength-normalized parameters of a nested coset code."""

    q: int
    n: int
    k: int
    l: int
    p_v: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 0 or self.l < 0:
            raise ValueError(f"invalid dimensions n={self.n} k={self.k} l={self.l}")
        if self.k > self.n:
            raise ValueError(f"inner rows k={self.k} exceed blocklength n={self.n}")
        object.__setattr__(self, "p_v", check_pmf(self.p_v, "p_v", (self.q,)))


class Theorem2Bounds(Record):
    """Point-to-point coset-code thresholds at fixed (q, n, k, l, p_V)."""

    h_v: float
    holevo: float
    log_q: float
    inner_density_ok: bool
    total_rate_ok: bool
    message_rate: float


def theorem2_bounds(params: NccRateParams, states) -> Theorem2Bounds:
    """Evaluate the two coset-code thresholds for a point-to-point channel.

    ``states[v]`` is the channel output for letter v.  The inner-density
    condition asks (k/n) log q > log q - H(V); the total-rate condition asks
    ((k+l)/n) log q < log q - H(V) + Holevo.  When both hold the message
    rate (l/n) log q sits below the Holevo information; this is verified and
    a ConsistencyError raised otherwise.
    """
    mats = [_as_matrix(s) for s in states]
    if len(mats) != params.q:
        raise ValueError(f"expected {params.q} channel states, got {len(mats)}")
    h_v = shannon(params.p_v)
    holevo = _holevo(params.p_v, mats)
    log_q = float(np.log2(params.q))
    inner_ok = (params.k / params.n) * log_q > log_q - h_v
    total_ok = ((params.k + params.l) / params.n) * log_q < log_q - h_v + holevo
    message_rate = (params.l / params.n) * log_q
    if inner_ok and total_ok and message_rate >= holevo + 1e-9:
        raise ConsistencyError(
            f"message rate {message_rate} exceeds Holevo information {holevo} "
            "although both thresholds hold"
        )
    return Theorem2Bounds(h_v, float(holevo), log_q, inner_ok, total_ok, message_rate)


def theorem3_region(channel: CqChannel, dist: SplitInputDistribution) -> RegionSpec:
    """Message-splitting inner bound with structured letters u2, u3.

    Receiver 1 decodes w = u2 + u3 alongside its own message; choosing
    degenerate u_j (w empty) recovers the unstructured baseline.
    """
    s1 = split_sigma1(channel, dist)
    s2, s3 = (split_sigma_receiver(channel, dist, j) for j in (2, 3))
    h_w, h_y1, h_x1w, direct2, cond2, direct3, cond3 = _entropy_plan(
        ("S", s1, ("w",)),
        ("S", s1, ()),
        ("S", s1, ("x1", "w")),
        ("I", s2, ("u", "x"), ()),
        ("I", s2, ("x",), ("u",)),
        ("I", s3, ("u", "x"), ()),
        ("I", s3, ("x",), ("u",)),
    )
    # H(W | Y1) and I(X1 ; W, Y1), combined as classical_conditional_entropy
    # and classical_quantum_mi combine them.
    h_w_given_y1 = h_w - h_y1
    i_x1_wy1 = (label_entropy(s1, ("x1",)) + h_w) - h_x1w
    h_u2, h_u3 = shannon(dist.p_uj(2)), shannon(dist.p_uj(3))
    rhs = {
        "r1": min(0.0, h_u2 - h_w_given_y1, h_u3 - h_w_given_y1) + i_x1_wy1,
        "r2": direct2,
        "r3": direct3,
        "r1_plus_r2": cond2 + i_x1_wy1 + h_u2 - h_w_given_y1,
        "r1_plus_r3": cond3 + i_x1_wy1 + h_u3 - h_w_given_y1,
    }
    return _region(rhs, dist.cost_expectations(channel))


def usb_region(channel: CqChannel, p_x1, p_x2, p_x3) -> RegionSpec:
    """Unstructured baseline region from per-receiver Holevo informations.

    Computed directly from output marginal mixtures, without the
    block-diagonal state machinery, so it can serve as a cross-check for
    the message-splitting region with degenerate structured letters.  The
    receiver-1 average is the shared ``channels._aux_sums``, which the tests
    check against its definition.  A channel that is not 3-to-1 raises
    ``ModelViolationError``, as in ``theorem3_region``.
    """
    pmfs = [
        check_pmf(p, f"input pmf of sender {j + 1}", (size,))
        for j, (p, size) in enumerate(zip((p_x1, p_x2, p_x3), channel.input_sizes))
    ]
    side = _side_states(channel)
    # Receiver 1 sees x1 against the product background of the other senders:
    # a single auxiliary letter on each side, so every pair has sum 0.
    rho1 = _aux_sums(channel, pmfs[1][None, None], pmfs[2][None, None])[0, :, 0]
    i1, i2, i3 = [_holevo(pmfs[0], rho1)] + [_holevo(p, s) for p, s in zip(pmfs[1:], side)]
    rhs = {"r1": i1, "r2": i2, "r3": i3, "r1_plus_r2": i1 + i2, "r1_plus_r3": i1 + i3}
    return _region(rhs, channel.expected_costs(*pmfs))


class SeparationReport(Record):
    """Outcome of the structured-vs-unstructured comparison on one example."""

    example: int
    delta1: float
    delta: float
    tau: float
    ncc_point: RatePoint
    ncc_point_in_theorem1: bool
    unstructured_lhs: float
    unstructured_rhs: float
    structured_feasible: bool
    separation: bool

    @property
    def margin(self) -> float:
        return self.unstructured_lhs - self.unstructured_rhs


def _example1_closed_forms(delta1: float, delta: float, tau: float) -> tuple:
    """(cap1, capj, rhs) of the commuting example 1, in bits.

    cap1 = h(tau * delta1) - h(delta1) is sender 1's capacity at input bias
    tau, capj = 1 - h(delta) each side link's, and rhs = 1 - h(delta1) the
    receiver-1 bound with the interference uniformly random.
    """
    return hb(conv(tau, delta1)) - hb(delta1), 1.0 - hb(delta), 1.0 - hb(delta1)


def _structured_feasible(delta1: float, delta: float, tau: float) -> bool:
    """Receiver 1 can decode the interference sum: conv(tau, delta1) <= delta
    < 1/2, with 1e-9 slack because the canonical tau saturates the first."""
    return bool(conv(tau, delta1) <= delta + 1e-9 and delta < 0.5)


def example_separation_witness(
    example: int, delta1: float, delta: float, tau: float = None
) -> SeparationReport:
    """Evaluate the separation witness on one of the two worked channels.

    The candidate point packs the point-to-point capacities of the three
    links at input bias ``tau`` for sender 1 (default: the bias solving
    conv(tau, delta1) = delta, so receiver 1 can strip the interference).
    Separation holds when that point satisfies every structured-region
    constraint while its sum rate exceeds the unstructured bound
    I(X1;Y1) + I(X2;Y2) + I(X3;Y3) evaluated at the capacity-achieving pmfs,
    i.e. when cap1 + 2 capj > I(X1;Y1 | interference random).
    """
    if example not in (1, 2):
        raise ValueError(f"example must be 1 or 2, got {example}")
    _check_biases(delta1, delta)
    if tau is None:
        tau = (delta - delta1) / (1.0 - 2.0 * delta1)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if example == 1:
        channel = example1_channel(delta1, delta)
        cap1, capj, rhs = _example1_closed_forms(delta1, delta, tau)
    else:
        channel = example2_channel(delta1, delta)
        s = lambda p: von_neumann_entropy(example2_mix(p))
        cap1 = s(conv(tau, delta1)) - s(delta1)
        capj = s(0.5) - s(delta)
        rhs = s(0.5) - s(delta1)
    lhs = cap1 + 2.0 * capj
    structured_ok = _structured_feasible(delta1, delta, tau)
    point = RatePoint(max(cap1, 0.0), capj, capj, tau, 0.0, 0.0)
    region = theorem1_region(channel, binary_input_distribution(tau))
    in_region = region.contains(point, tol=1e-9)
    return SeparationReport(
        example=example,
        delta1=delta1,
        delta=delta,
        tau=tau,
        ncc_point=point,
        ncc_point_in_theorem1=in_region,
        unstructured_lhs=lhs,
        unstructured_rhs=rhs,
        structured_feasible=structured_ok,
        separation=bool(lhs > rhs and structured_ok and in_region),
    )


def simplex_grid(atoms: int, resolution: int):
    """Yield pmfs over ``atoms`` letters with entries on a 1/(resolution-1) grid."""
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    steps = resolution - 1
    for combo in itertools.combinations_with_replacement(range(atoms), steps):
        counts = np.bincount(np.array(combo, dtype=int), minlength=atoms)
        yield counts / steps


# Pmfs per batched region evaluation in ``grid_search``.
GRID_CHUNK = 256
# Most region evaluations that one ``grid_search`` makes.
GRID_BUDGET = 10**7


def _grid_bytes(channel: CqChannel, q: int, sizes: list) -> tuple:
    """Bytes that ``grid_search`` holds at the peak of a chunk, as
    tracemalloc measured them, fixed and per pmf.  Fixed: the three pmf
    grids of ``sizes`` pmfs, and 256 KiB for NumPy's and Python's own
    buffers and free lists (142 KiB at most in a scan of product channels
    up to output dims (4, 4, 4)).  Per pmf: the
    joint state's (q, q, D, D) complex sum and product buffer (D the
    product of the output dimensions), receiver 1's (|X1|, q, d1, d1) sum
    and buffer, the complex input weight tables, and 16 KiB for the rest
    (the corner search)."""
    n_x1, n_x2, n_x3 = channel.input_sizes
    atoms = (n_x1, q * n_x2, q * n_x3)
    fixed = sum(size * (16 * a + 128) for a, size in zip(atoms, sizes)) + 2**18
    d1, dim = channel.output_dims[0], prod(channel.output_dims)
    per_pmf = 32 * q * q * dim * dim + 32 * n_x1 * q * d1 * d1
    return fixed, per_pmf + 16 * q * q * (n_x1 + 1) * n_x2 * n_x3 + 2**14


class GridSearchResult(Record):
    best_value: float
    best_corner: np.ndarray
    best_dist: InputDistribution
    evaluations: int


def grid_search(
    channel: CqChannel,
    objective,
    resolution: int,
    q: int = 2,
) -> GridSearchResult:
    """Exhaustive scan of factored input pmfs maximizing a weighted sum rate.

    Scans product distributions p(x1) p(v2, x2) p(v3, x3) on a simplex grid,
    evaluates the coset-code region at each, and maximizes
    ``objective . corner`` over region corners; the first pmf in scan order
    attaining the maximum wins.  The grid is evaluated in chunks of at most
    ``GRID_CHUNK`` pmfs, each chunk as one batch, and as many as fit in the
    memory cap beside the grids (``_grid_bytes``); the chunking does not
    change the result.

    Raises
    ------
    BudgetExceededError
        If the grid holds more than ``GRID_BUDGET`` region evaluations, or
        the grids and one pmf's evaluation exceed the memory cap.
    """
    w = np.asarray(objective, dtype=float)
    if w.shape != (3,):
        raise ValueError("objective must be a weight triple")
    n_x1, n_x2, n_x3 = channel.input_sizes
    atoms = (n_x1, q * n_x2, q * n_x3)
    sizes = [comb(resolution + a - 2, a - 1) for a in atoms]
    total = prod(sizes)
    check_count(total, GRID_BUDGET, "region evaluations in a grid search")
    fixed, per_pmf = _grid_bytes(channel, q, sizes)
    check_memory(fixed + per_pmf, f"grid search of {total} region evaluations")
    chunk = min(GRID_CHUNK, (errors.MEMORY_BUDGET - fixed) // per_pmf)
    grids = [
        np.array([check_pmf(p, "grid pmf") for p in simplex_grid(a, resolution)])
        for a in atoms
    ]
    best = None
    for start in range(0, total, chunk):
        picks = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
        p_x1, p22, p33 = (g[i] for g, i in zip(grids, picks))
        p22, p33 = p22.reshape(-1, q, n_x2), p33.reshape(-1, q, n_x3)
        rhs = _theorem1_rhs(channel, p_x1, p22, p33)
        # Clamped right-hand sides are >= 0, so the origin is a vertex of each.
        points, feasible = _vertices(tuple(_LINES.values()), np.where(rhs < 0.0, 0.0, rhs))
        values, corners = _best_vertices(points, np.nonzero(feasible)[0], w)
        k = int(np.argmax(values))
        if best is None or values[k] > best[0]:
            dist = InputDistribution(q=q, p_x1=p_x1[k], p_v2x2=p22[k], p_v3x3=p33[k])
            best = (float(values[k]), corners[k], dist)
    return GridSearchResult(*best, evaluations=total)
