"""Chart metrics on four-dimensional coordinate boxes and pointwise geometry.

A chart metric carries its own exact derivative data whenever the entries are
polynomial or in closed form; a generic callable metric falls back to finite
differences. Every metric evaluates at a point or over a stack of points,
with the points on the last axis. Curvature uses the convention

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,

so the unit round 2-sphere has <R(e1, e2)e2, e1> = +1 for an orthonormal
frame (e1, e2).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._linalg import check_spd, spd_sqrt_pair
from .errors import DegenerateFrameError, DomainError, GeometryError
from .polynomials import UPPER, Poly, Table, evaluate, symmetric

DEFAULT_FD_STEP = 1e-5
FRAME_RANK_TOL = 1e-8
ORIENTATION_DET_TOL = 1e-12
MACHINE_EPS = float(np.finfo(float).eps)

_METRIC_FD_STEP = 1e-4
_METRIC_FD_STEP2 = 5e-4


@dataclass(frozen=True)
class Box:
    """Axis-aligned coordinate box, the domain of a chart."""

    lo: tuple
    hi: tuple
    # lo and hi as arrays, converted once
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lo", np.asarray(self.lo))
        object.__setattr__(self, "_hi", np.asarray(self.hi))

    @classmethod
    def cube(cls, half: float, center: Sequence[float] = (0.0, 0.0, 0.0, 0.0)) -> "Box":
        c = np.asarray(center, dtype=float)
        return cls(tuple(c - half), tuple(c + half))

    def contains(self, m):
        """Whether m lies in the box; one bool per point for a stack."""
        m = np.asarray(m, dtype=float)
        inside = np.all((m >= self._lo) & (m <= self._hi), axis=-1)
        return inside if inside.ndim else bool(inside)

    def size(self) -> float:
        return float(np.min(self._hi - self._lo))

    def boundary_distance(self, m: Sequence[float]) -> float:
        m = np.asarray(m, dtype=float)
        return float(min(np.min(m - self._lo), np.min(self._hi - m)))


class ChartMetric:
    """Base class: a metric tensor field over a coordinate box."""

    def __init__(self, domain: Box):
        self.domain = domain

    def require_inside(self, m) -> None:
        """Raise DomainError naming the first point of m outside the domain."""
        inside = self.domain.contains(m)
        if not np.all(inside):
            point = np.asarray(m).reshape(-1, 4)[np.argmin(inside)]
            raise DomainError(f"point {point.tolist()} leaves the chart domain (margin 0)")

    def matrix(self, m) -> np.ndarray:
        raise NotImplementedError

    def matrix_checked(self, m) -> np.ndarray:
        g = self.matrix(m)
        check_spd(g, "chart metric")
        return g

    # Finite-difference fallbacks, one point at a time; subclasses with
    # closed forms override.

    def first_derivatives(self, m) -> np.ndarray:
        return pointwise(self._first_differences, m)

    def second_derivatives(self, m) -> np.ndarray:
        return pointwise(self._second_differences, m)

    def _first_differences(self, m: np.ndarray) -> np.ndarray:
        h = _METRIC_FD_STEP * max(1.0, float(np.max(np.abs(m))))
        return np.array([
            central_difference([self.matrix(x) for x in central_nodes(m, e, h)], h)
            for e in np.eye(4)])

    def _second_differences(self, m: np.ndarray) -> np.ndarray:
        h = _METRIC_FD_STEP2 * max(1.0, float(np.max(np.abs(m))))
        out = np.zeros((4, 4, 4, 4))
        g0 = self.matrix(m)
        basis = np.eye(4)
        for k in range(4):
            ek = basis[k]
            out[k, k] = (self.matrix(m + h * ek) - 2.0 * g0 + self.matrix(m - h * ek)) / h ** 2
        for k in range(4):
            for l in range(k + 1, 4):
                ek, el = basis[k], basis[l]
                mixed = (self.matrix(m + h * (ek + el)) - self.matrix(m + h * (ek - el))
                         - self.matrix(m - h * (ek - el)) + self.matrix(m - h * (ek + el))
                         ) / (4 * h ** 2)
                out[k, l] = mixed
                out[l, k] = mixed
        return out


def pointwise(fn: Callable[[np.ndarray], np.ndarray], m) -> np.ndarray:
    """fn, which takes one point, applied to each point of m."""
    m = np.asarray(m, dtype=float)
    values = np.array([fn(x) for x in m.reshape(-1, 4)])
    return values.reshape(m.shape[:-1] + values.shape[1:])


class FlatMetric(ChartMetric):
    """Identity metric on the box."""

    def matrix(self, m):
        out = np.empty(np.shape(m)[:-1] + (4, 4))
        out[...] = np.eye(4)
        return out

    def first_derivatives(self, m):
        return np.zeros(np.shape(m)[:-1] + (4, 4, 4))

    def second_derivatives(self, m):
        return np.zeros(np.shape(m)[:-1] + (4, 4, 4, 4))


class PolynomialMetric(ChartMetric):
    """Metric whose entries are exact polynomials in the chart coordinates.

    Only the UPPER (i <= j) entries of the symmetric table are kept.
    """

    def __init__(self, entries: Sequence[Sequence[Poly]], domain: Box):
        super().__init__(domain)
        self.upper = Table(entries[i][j] for i, j in UPPER)
        d1 = [[p.diff(k) for p in self.upper] for k in range(4)]
        # d_k g_ij in (k, ij) order and d_l d_k g_ij in (k, l, ij) order
        self._d1 = Table(p for row in d1 for p in row)
        self._d2 = Table(p.diff(l) for row in d1 for l in range(4) for p in row)

    def matrix(self, m):
        return symmetric(evaluate(self.upper, m).real)

    def first_derivatives(self, m):
        values = evaluate(self._d1, m).real
        return symmetric(values.reshape(values.shape[:-1] + (4, -1)))

    def second_derivatives(self, m):
        values = evaluate(self._d2, m).real
        return symmetric(values.reshape(values.shape[:-1] + (4, 4, -1)))


class ProductSphereMetric(ChartMetric):
    """Round sphere of the given radius times a flat plane.

    Coordinates (x1, x2) are polar/azimuthal angles on the sphere factor and
    (x3, x4) are Euclidean on the plane factor. The domain must stay away
    from the poles so the chart is nondegenerate.
    """

    def __init__(self, radius: float, domain: Box):
        super().__init__(domain)
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        self.radius = float(radius)

    def matrix(self, m):
        m = np.asarray(m, dtype=float)
        r2 = self.radius ** 2
        out = np.zeros(m.shape[:-1] + (4, 4))
        out[..., 0, 0] = r2
        # float_power squares as the scalar ** does
        out[..., 1, 1] = r2 * np.float_power(np.sin(m[..., 0]), 2)
        out[..., 2, 2] = out[..., 3, 3] = 1.0
        return out

    def first_derivatives(self, m):
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape[:-1] + (4, 4, 4))
        out[..., 0, 1, 1] = self.radius ** 2 * np.sin(2.0 * m[..., 0])
        return out

    def second_derivatives(self, m):
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape[:-1] + (4, 4, 4, 4))
        out[..., 0, 0, 1, 1] = 2.0 * self.radius ** 2 * np.cos(2.0 * m[..., 0])
        return out


class CallableMetric(ChartMetric):
    """Metric given by an arbitrary callable; derivatives by differencing."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], domain: Box):
        super().__init__(domain)
        self._fn = fn

    def matrix(self, m):
        g = pointwise(self._fn, m).astype(float)
        return 0.5 * (g + g.swapaxes(-1, -2))


def pullback_metric(base: ChartMetric, diffeo: Sequence[Poly], domain: Box) -> ChartMetric:
    """Metric of the chart obtained by precomposing with a polynomial map.

    diffeo lists the four components of the map Phi from the new chart into
    the base chart; the result is dPhi^T (g o Phi) dPhi. Flat and polynomial
    bases stay exact; anything else falls back to a callable metric.
    """
    jac = [[diffeo[i].diff(a) for a in range(4)] for i in range(4)]
    if isinstance(base, (FlatMetric, PolynomialMetric)):
        # a flat base is the constant identity table
        g = ([Poly.constant(float(i == j)) for i, j in UPPER] if isinstance(base, FlatMetric)
             else [p.compose(diffeo) for p in base.upper])
        pulled = symmetric(g)
        # a zero entry adds nothing, so it is skipped
        terms = [(i, j) for i in range(4) for j in range(4) if not pulled[i, j].is_zero()]
        upper = []
        for a, b in UPPER:
            s = Poly.zero()
            for i, j in terms:
                s = s + jac[i][a] * pulled[i, j] * jac[j][b]
            upper.append(s.real_poly())
        return PolynomialMetric(symmetric(upper), domain)

    dphi = Table(p for row in jac for p in row)
    diffeo = Table(diffeo)

    def fn(x: np.ndarray) -> np.ndarray:
        J = evaluate(dphi, x).real.reshape(4, 4)
        return J.T @ base.matrix(evaluate(diffeo, x).real) @ J

    return CallableMetric(fn, domain)


# ------------------------------------------------------------ metric point


@dataclass(eq=False)
class MetricPoint:
    """The chart metric at one point or an (n, 4) stack of points, evaluated once.

    `metric_point` checks the domain and the matrix when it builds one. The
    first derivatives, the inverse, the Christoffel symbols and the square
    roots are derived on first use, over the whole stack, and then kept;
    `at(i)` hands point i its rows of them. The curvature is per point.
    Every rejection of the matrix raises GeometryError naming the point.
    """

    metric: ChartMetric
    point: np.ndarray
    g: np.ndarray

    def at(self, i: int) -> "MetricPoint":
        """Point i of a stack, handed its rows of dg, inverse, gamma and sqrt_pair."""
        mp = MetricPoint(self.metric, self.point[i], self.g[i])
        mp.dg, mp.inverse, mp.gamma = self.dg[i], self.inverse[i], self.gamma[i]
        mp.sqrt_pair = tuple(root[i] for root in self.sqrt_pair)
        return mp

    @cached_property
    def dg(self) -> np.ndarray:
        """First derivatives, dg[..., k] = d_k g."""
        return self.metric.first_derivatives(self.point)

    @cached_property
    def inverse(self) -> np.ndarray:
        """g^{-1}, see metric_inverse."""
        with named_at(self.point):
            return metric_inverse(self.g)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Christoffel symbols Gamma[..., k, i, j] = Gamma^k_{ij}."""
        return christoffel_symbols(self.inverse, self.dg)

    @cached_property
    def sqrt_pair(self) -> tuple:
        """(g^{1/2}, g^{-1/2})."""
        with named_at(self.point):
            return spd_sqrt_pair(self.g, "chart metric")

    @cached_property
    def lowered(self) -> np.ndarray:
        """Curvature with all indices lowered, R[i, j, k, p] = <R(d_i, d_j) d_k, d_p>."""
        dg = self.dg
        d2g = self.metric.second_derivatives(self.point)
        ginv, S, gamma = self.inverse, _connection_sums(dg), self.gamma
        # dS[i, m, j, k] = d_i S[m, j, k]
        dS = (np.einsum("ijmk->imjk", d2g) + np.einsum("ikmj->imjk", d2g)
              - np.einsum("imjk->imjk", d2g))
        dginv = -np.einsum("la,iab,bm->ilm", ginv, dg, ginv)
        dgamma = 0.5 * (np.einsum("ilm,mjk->iljk", dginv, S)
                        + np.einsum("lm,imjk->iljk", ginv, dS))
        # R^l_{ijk}: curvature of the stated sign convention
        upper = (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
                 + np.einsum("lim,mjk->lijk", gamma, gamma)
                 - np.einsum("ljm,mik->lijk", gamma, gamma))
        return np.einsum("lijk,lp->ijkp", upper, self.g)

    def pairing(self, X, Y, Z, W) -> float:
        """<R(X, Y)Z, W>."""
        return float(np.einsum("ijkp,i,j,k,p->", self.lowered, X, Y, Z, W))


def metric_inverse(g: np.ndarray) -> np.ndarray:
    """g^{-1} by np.linalg.inv, as the connection and the curvature use it,
    for a matrix or a stack."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise GeometryError("metric matrix is numerically singular") from None


def _connection_sums(dg: np.ndarray) -> np.ndarray:
    # S[..., m, i, j] = d_i g_{mj} + d_j g_{mi} - d_m g_{ij}
    sums = np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg)
    sums -= dg
    return sums


def christoffel_symbols(inverse: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., k, i, j] = Gamma^k_{ij} from g^{-1} and the first
    derivatives dg[..., k] = d_k g, at a point or over a stack."""
    gamma = np.einsum("...km,...mij->...kij", inverse, _connection_sums(dg))
    gamma *= 0.5
    return gamma


def point_name(m) -> list:
    """The point m, or the one point of a stack m, as a list for messages;
    a stack of several points is named by all of them."""
    m = np.asarray(m)
    return (m[0] if m.ndim > 1 and len(m) == 1 else m).tolist()


@contextmanager
def named_at(m: np.ndarray):
    """Re-raise a GeometryError or DegenerateFrameError of the block with
    the point m, or the points of a stack m, named (see point_name)."""
    try:
        yield
    except (GeometryError, DegenerateFrameError) as exc:
        raise type(exc)(f"{exc} at {point_name(m)}") from None


def metric_point(metric: ChartMetric, m) -> MetricPoint:
    """The metric at a point or an (n, 4) stack m, inside the chart and positive definite."""
    m = np.asarray(m, dtype=float)
    metric.require_inside(m)
    with named_at(m):
        g = metric.matrix_checked(m)
    return MetricPoint(metric=metric, point=m, g=g)


def christoffel(metric: ChartMetric, m: Sequence[float]) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] = Gamma^k_{ij} at m."""
    return metric_point(metric, m).gamma


def curvature_data(metric: ChartMetric, m: Sequence[float]) -> MetricPoint:
    """The metric point at m, read for its curvature."""
    return metric_point(metric, m)


def einstein_defect(mp: MetricPoint) -> float:
    """Pointwise deviation of the Ricci tensor from a multiple of the metric."""
    ginv = mp.inverse
    ric = np.einsum("ip,ijkp->jk", ginv, mp.lowered)
    scalar = float(np.einsum("jk,jk->", ginv, ric))
    return float(np.max(np.abs(ric - 0.25 * scalar * mp.g)))


# ------------------------------------------------------------------ frames


def orthonormalize(g: np.ndarray, seeds: Sequence[np.ndarray],
                   complete: bool = False) -> np.ndarray:
    """Rows of a g-orthonormal frame built from the seeds in order.

    A seed is skipped when its residual after projection has a g-norm below
    FRAME_RANK_TOL times the seed's own g-norm, so the rule does not depend
    on the scale of the metric; a seed of g-norm 0 is always skipped. With
    complete=True the frame is extended to four vectors using coordinate
    basis vectors, in index order, under the same skip rule.
    """
    out: list[np.ndarray] = []

    def try_add(v: np.ndarray) -> None:
        # squared g-norms: the seed's, then its residual's; a contiguous
        # copy, so every product takes the same BLAS call whatever the seed
        w = np.array(v, dtype=float)
        wg = w @ g
        size2 = wg @ w
        for u in out:
            w = w - (wg @ u) * u
            wg = w @ g
        n2 = wg @ w
        if n2 > 0 and n2 >= FRAME_RANK_TOL ** 2 * size2:
            out.append(w / np.sqrt(n2))

    for v in seeds:
        try_add(v)
    if complete:
        for k in range(4):
            if len(out) == 4:
                break
            e = np.zeros(4)
            e[k] = 1.0
            try_add(e)
        if len(out) < 4:
            raise DegenerateFrameError("could not complete an orthonormal frame")
    return np.array(out)


def g_products(u: np.ndarray, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ g[i] @ v[i] for stacks of vectors u, v and matrices g, each
    as the same product for one point gives it."""
    return ((u[:, None, :] @ g) @ v[:, :, None])[:, 0, 0]


def orthonormal_stack(g: np.ndarray, seeds: np.ndarray, rank: int,
                      sizes: np.ndarray) -> tuple:
    """Gram-Schmidt over a stack of points, keeping the first `rank` rows.

    g is (n, 4, 4) and seeds is (n, s, 4). Each point's seeds are taken in
    order, until the point has `rank` rows, under orthonormalize's skip
    rule with the residual of seed k at point i measured against the
    g-norm sizes[i, k]. Returns (frames, count): point i's rows are
    frames[i, :count[i]], equal bit for bit to the rows the same steps give
    for the point alone, and the rows past count[i] are zero.
    """
    # contiguous rows, so each product runs through the same BLAS call as
    # for one point
    seeds = np.ascontiguousarray(seeds, dtype=float)
    n = len(g)
    frames = np.zeros((n, rank, 4))
    count = np.zeros(n, dtype=int)
    for k in range(seeds.shape[1]):
        open_ = count < rank
        if not open_.any():
            break
        w = seeds[:, k]
        for j in range(int(count.max())):
            u = frames[:, j]
            w = np.where((count > j)[:, None], w - g_products(w, g, u)[:, None] * u, w)
        norm = np.sqrt(np.maximum(0.0, g_products(w, g, w)))
        take = np.flatnonzero(open_ & (norm > 0) & (norm >= FRAME_RANK_TOL * sizes[:, k]))
        frames[take, count[take]] = w[take] / norm[take, None]
        count[take] += 1
    return frames, count


def _orientation_failure(det: float, bound: float) -> str | None:
    """Why a frame with this determinant has no orientation, or None.

    The determinant is compared with Hadamard's bound, the product of the
    row lengths, so the test does not depend on the scale of the metric.
    """
    if not math.isfinite(det):
        return "frame determinant is not finite"
    if abs(det) <= ORIENTATION_DET_TOL * bound:
        return "frame determinant is numerically zero"
    return None


def frame_orientations(frames: np.ndarray) -> tuple:
    """(signs, failures) of a stack of 4-frames, given as rows, against the
    chart orientation; failures[i] is None, or why frame i has none."""
    det = np.linalg.det(frames.swapaxes(-1, -2))
    bound = np.prod(np.hypot.reduce(frames, axis=-1), axis=-1)
    failures = [_orientation_failure(d, b) for d, b in zip(det.tolist(), bound.tolist())]
    return np.where(det > 0, 1, -1), failures


def orientation_sign(frame: np.ndarray) -> int:
    """Sign of a 4-frame, given as rows, against the chart orientation."""
    vectors = np.asarray(frame, dtype=float)
    if vectors.shape != (4, 4):
        raise DegenerateFrameError("orientation needs exactly four vectors")
    det = float(np.linalg.det(vectors.T))
    failure = _orientation_failure(
        det, math.prod(math.hypot(*row) for row in vectors.tolist()))
    if failure is not None:
        raise DegenerateFrameError(failure)
    return int(np.sign(det))


def oriented_frame(g: np.ndarray) -> np.ndarray:
    """Rows of a deterministic, positively oriented g-orthonormal frame.

    Coordinate basis vectors are orthonormalized in index order; the last
    vector is flipped if needed. Reproducible across runs by construction.
    """
    frame = orthonormalize(g, [], complete=True)
    if orientation_sign(frame) < 0:
        frame[3] = -frame[3]
    return frame


# ------------------------------------------------- covariant differentiation


def _at_least_one(x):
    """max(1, x) per entry, as Python's max(1.0, x) takes it: 1 where x is NaN."""
    return np.fmax(x, 1.0)


def _resolved(x: np.ndarray, X: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether the nearest central node x + t/2 X moves further than one
    machine epsilon of the point's scale max(1, |x|), per row of a stack."""
    return (0.5 * t * np.max(np.abs(X), axis=-1)
            > MACHINE_EPS * _at_least_one(np.max(np.abs(x), axis=-1)))


def central_nodes(x, X, t) -> tuple:
    """Nodes x + s X of the central stencil, for s = t, -t, t/2, -t/2 in that order.

    x and X are a point and a vector, or stacks of them on the last axis
    with one step per row in t. A difference across nodes within one
    machine epsilon of the point's scale max(1, |x|) measures rounding
    only; a node may even coincide with x. So a step whose nearest node
    moves no further than that raises GeometryError naming the point and
    the step, those of the first such row of a stack.
    """
    x, X, t = np.asarray(x, dtype=float), np.asarray(X, dtype=float), np.asarray(t, dtype=float)
    resolved = _resolved(x, X, t)
    if not resolved.all():
        i = np.argmin(resolved)
        raise GeometryError(
            f"finite difference step {t.flat[i]:.3e} is below the resolution at "
            f"{x.reshape(-1, x.shape[-1])[i].tolist()}")
    full, half = t[..., None], 0.5 * t[..., None]
    return x + full * X, x - full * X, x + half * X, x - half * X


def central_difference(values: Sequence[np.ndarray], t) -> np.ndarray:
    """Richardson-extrapolated central difference from the values at the
    central_nodes with step t: the derivative along X, error O(t^4). Over
    a stack, t holds the step of each row and the values gain a leading
    stack axis."""
    f_p, f_m, f_hp, f_hm = (np.asarray(v, dtype=float) for v in values)
    if np.ndim(t):
        t = np.reshape(t, np.shape(t) + (1,) * (f_p.ndim - np.ndim(t)))
    d_full = (f_p - f_m) / (2.0 * t)
    d_half = (f_hp - f_hm) / t
    return (4.0 * d_half - d_full) / 3.0


def covariant_difference(values: Sequence[np.ndarray], value: np.ndarray,
                         gamma: np.ndarray, X: np.ndarray, t) -> np.ndarray:
    """Covariant derivative along the chart vector X from field values at
    the central_nodes with step t and at the point.

    gamma holds the Christoffel symbols at the point; the field must be a
    vector or a (1,1)-tensor. Over a stack of points every argument gains
    a leading stack axis, t holds the step of each point, and each row
    equals, bit for bit, the derivative at its point alone.
    """
    partial = central_difference(values, t)
    val = np.asarray(value, dtype=float)
    rank = val.ndim - (np.ndim(gamma) - 3)
    if rank == 1:
        return partial + np.einsum("...kij,...i,...j->...k", gamma, X, val)
    if rank == 2 and val.shape[-2:] == (4, 4):
        corr = (np.einsum("...ikm,...k,...mj->...ij", gamma, X, val)
                - np.einsum("...mkj,...k,...im->...ij", gamma, X, val))
        return partial + corr
    raise ValueError("field must produce a vector or a (1,1) tensor")


def stencil(metric: ChartMetric, m, directions, steps: Sequence[float | None]) -> tuple:
    """(t, nodes): the steps, (n,), and the central_nodes, (n, 4, 4) in their
    order, of the derivative stencils through an (n, 4) stack of points m,
    each along its nonzero direction with its step (None: DEFAULT_FD_STEP
    scaled to the point), every node checked to lie inside the chart domain.

    A row equals, bit for bit, the stencil of its point alone. When rows
    fail, the first failing row raises the error of its first failed check,
    as in a loop over the rows.
    """
    m = np.asarray(m, dtype=float)
    X = np.asarray(directions, dtype=float)
    default = DEFAULT_FD_STEP * _at_least_one(np.max(np.abs(m), axis=-1))
    h = np.array([d if step is None else step for step, d in zip(steps, default)],
                 dtype=float)
    # the norm as np.linalg.norm takes it: a dot product of the vector with itself
    xn = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])
    t = h / _at_least_one(xn)
    # a zero direction leaves its step unresolved; the rows before the first
    # unresolved one are checked against the domain first
    unresolved = np.flatnonzero(~_resolved(m, X, t))
    k = unresolved[0] if len(unresolved) else len(m)
    nodes = np.stack(central_nodes(m[:k], X[:k], t[:k]), axis=1)
    metric.require_inside(nodes)
    if k < len(m):
        if xn[k] == 0:
            raise ValueError("direction must be nonzero")
        central_nodes(m[k], X[k], t[k])  # raises the row's resolution failure
    return t, nodes


def covariant_derivative(metric: ChartMetric, field: Callable[[np.ndarray], np.ndarray],
                         m, direction, step: float | None = None) -> np.ndarray:
    """Covariant derivative of a vector or (1,1)-tensor field along a vector.

    The field is sampled on a Richardson-extrapolated central stencil along
    the straight coordinate line through m; Christoffel corrections use exact
    metric derivatives when the metric provides them.
    """
    m = np.asarray(m, dtype=float)
    X = np.asarray(direction, dtype=float)
    t, nodes = stencil(metric, m[None], X[None], [step])
    return covariant_difference([field(x) for x in nodes[0]], field(m),
                                christoffel(metric, m), X, t[0])
