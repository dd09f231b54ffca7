"""Chart metrics on four-dimensional coordinate boxes and pointwise geometry.

Every chart metric has exact first and second derivatives, in closed form
or, for a pullback by a polynomial map, by the chain rule from its base's.
Every metric evaluates at a point or over a stack of points, with the points
on the last axis. Curvature uses the convention

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

from ._linalg import spd_failures, spd_sqrt_pair
from .errors import DegenerateFrameError, DomainError, GeometryError
from .polynomials import UPPER, Jet, Poly, evaluate, evaluate_orders, mirrored, symmetric

DEFAULT_FD_STEP = 1e-5
FRAME_RANK_TOL = 1e-8
ORIENTATION_DET_TOL = 1e-12
MACHINE_EPS = float(np.finfo(float).eps)


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

    def matrix_checked(self, m) -> np.ndarray:
        return metric_point(self, m).g

    def record(self, m: np.ndarray) -> "MetricPoint":
        """The metric at a point or a stack m, unchecked, as metric_point keeps it."""
        return MetricPoint(self, m, self.matrix(m))


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

    Only the UPPER (i <= j) entries of the symmetric table are kept, as
    one jet; d_l d_k g_ij is read as g_ij differentiated by k, then by l.
    """

    def __init__(self, entries: Sequence[Sequence[Poly]], domain: Box):
        super().__init__(domain)
        self.upper = Jet((entries[i][j] for i, j in UPPER), range(3))

    def matrix(self, m):
        return symmetric(evaluate(self.upper, m).real)

    def first_derivatives(self, m):
        # (..., ij, k) -> (..., k, ij)
        return symmetric(evaluate(self.upper, m, 1).real.swapaxes(-1, -2))

    def second_derivatives(self, m):
        # (..., ij, k, l) -> (..., k, l, ij)
        return symmetric(np.moveaxis(evaluate(self.upper, m, 2).real, -3, -1))


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


class PullbackMetric(ChartMetric):
    """The metric dPhi^T (g o Phi) dPhi pulled back from the chart of `base`,
    any chart metric, by the polynomial map Phi with components `diffeo`.
    Its records (PulledPoint) hold the base's record at the image point."""

    def __init__(self, base: ChartMetric, diffeo: Sequence[Poly], domain: Box):
        super().__init__(domain)
        self.base, self.diffeo = base, Jet(diffeo, range(4))

    def record(self, m):
        # Phi, J[..., i, a] = d_a Phi_i and d_a d_b Phi_i, read from a <= b,
        # from one evaluation
        values, J, second = evaluate_orders(self.diffeo, m, range(3))
        J = np.ascontiguousarray(J.real)
        image = self.base.record(values.real)
        return PulledPoint(self, m, mirrored(J.swapaxes(-1, -2) @ (image.g @ J)), image, J,
                           mirrored(second.real).swapaxes(-3, -2))

    def matrix(self, m):
        return self.record(np.asarray(m, dtype=float)).g

    def first_derivatives(self, m):
        return self.record(np.asarray(m, dtype=float)).dg

    def second_derivatives(self, m):
        return self.record(np.asarray(m, dtype=float)).d2g


# ------------------------------------------------------------ metric point


@dataclass(eq=False)
class MetricPoint:
    """The chart metric at one point or an (n, 4) stack of points, evaluated once.

    `metric_rows` checks the domain and the matrix of each point when it
    builds one, and sets the inverse. The derivatives, the Christoffel
    symbols, the square roots and the lowered curvature are derived on first
    use, over the whole stack, and then kept; `at(i)` hands point i its rows
    of dg, the inverse and the Christoffel symbols.
    """

    metric: ChartMetric
    point: np.ndarray
    g: np.ndarray

    def at(self, i: int) -> "MetricPoint":
        """Point i of a stack, handed its rows of dg, inverse and gamma."""
        mp = self._row(i)
        mp.inverse, mp.gamma = self.inverse[i], self.gamma[i]
        return mp

    def _row(self, i: int) -> "MetricPoint":
        mp = MetricPoint(self.metric, self.point[i], self.g[i])
        mp.dg = self.dg[i]
        return mp

    @cached_property
    def dg(self) -> np.ndarray:
        """First derivatives, dg[..., k, :, :] = d_k g: the derivative index
        comes before the two matrix indices."""
        return self.metric.first_derivatives(self.point)

    @cached_property
    def d2g(self) -> np.ndarray:
        """Second derivatives, d2g[..., k, l, :, :] = d_k d_l g: the two
        derivative indices come before the two matrix indices."""
        return self.metric.second_derivatives(self.point)

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
        """Curvature with all indices lowered, R[..., i, j, k, p] = <R(d_i, d_j) d_k, d_p>.

        Each contraction over one index is a batched matrix product, its
        other indices flattened in pairs or triples: (16 x 4)(4 x 16) for
        Gamma Gamma and the d g^{-1} S term of d Gamma, (4 x 4)(4 x 16) for
        its g^{-1} dS term and (4 x 64)^T g for the lowering.
        """
        dg, d2g = self.dg, self.d2g
        ginv, S, gamma = self.inverse, _connection_sums(dg), self.gamma
        shape = self.g.shape[:-2]
        four = shape + (4, 4, 4, 4)

        def product(a, b):
            # sum_m a[..., x, y, m] b[..., m, z, w], as (16 x 4)(4 x 16)
            return (a.reshape(shape + (16, 4)) @ b.reshape(shape + (4, 16))).reshape(four)

        # dS[..., i, m, j, k] = d_i S[m, j, k]
        dS = np.einsum("...ijmk->...imjk", d2g) + np.einsum("...ikmj->...imjk", d2g) - d2g
        # dginv[..., i, :, :] = d_i g^{-1} = -g^{-1} (d_i g) g^{-1}
        dginv = -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])
        # dgamma[..., i, l, j, k] = d_i Gamma^l_{jk}
        dgamma = 0.5 * (product(dginv, S)
                        + (ginv[..., None, :, :] @ dS.reshape(shape + (4, 4, 16))).reshape(four))
        # R^l_{ijk}, upper[..., l, i, j, k]: curvature of the stated sign
        # convention; gg[..., l, i, j, k] = Gamma^l_{im} Gamma^m_{jk}
        gg = product(gamma, gamma)
        upper = (dgamma.swapaxes(-4, -3) - np.moveaxis(dgamma, -4, -2)
                 + gg - gg.swapaxes(-3, -2))
        return (upper.reshape(shape + (4, 64)).swapaxes(-1, -2) @ self.g).reshape(four)


@dataclass(eq=False)
class PulledPoint(MetricPoint):
    """A PullbackMetric's record: g = J^T G J and its derivatives by the chain rule."""

    image: MetricPoint = None   # the base's record at Phi(point)
    jac: np.ndarray = None      # jac[..., i, a] = d_a Phi_i
    hess: np.ndarray = None     # hess[..., c, i, a] = d_c d_a Phi_i

    def _row(self, i: int) -> "PulledPoint":
        mp = PulledPoint(self.metric, self.point[i], self.g[i], self.image._row(i), self.jac[i],
                         self.hess[i])
        mp.dg, mp._jets = self.dg[i], tuple(x[i] for x in self._jets)
        return mp

    @cached_property
    def _jets(self) -> tuple:
        """(G J, D): D[..., c] = d_c (G o Phi)."""
        J, dG = self.jac, self.image.dg
        D = (J.swapaxes(-1, -2) @ dG.reshape(J.shape[:-2] + (4, 16))).reshape(dG.shape)
        return self.image.g @ J, D

    @cached_property
    def dg(self) -> np.ndarray:
        # d_c g = M_c + M_c^T + J^T D_c J with M_c = H_c^T G J
        (GJ, D), H, J = self._jets, self.hess, self.jac[..., None, :, :]
        M = H.swapaxes(-1, -2) @ GJ[..., None, :, :]
        return mirrored(M + M.swapaxes(-1, -2) + J.swapaxes(-1, -2) @ (D @ J))

    @cached_property
    def d2g(self) -> np.ndarray:
        # d_c d_d g = N + N^T + J^T D_cd J with D_cd = d_c d_d (G o Phi), N =
        # T_cd^T G J + H_c^T (G H_d + D_d J) + H_d^T D_c J and T_cd = d_c d_d dPhi
        (GJ, D), H = self._jets, self.hess
        G, dG, d2G = self.image.g, self.image.dg, self.image.d2g
        shape, J = self.jac.shape[:-2], self.jac[..., None, :, :]
        JT, HT = J.swapaxes(-1, -2), H.swapaxes(-1, -2)[..., :, None, :, :]
        P = HT @ (D @ J)[..., None, :, :, :]
        N = HT @ (G[..., None, :, :] @ H)[..., None, :, :, :] + P + P.swapaxes(-3, -4)
        # T[..., i, c, a, b] = d_c d_a d_b Phi_i, read from a <= b
        T = mirrored(np.moveaxis(evaluate(self.metric.diffeo, self.point, 3).real, -1, -3))
        N += np.moveaxis(T, -4, -1) @ GJ[..., None, None, :, :]
        Dcd = (JT @ (JT[..., 0, :, :] @ d2G.reshape(shape + (4, 64))).reshape(shape + (4, 4, 16))
               + H.swapaxes(-1, -2) @ dG.reshape(shape + (1, 4, 16))).reshape(d2G.shape)
        return mirrored(N + N.swapaxes(-1, -2) + JT[..., None, :, :] @ Dcd @ J[..., None, :, :])


def _connection_sums(dg: np.ndarray) -> np.ndarray:
    # S[..., m, i, j] = d_i g_{mj} + d_j g_{mi} - d_m g_{ij}; not kept on
    # the record, whose readers each recompute it: on a large stack a kept
    # copy costs more in freshly faulted pages than the sums cost
    sums = np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg)
    sums -= dg
    return sums


def christoffel_symbols(inverse: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., k, i, j] = Gamma^k_{ij} from g^{-1} and the first
    derivatives dg[..., k, :, :] = d_k g, at a point or over a stack."""
    gamma = np.einsum("...km,...mij->...kij", inverse, _connection_sums(dg))
    gamma *= 0.5
    return gamma


@contextmanager
def named_at(m: np.ndarray):
    """Re-raise a GeometryError or DegenerateFrameError of the block with
    the point m named."""
    try:
        yield
    except (GeometryError, DegenerateFrameError) as exc:
        raise type(exc)(f"{exc} at {np.asarray(m).tolist()}") from None


def metric_point(metric: ChartMetric, m) -> MetricPoint:
    """The metric at a point or an (n, 4) stack m (see metric_rows), raising
    the failure of the first failing point."""
    m = np.asarray(m, dtype=float)
    failures = FailureColumn(np.zeros(m.size // 4, dtype=bool))
    mp = metric_rows(metric, m, failures)
    failures.raise_first()
    return mp


@dataclass
class FailureColumn:
    """The failures of the rows of a stack: `failed` flags the rows that
    failed a step, and `first[i]` is the error type and the message of row
    i's first failed step."""

    failed: np.ndarray
    first: dict = field(default_factory=dict)

    def copy(self) -> FailureColumn:
        """The same failures in a column of its own, to extend by more steps."""
        return FailureColumn(self.failed.copy(), dict(self.first))

    def reject(self, rows: np.ndarray, error: type, message: Callable[[int], str]) -> None:
        """Record the error, with the message message(i), for each row i that
        `rows` flags and that has no failure yet; only those messages are built."""
        if not rows.any():
            return
        new = np.flatnonzero(rows & ~self.failed)
        for i in new.tolist():
            self.first[i] = error, message(i)
        self.failed[new] = True

    def neutral(self, values: np.ndarray, value) -> np.ndarray:
        """values with each failed row replaced by value, so no stacked call
        on it raises or warns; values itself when no row failed."""
        if not self.failed.any():
            return values
        return np.where(self.failed.reshape((-1,) + (1,) * (values.ndim - 1)), value, values)

    def raise_first(self, rows=None) -> None:
        """Raise the failure of the first failed row among `rows`, in their
        order, or among all rows."""
        rows = np.flatnonzero(self.failed) if rows is None else np.asarray(rows)[self.failed[rows]]
        if len(rows):
            error, message = self.first[int(rows[0])]
            raise error(message)


def metric_rows(metric: ChartMetric, m: np.ndarray, failures: FailureColumn) -> MetricPoint:
    """The metric record of a point or an (n, 4) stack m with its inverse, no
    point raising. A point outside the domain, or whose matrix fails a check
    of spd_failures, records its first failure in the column; the record
    takes a point outside at its nearest point of the domain, and a failed
    point reads the identity as g and as its inverse."""
    domain, points = metric.domain, m.reshape(-1, 4)
    inside = domain.contains(points)
    failures.reject(~inside, DomainError,
                    lambda i: f"point {points[i].tolist()} leaves the chart domain (margin 0)")
    mp = metric.record(m if inside.all() else np.clip(m, domain.lo, domain.hi))
    for rows, reason in spd_failures(mp.g.reshape(-1, 4, 4)):
        failures.reject(rows, GeometryError,
                        lambda i: f"chart metric {reason} at {points[i].tolist()}")
    mp.g = failures.neutral(mp.g, np.eye(4))
    mp.inverse = np.linalg.inv(mp.g)
    return mp


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
    """Rows of a g-orthonormal frame built from the seeds in order, at one
    point: the reference that orthonormal_stack is tested against, and a
    layer of the benchmark tracer; no command calls it.

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
    failures = [None] * len(det)
    # the rows _orientation_failure rejects, flagged at once
    for i in np.flatnonzero(~np.isfinite(det) | (np.abs(det) <= ORIENTATION_DET_TOL * bound)):
        failures[i] = _orientation_failure(float(det[i]), float(bound[i]))
    return np.where(det > 0, 1, -1), failures


# ------------------------------------------------- covariant differentiation


def central_nodes(x, X, t: float) -> tuple:
    """Nodes x + s X of the central stencil, for s = t, -t, t/2, -t/2 in that order.

    A difference across nodes within one machine epsilon of the point's
    scale max(1, |x|) measures rounding only; a node may even coincide with
    x. So a step whose nearest node moves no further than that raises
    GeometryError naming the point and the step.
    """
    x, X = np.asarray(x, dtype=float), np.asarray(X, dtype=float)
    if not 0.5 * t * float(np.max(np.abs(X))) > MACHINE_EPS * max(1.0, float(np.max(np.abs(x)))):
        raise GeometryError(
            f"finite difference step {t:.3e} is below the resolution at {x.tolist()}")
    return x + t * X, x - t * X, x + 0.5 * t * X, x - 0.5 * t * X


def central_difference(values: Sequence[np.ndarray], t: float) -> np.ndarray:
    """Richardson-extrapolated central difference from the values at the
    central_nodes with step t: the derivative along X, error O(t^4)."""
    f_p, f_m, f_hp, f_hm = (np.asarray(v, dtype=float) for v in values)
    d_full = (f_p - f_m) / (2.0 * t)
    d_half = (f_hp - f_hm) / t
    return (4.0 * d_half - d_full) / 3.0


def covariant_derivative(metric: ChartMetric, field: Callable[[np.ndarray], np.ndarray],
                         m, direction, step: float | None = None) -> np.ndarray:
    """Covariant derivative of a vector or (1,1)-tensor field along a vector.

    The field is sampled on the Richardson central stencil along the straight
    coordinate line through m, every node inside the chart domain, with the
    step (default DEFAULT_FD_STEP times max(1, |m|)) over max(1, |X|); the
    Christoffel corrections use the exact metric derivatives at m.
    """
    m = np.asarray(m, dtype=float)
    X = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(X))
    if norm == 0:
        raise ValueError("direction must be nonzero")
    h = DEFAULT_FD_STEP * max(1.0, float(np.max(np.abs(m)))) if step is None else step
    t = h / max(1.0, norm)
    nodes = central_nodes(m, X, t)
    metric.require_inside(np.array(nodes))
    partial = central_difference([field(x) for x in nodes], t)
    value = np.asarray(field(m), dtype=float)
    gamma = christoffel(metric, m)
    if value.shape == (4,):
        return partial + np.einsum("kij,i,j->k", gamma, X, value)
    if value.shape == (4, 4):
        return partial + (np.einsum("ikm,k,mj->ij", gamma, X, value)
                          - np.einsum("mkj,k,im->ij", gamma, X, value))
    raise ValueError("field must produce a vector or a (1,1) tensor")
