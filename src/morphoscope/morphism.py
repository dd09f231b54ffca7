"""Pointwise analysis of maps to a surface: conformality, frames, tension.

The target is the Euclidean plane, so the 2x2 Gram matrix dF g^{-1} dF^T
of the differential drives everything: its larger eigenvalue is the squared
pointwise dilation, its distance to a multiple of the identity tests
horizontal conformality, and its inverse gives the vertical projector
I - g^{-1} dF^T (dF g^{-1} dF^T)^{-1} dF onto ker dF. Frames are constructed
deterministically so repeated runs and neighbouring points agree: the
vertical frame is (v1, J+ v1), with v1 the first projected coordinate axis,
so J+ alone fixes its orientation.

All of it comes from one record, `GeometryStack`, the geometry of a stack
of points built in one pass over the stack (`stack_pass`); a point alone
is the stack of one, and every reader takes a stack and its row indices.
The tension, the splitting, the structures J+ and J- and the first jets of
the vertical projector and of the structures are derived over the whole
stack when they are first read. A point that fails a step of the pass, the
structures or the splitting keeps its first failure in a failure column and
leaves the other rows; the splitting's column extends that of the
structures, which extends that of the pass. `geometry_stack` raises the
first failure of the pass, and `GeometryStack.check` that of a row. The
jets are exact: the product rule over g, dg, the Christoffel symbols, dF
and the Hessians of F, with no geometry built at any other point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .calculus import MorphismScenario
from .errors import ClassificationError, DegenerateFrameError, GeometryError
from .geometry import FailureColumn, MetricPoint, first_seed, metric_rows
from .structures import gram_jet, structure_jets

EPS_CRITICAL = 1e-9


def along(jets: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """X^k jet_k, (n, 4, 4), for each row of a stack of jets, (n, 4, 4, 4) with
    the derivative index k first, along its own direction X, (n, 4)."""
    return (directions[:, None, :] @ jets.reshape(-1, 4, 16)).reshape(-1, 4, 4)


@dataclass(eq=False)
class GeometryStack:
    """The map's pointwise geometry at a stack of points, one row per point:
    the chart metric record of the whole (n, 4) stack, whose inverse,
    derivatives and Christoffel symbols it derives for every point at once,
    the differential, and the conformality data of every point (the Gram
    matrix `conformal` = dF g^{-1} dF^T, half its trace, its larger
    eigenvalue's square root `dilation_sup` and its Frobenius distance to its
    conformal part), and what is derived from them over the stack when it is
    first read: the tension, the splitting, the structures J+ and J-, one
    Gram jet (d_k g^{-1}, the Gram matrix, its inverse and d_k of it), and
    the exact first jets of the vertical projector and of the structures,
    which both read that one Gram jet; `failures` is the pass's column."""

    scenario: MorphismScenario
    metric: MetricPoint
    jac: np.ndarray
    failures: FailureColumn
    conformal: np.ndarray
    squared_dilation: np.ndarray
    dilation_sup: np.ndarray
    defect: np.ndarray

    @property
    def regular(self) -> np.ndarray:
        """Whether each point's dilation sup is not below EPS_CRITICAL; a sup
        that overflowed to NaN is regular, so the defect check rejects it."""
        return ~(self.dilation_sup < EPS_CRITICAL)

    @property
    def dilation(self) -> np.ndarray:
        """The averaged dilation of each point, the square root of half the
        trace of `conformal`."""
        return np.sqrt(np.maximum(self.squared_dilation, 0.0))

    @cached_property
    def hessians(self) -> np.ndarray:
        """The Hessians of the map at every point, which the tension and the
        jets both read."""
        return self.scenario.hessians(self.metric.point)

    @cached_property
    def tension(self) -> np.ndarray:
        """Tension of the map at each point, exact from polynomial jets.

        Target Christoffel symbols vanish because the target is Euclidean,
        so the tension is the metric trace of the chart Hessians corrected
        by the domain connection.
        """
        ginv, jac = self.metric.inverse, self.jac
        contracted = np.einsum("...ij,...kij->...k", ginv, self.metric.gamma)
        return (np.einsum("...ij,...aij->...a", ginv, self.hessians)
                - (contracted[:, None, None, :] @ jac[..., None])[..., 0, 0])

    @cached_property
    def tension_norm(self) -> np.ndarray:
        tau = self.tension
        # an overflowing or NaN norm is silent, and validate_morphism rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            return np.sqrt((tau[:, None, :] @ tau[..., None])[:, 0, 0])

    @cached_property
    def splitting(self) -> tuple:
        """(horizontal, vertical, vertical projector, horizontal projector,
        failures) of every point.

        Horizontal rows (e1, e2), (n, 2, 4), map to the target frame (1, i)
        under the differential scaled by the dilation; vertical rows (v1, v2)
        span the kernel, with v2 = J+ v1, so (e1, e2, v1, v2) is positive
        with respect to the scenario orientation as J+ is.

        Each step runs once over the stack: one solve for e1 and e2, one
        for P_V = I - G A^T (A G A^T)^{-1} A (A = dF, G = g^{-1}, A G A^T =
        `conformal`), as `projector_jet` differentiates it, and v1, the
        first projected coordinate axis that keeps its rank, divided by its
        g-norm (first_seed), with overflows non-finite and silent. A point
        that fails a step does not stop the others: failures is the column
        of the structures extended by the rank of v1, and the rows of a
        failed point hold no frame.
        """
        points, g, G = self.metric.point, self.metric.g, self.metric.inverse
        failures = self.structures[-1].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            graw = failures.neutral(self.conformal, np.eye(2))
            # e1 and e2 map to the target frame (1, 0) and (0, 1) under the
            # differential scaled by the dilation; every product below takes
            # one vector at a time, as for a point alone
            lam = self.dilation[:, None, None, None]
            coeffs = np.linalg.solve(graw[:, None], lam * np.eye(2)[:, :, None])
            lifted = G @ self.jac.swapaxes(-1, -2)
            horizontal = (lifted[:, None] @ coeffs)[..., 0]
            p_hor = lifted @ np.linalg.solve(graw, self.jac)
            p_vert = np.eye(4) - p_hor
            # the vertical parts of the coordinate axes, each measured
            # against the axis's own g-norm, so the rank test does not
            # depend on the scale of the metric
            axes = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
            v1, kept = first_seed(g, p_vert.swapaxes(-1, -2), axes)
            vertical = np.stack([v1, (self.structure(1) @ v1[..., None])[..., 0]], axis=1)
        failures.reject(~kept, DegenerateFrameError,
                        lambda i: f"vertical frame construction lost rank at "
                                  f"{points[i].tolist()}")
        return horizontal, vertical, p_vert, p_hor, failures

    @cached_property
    def structures(self) -> tuple:
        """(J+, J-, failures) of every point, with no frame: -G (w +- o *w)
        by structures.structure_jets for the unit horizontal 2-form w = dF1 ^
        dF2 / |dF1 ^ dF2|_g and the orientation o, bit for bit the J of
        `structure_jets`.

        failures is the pass's column extended, in order, by a conformality
        defect that overflows, a point that is not regular, a Gram matrix M
        = `conformal` with det M <= 0 or overflowing, which neither the
        splitting's solves nor sqrt(det M) take, and a J that is not finite;
        a failed point reads the differential (I 0).
        """
        points = self.metric.point
        failures = self.failures.copy()
        failures.reject(~np.isfinite(self.defect), GeometryError,
                        lambda i: f"conformality defect overflows at {points[i].tolist()}")
        failures.reject(~self.regular, ClassificationError,
                        lambda i: f"splitting needs a regular point; dilation "
                                  f"{self.dilation_sup[i]:.3e} at {points[i].tolist()}")
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(self.conformal)
        failures.reject(~(det > 0), DegenerateFrameError,
                        lambda i: f"horizontal Gram matrix is singular at {points[i].tolist()}")
        failures.reject(det == np.inf, GeometryError,
                        lambda i: f"horizontal Gram determinant overflows at {points[i].tolist()}")
        o = self.scenario.orientation
        J = structure_jets(failures.neutral(self.jac, np.eye(2, 4)), self.metric.g,
                           self.metric.inverse, (o, -o))
        failures.reject(~np.isfinite(J).all(axis=(0, -2, -1)), GeometryError,
                        lambda i: f"structures J+ and J- are not finite at {points[i].tolist()}")
        return (*J, failures)

    def structure(self, orientation: int) -> np.ndarray:
        """J+ (orientation 1) or J- of every point."""
        return self.structures[0 if orientation == 1 else 1]

    @cached_property
    def _jet_inputs(self) -> tuple:
        """(d_k A, d_k g, Gamma_k) of every point, k on the second axis, for
        A = dF and (Gamma_k)^a_b = Gamma^a_{bk}."""
        dA = np.moveaxis(self.hessians, -1, 1)
        return dA, self.metric.dg, np.moveaxis(self.metric.gamma, -1, 1)

    @cached_property
    def gram_jet(self) -> tuple:
        """(d_k G, M, M^{-1}, d_k M) of every point, see structures.gram_jet:
        the Gram jet that projector_jet and structure_jets both read. M is
        the identity at the points whose splitting failed; entries that
        overflow come out non-finite, without a warning."""
        dA, dg, _ = self._jet_inputs
        with np.errstate(over="ignore", invalid="ignore"):
            return gram_jet(self.jac, dA, self.metric.inverse, dg, self.splitting[-1].failed)

    @cached_property
    def projector_jet(self) -> np.ndarray:
        """nabla_k P_V of every point, (n, 4, 4, 4) with k first, exact.

        P_V = I - G A^T N A with G = g^{-1}, N = M^{-1} and M = A G A^T, so
        d_k P_V follows by the product rule, with d_k N = -N (d_k M) N, and
        nabla_k P_V = d_k P_V + [Gamma_k, P_V].
        """
        dA, _, gamma = self._jet_inputs
        G = self.metric.inverse
        dG, _, N, dM = self.gram_jet
        C, D = N @ self.jac, N @ self.jac @ G
        p_vert = self.splitting[2][:, None]
        # d_k (G A^T N A) = d_k (A G)^T C + D^T (d_k A - d_k M C)
        dB = dA @ G[:, None] + self.jac[:, None] @ dG
        dQ = (dB.swapaxes(-1, -2) @ C[:, None]
              + D.swapaxes(-1, -2)[:, None] @ (dA - dM @ C[:, None]))
        return gamma @ p_vert - p_vert @ gamma - dQ

    @cached_property
    def structure_jets(self) -> tuple:
        """The first jets (J, nabla J) of J+ and of J- at every point, exact:
        J is (n, 4, 4) and nabla J is (n, 4, 4, 4) with nabla_k J first.

        The rule of `structures`, with its jet along the coordinate axes.
        """
        dA, dg, gamma = self._jet_inputs
        o = self.scenario.orientation
        return tuple(structure_jets(self.jac, self.metric.g, self.metric.inverse, (o, -o),
                                    (dA, dg, gamma), self.gram_jet))

    def check(self, index: int) -> None:
        """Raise the first failure of point `index`, of the pass, its
        structures or its splitting, if it failed."""
        self.splitting[-1].raise_first([index])


def geometry_stack(scenario: MorphismScenario, points) -> GeometryStack:
    """The geometry of a stack of points, in order, built in one pass (see
    stack_pass), raising the failure of its first failing point: the error
    of a loop over the points, each point's first failed step."""
    stack = stack_pass(scenario, points)
    stack.failures.raise_first()
    return stack


def stack_pass(scenario: MorphismScenario, points) -> GeometryStack:
    """The geometry of a stack of points, in order, built in one pass that
    raises for no point.

    Each step runs once over the whole (n, 4) stack: the metric with its
    checks and inverse (metric_rows), the differential and its check, and
    the conformality data, read from the Gram matrix dF g^{-1} dF^T with no
    decomposition; the Christoffel symbols and the tension follow when they
    are first read (see GeometryStack). Each row equals, bit for bit, what
    the same steps give for its point alone. A point that fails a step keeps
    its first failure, naming it, in the failure column and reads the
    identity metric and the differential (I 0) from then on: it is regular,
    and no later step fails on it.
    """
    points = np.array(points, dtype=float, order="C").reshape(-1, 4)
    failures = FailureColumn(np.zeros(len(points), dtype=bool))
    metric = metric_rows(scenario.metric, points, failures)
    jac = scenario.jacobian(metric.point)
    failures.reject(~np.isfinite(jac).all(axis=(-2, -1)), GeometryError,
                    lambda i: f"differential is not finite at {points[i].tolist()}")
    jac = failures.neutral(jac, np.eye(2, 4))

    # entries that overflow come out non-finite, without a warning: the
    # check of the defect rejects those rows
    with np.errstate(over="ignore", invalid="ignore"):
        conformal = jac @ metric.inverse @ jac.swapaxes(-1, -2)
        squared_dilation = 0.5 * conformal.trace(axis1=-2, axis2=-1)
        # the larger eigenvalue of the Gram matrix: half its trace plus half
        # its eigenvalue gap, two terms that are not negative, so none cancel
        gap = np.hypot(0.5 * (conformal[:, 0, 0] - conformal[:, 1, 1]),
                       0.5 * (conformal[:, 0, 1] + conformal[:, 1, 0]))
        dilation_sup = np.sqrt(np.maximum(squared_dilation + gap, 0.0))
        offset = (conformal - squared_dilation[:, None, None] * np.eye(2)).reshape(-1, 1, 4)
        # the Frobenius norm as np.linalg.norm takes it: a dot product of
        # the flattened matrix with itself
        defect = np.sqrt((offset @ offset.swapaxes(-1, -2))[:, 0, 0])
    return GeometryStack(scenario=scenario, metric=metric, jac=jac, failures=failures,
                         conformal=conformal, squared_dilation=squared_dilation,
                         dilation_sup=dilation_sup, defect=defect)


def hwc_residual(scenario: MorphismScenario, m) -> GeometryStack:
    """The stack of one point m, read for its conformality defect."""
    return geometry_stack(scenario, [m])


def classify_point(scenario: MorphismScenario, m) -> GeometryStack:
    """The stack of one point m, read for its status."""
    return geometry_stack(scenario, [m])


def splitting(scenario: MorphismScenario, m) -> GeometryStack:
    """The stack of one point m, read for its splitting."""
    return geometry_stack(scenario, [m])


def tension_norm(scenario: MorphismScenario, m) -> GeometryStack:
    """The stack of one point m, read for its tension norm."""
    return geometry_stack(scenario, [m])


def fiber_mean_curvature(stack: GeometryStack) -> np.ndarray:
    """Mean curvature vector of the fiber through every point, (n, 4).

    Sums the horizontal parts of (nabla_v P_V) v over the vertical frame
    vectors v, which are those of nabla_v v: P_V v = v along the fiber. The
    result is frame independent because the vertical frame is orthonormal.
    A row whose splitting failed holds no mean curvature.
    """
    _, vertical, _, p_hor, _ = stack.splitting
    jet = stack.projector_jet
    return sum((p_hor @ (along(jet, v) @ v[..., None]))[..., 0] for v in vertical.swapaxes(0, 1))


def validate_morphism(scenario: MorphismScenario, points: Sequence[np.ndarray]) -> tuple:
    """The geometry stack of the points, with the largest conformality
    defect and the largest tension norm over the regular ones, read as
    columns of the stack.

    A defect or tension norm that is not finite raises GeometryError naming
    the first such point in order. Returns (stack, max_defect, max_tension).
    """
    stack = geometry_stack(scenario, points)
    finite = np.isfinite(stack.defect) & np.isfinite(stack.tension_norm)
    if not finite.all():
        first = stack.metric.point[np.argmin(finite)]
        raise GeometryError(
            f"conformality defect or tension is not finite at {first.tolist()}")
    regular = stack.regular
    max_defect = max([0.0, *stack.defect[regular].tolist()])
    max_tension = max([0.0, *stack.tension_norm[regular].tolist()])
    return stack, max_defect, max_tension
