"""Pointwise analysis of maps to a surface: conformality, frames, tension.

The target is the Euclidean plane, so the gauge-normalized differential
M = dF g^{-1/2} drives everything: its singular values give the pointwise
dilation, its rows test horizontal conformality, and its kernel is the
vertical space. Frames are constructed deterministically so repeated runs
and neighbouring points agree.

All of it comes from one record, `GeometryStack`, the geometry of a stack
of points built in one pass over the stack (`geometry_stack`); a point alone
is the stack of one, and every reader takes a stack and its row indices.
The tension, the splitting, the structures J+ and J- and the first jets of
the vertical projector and of the structures are derived over the whole
stack when they are first read; a point where the splitting fails keeps its
failure, which `GeometryStack.check` raises, and leaves the other rows. The
jets are exact: the product rule over g, dg, the Christoffel symbols, dF
and the Hessians of F, with no geometry built at any other point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .calculus import MorphismScenario
from .errors import ClassificationError, DegenerateFrameError, DomainError, GeometryError
from .geometry import (MetricPoint, frame_orientations, metric_point, orthonormal_stack,
                       point_name)
from .structures import K_MINUS, K_PLUS, gram_jet, structure_jets

EPS_CRITICAL = 1e-9


def along(jets: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """X^k jet_k, (n, 4, 4), for each row of a stack of jets, (n, 4, 4, 4) with
    the derivative index k first, along its own direction X, (n, 4)."""
    return (directions[:, None, :] @ jets.reshape(-1, 4, 16)).reshape(-1, 4, 4)


@dataclass(eq=False)
class GeometryStack:
    """The map's pointwise geometry at a stack of points, one row per point:
    the chart metric record of the whole (n, 4) stack, whose derivatives and
    Christoffel symbols it derives for every point at once, the differential
    and the gauge decomposition of every point (the singular values and the
    rows of V^T of dF g^{-1/2}, the Gram matrix `conformal` of dF g^{-1/2},
    half its trace and its Frobenius distance to its conformal part), and
    what is derived from them over the stack when it is first read: the
    tension, the splitting, the structures J+ and J- and the exact first
    jets of the vertical projector and of the structures."""

    scenario: MorphismScenario
    metric: MetricPoint
    jac: np.ndarray
    ginv: np.ndarray         # g^{-1/2} g^{-1/2}
    ginvsqrt: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    conformal: np.ndarray
    squared_dilation: np.ndarray
    defect: np.ndarray

    @property
    def regular(self) -> np.ndarray:
        """Whether each point is regular: its largest singular value, the
        dilation sup, reaches EPS_CRITICAL."""
        return self.singular_values[:, 0] >= EPS_CRITICAL

    @property
    def dilation(self) -> np.ndarray:
        """The averaged dilation of each point, the square root of half the
        trace of `conformal`."""
        return np.sqrt(np.maximum(self.squared_dilation, 0.0))

    @cached_property
    def tension(self) -> np.ndarray:
        """Tension of the map at each point, exact from polynomial jets.

        Target Christoffel symbols vanish because the target is Euclidean,
        so the tension is the metric trace of the chart Hessians corrected
        by the domain connection.
        """
        ginv, jac = self.ginv, self.jac
        contracted = np.einsum("...ij,...kij->...k", ginv, self.metric.gamma)
        return (np.einsum("...ij,...aij->...a", ginv, self.scenario.hessians(self.metric.point))
                - (contracted[:, None, None, :] @ jac[..., None])[..., 0, 0])

    @cached_property
    def tension_norm(self) -> np.ndarray:
        tau = self.tension
        # a NaN tension stays NaN, so validate_morphism rejects it
        return np.sqrt((tau[:, None, :] @ tau[..., None])[:, 0, 0])

    @cached_property
    def splitting(self) -> tuple:
        """(horizontal, vertical, vertical projector, horizontal projector,
        failures) of every point.

        Horizontal rows (e1, e2), (n, 2, 4), map to the target frame (1, i)
        under the differential scaled by the dilation; vertical rows (v1, v2)
        span the kernel, oriented so (e1, e2, v1, v2) is positive with
        respect to the scenario orientation.

        Each step runs once over the stack: one solve for e1 and e2, the
        kernel from the rows of the gauge SVD, a Gram-Schmidt of the
        projected coordinate axes (orthonormal_stack) and the orientation
        flip. A point that fails a step does not stop the others:
        failures[i] is None, or the error type and the message, naming the
        point, of point i's first failed step, and its rows hold no frame.
        """
        points, g = self.metric.point, self.metric.g
        failures = [None] * len(points)

        def fail(rows, error, reason):
            for i in rows:
                if failures[i] is None:
                    failures[i] = error, f"{reason} at {points[i].tolist()}"

        for i in np.flatnonzero(~self.regular):
            fail([i], ClassificationError, f"splitting needs a regular point; dilation "
                                           f"{self.singular_values[i, 0]:.3e}")
        jac_t = self.jac.swapaxes(-1, -2)
        graw = self.jac @ self.ginv @ jac_t
        # sign 0: the LU factorization that solve runs has a zero pivot
        fail(np.flatnonzero(np.linalg.slogdet(graw)[0] == 0), DegenerateFrameError,
             "horizontal Gram matrix is singular")
        graw[[f is not None for f in failures]] = np.eye(2)
        # e1 and e2 map to the target frame (1, 0) and (0, 1) under the
        # differential scaled by the dilation; every product below takes
        # one vector at a time, as for a point alone
        lam = self.dilation[:, None, None, None]
        coeffs = np.linalg.solve(graw[:, None], lam * np.eye(2)[:, :, None])
        horizontal = ((self.ginv @ jac_t)[:, None] @ coeffs)[..., 0]

        # kernel of the gauge matrix: the two bottom right-singular directions
        kernel = (self.ginvsqrt[:, None] @ self.right_vectors[:, 2:, :, None])[..., 0]
        k1, k2 = kernel[:, 0], kernel[:, 1]
        p_vert = (k1[:, :, None] * k1[:, None, :] + k2[:, :, None] * k2[:, None, :]) @ g
        p_hor = np.eye(4) - p_vert
        # the vertical parts of the coordinate axes, each measured against
        # the axis's own g-norm, so the rank test does not depend on the
        # scale of the metric
        axes = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
        vertical, count = orthonormal_stack(g, p_vert.swapaxes(-1, -2), 2, axes)
        fail(np.flatnonzero(count < 2), DegenerateFrameError,
             "vertical frame construction lost rank")
        signs, reasons = frame_orientations(np.concatenate([horizontal, vertical], axis=1))
        for i, reason in enumerate(reasons):
            if reason is not None:
                fail([i], DegenerateFrameError, reason)
        vertical[signs * self.scenario.orientation < 0, 1] *= -1.0
        fail(np.flatnonzero(~np.isfinite(self.defect)), GeometryError,
             "conformality defect overflows")
        return horizontal, vertical, p_vert, p_hor, failures

    @cached_property
    def structures(self) -> tuple:
        """(J+, J-) of every point: the standard structures K+ and K-
        carried by the frames (e1, e2, v1, v2), from one inverse of the
        stack of adapted bases. The basis of a point whose splitting failed
        is replaced by the identity, so it cannot fail the inverse."""
        horizontal, vertical, _, _, failures = self.splitting
        B = np.concatenate([horizontal, vertical], axis=1).swapaxes(-1, -2)
        B[[f is not None for f in failures]] = np.eye(4)
        Binv = np.linalg.inv(B)
        return B @ K_PLUS @ Binv, B @ K_MINUS @ Binv

    def structure(self, orientation: int) -> np.ndarray:
        """J+ (orientation 1) or J- of every point."""
        return self.structures[0 if orientation == 1 else 1]

    @cached_property
    def _jet_inputs(self) -> tuple:
        """(d_k A, d_k g, Gamma_k, failed) of every point, k on the second
        axis, for A = dF and (Gamma_k)^a_b = Gamma^a_{bk}; failed marks the
        points whose splitting failed."""
        dA = np.moveaxis(self.scenario.hessians(self.metric.point), -1, 1)
        failed = [f is not None for f in self.splitting[-1]]
        return dA, self.metric.dg, np.moveaxis(self.metric.gamma, -1, 1), failed

    @cached_property
    def projector_jet(self) -> np.ndarray:
        """nabla_k P_V of every point, (n, 4, 4, 4) with k first, exact.

        P_V = I - G A^T N A with G = g^{-1}, N = M^{-1} and M = A G A^T, so
        d_k P_V follows by the product rule, with d_k N = -N (d_k M) N, and
        nabla_k P_V = d_k P_V + [Gamma_k, P_V].
        """
        dA, dg, gamma, failed = self._jet_inputs
        G = self.ginv
        dG, _, N, dM = gram_jet(self.jac, dA, G, dg, failed)
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

        J+ and J- are -G (w + o *w) and -G (w - o *w), see
        structures.structure_jets: w is the unit horizontal 2-form dF1 ^ dF2
        / |dF1 ^ dF2|_g and o the scenario orientation. This form equals
        `structures`.
        """
        dA, dg, gamma, failed = self._jet_inputs
        o = self.scenario.orientation
        return tuple(structure_jets(self.jac, dA, self.metric.g, dg, gamma, self.ginv,
                                    (o, -o), failed))

    def check(self, index: int) -> None:
        """Raise the failure of point `index`'s splitting, if it failed."""
        failure = self.splitting[-1][index]
        if failure is not None:
            error, message = failure
            raise error(message)


def geometry_stack(scenario: MorphismScenario, points) -> GeometryStack:
    """The geometry of a stack of points, in order, built in one pass.

    Each step below runs once over the whole (n, 4) stack: the domain
    check, the metric and its check, the differential, the square roots of
    the metric, the gauge matrix and its SVD, the inverse metric and the
    conformality data; the Christoffel symbols and the tension follow, for
    the whole stack, when they are first read (see GeometryStack). Each
    row equals, bit for bit, what the same steps give for its point alone.

    A point outside the domain raises DomainError; non-finite metric or
    differential entries and failed checks or decompositions raise
    GeometryError, so no input reaches the callers as a bare numerical
    failure. When a step fails, each point of the stack is passed again on
    its own, so the error raised is that of the first failing point and of
    its first failing step, as in a loop over the points.
    """
    points = np.array(points, dtype=float, order="C").reshape(-1, 4)
    try:
        return _stack_pass(scenario, points)
    except (DomainError, GeometryError):
        for i in range(len(points)):
            _stack_pass(scenario, points[i:i + 1])
        raise


def _stack_pass(scenario: MorphismScenario, points: np.ndarray) -> GeometryStack:
    metric = metric_point(scenario.metric, points)
    jac = scenario.jacobian(points)
    try:
        ginvsqrt = metric.sqrt_pair[1]
        gauge = jac @ ginvsqrt
        if not np.all(np.isfinite(gauge)):
            raise GeometryError(f"differential is not finite at {point_name(points)}")
        _, sv, vt = np.linalg.svd(gauge, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(
            f"gauge decomposition failed at {point_name(points)}: {exc}") from None
    metric.inverse  # derived here, so a singular metric fails in the pass
    ginv = ginvsqrt @ ginvsqrt

    conformal = gauge @ gauge.swapaxes(-1, -2)
    squared_dilation = 0.5 * conformal.trace(axis1=-2, axis2=-1)
    offset = (conformal - squared_dilation[:, None, None] * np.eye(2)).reshape(-1, 1, 4)
    # the Frobenius norm as np.linalg.norm takes it: a dot product of the
    # flattened matrix with itself
    defect = np.sqrt((offset @ offset.swapaxes(-1, -2))[:, 0, 0])
    return GeometryStack(scenario=scenario, metric=metric, jac=jac, ginv=ginv,
                         ginvsqrt=ginvsqrt, singular_values=sv, right_vectors=vt,
                         conformal=conformal, squared_dilation=squared_dilation,
                         defect=defect)


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
