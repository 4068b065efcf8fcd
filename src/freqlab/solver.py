"""Dirichlet solver for -div(A grad u) = 0 on disks.

The grid is polar with geometrically spaced radii, so in the logical
coordinates (s, theta) = (log r, theta) the cells form a uniform
rectangular lattice and every circle of grid radius is a grid line.  In
two dimensions the conformal factor cancels from the energy, leaving

    int <A grad u, grad u> dx = int <B g, g> ds dtheta,
    B(s, theta) = Q(theta)^T A(x) Q(theta),

with Q the rotation to the radial/tangential frame, so B inherits the
symmetry and eigenvalue bounds of A.  On each logical cell the discrete
energy uses the bilinear interpolant with the coefficient sampled at
the four face midpoints (one sample per control surface), which keeps
the assembled operator symmetric positive definite and is second-order
accurate for full tensors.  Constant data are reproduced exactly, and
a + b log r, linear in the logical radius, satisfies the equations of
every ring clear of the core; the Cartesian coordinates x, y are
reproduced to O(h^2).  The disk of radius r_min around the origin is a
single fan of linear triangles sharing one origin unknown, coupling the
core to the first ring without regularizing the equation.

The unknowns, numbered ring by ring with the origin last, are
solved for by conjugate gradients preconditioned with the ring-mean
operator: every cell and core-triangle matrix (potential mass included)
replaced by its band mean.  That is the mean of the operator over the
grid's n_theta rotations, so it is SPD whenever the operator is, and
equal to it for radial fields.  A real DFT in theta splits it into one
Hermitian tridiagonal system per mode, factored once per assembly.  An
iteration costs a product with the operator, two FFTs per ring and two
sweeps over the rings: O(n log n_theta) for n unknowns.

Whatever an assembly needs of its grid alone is built once per grid, in
a plan (``_Plan``; the two most recently used grids are kept, keyed by
their exact radii): the face samples with the cosines and sines of their
angles, the cell nodes and weights, the core triangles and the unknown
order.  A plan holds geometry only.  The operator is stored as the
stencil it is, one array per stencil place (the diagonal format of Saad,
*Iterative Methods for Sparse Linear Systems*, 3.4, with the angle axis
wrapped): ``stencil[p, i, j]`` couples node (i, j) to its neighbour at
place p = 3 d_ring + d_angle + 4 of its 3 x 3 (ring, angle)
neighbourhood, and place 9 couples ring 0 to the origin, whose own row
(ring 0, then itself) is kept apart.  ``k_ii`` and ``k_ib`` are the
rows of the unknowns against the unknowns or the boundary nodes, so one
product serves both: the stencil times the node values, laid out ring
by ring after a ring of zeros, with zeros on the nodes the product
leaves out.  An assembly takes the field's coefficient entries at the
face samples, one (cells, 4 k) @ (4 k, 16) product for the 4 x 4 cell
matrices and one slice add per local node pair (a, b) into the stencil.
A scalar field has k = 1 entry, a, and a matrix field k = 3, b_rr,
b_rt + b_tr and b_tt of B.  The identity field is not evaluated: its B
is exactly I, and all its cell matrices are one, held once.  numpy is
the program's only dependency.  Only plans are cached: an assembly
belongs to the solutions solved with it, and energies in a solution's
coefficient are read from that solution.

Every angle column is summed in the same order, so the product of a
constant field's operator commutes with rotation by a grid angle
exactly, but in the rows of ring 0, whose core triangles carry their
angles' roundoff.

The energy functional is evaluated in the same quadrature as the
assembly, from the coefficient entries an assembly keeps in place of
cell matrices, so the divergence-theorem identity
D(r) = int_{boundary} u <A grad u, nu> holds discretely to roundoff at
every grid radius.  The boundary mass H is Simpson's rule on the
piecewise-linear ring trace, a different rule, so the discrete
first-variation identity H' = (n-1) H / r + 2 D carries an O(dtheta^2)
consistency error (about dtheta^2 / 8 in N - 1 for Re z).

The discrete solution is a function everywhere in the grid's range:
``DiscreteSolution.evaluate`` is its bilinear interpolant in (log r,
theta), which takes the nodal values on the rings.  Every functional is
read from that function, never interpolated from functional values.
D (both forms), the volume mean and the gradient energies sum whole
cells, so they accept only grid radii and raise ValueError elsewhere.
H and h accept any radius in the range: between two rings the
interpolant's trace on the circle is still piecewise linear in theta,
so the same Simpson rule integrates the solution's own trace there.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .coefficients import Arity, CoefficientField, FieldError, mu_factor

__all__ = [
    "DiscreteSolution",
    "MAX_GRID_NODES",
    "PolarGrid",
    "SolverError",
    "boundary_mass",
    "boundary_mass_profile",
    "boundary_mass_scalar",
    "clear_operator_cache",
    "dirichlet_energy",
    "dirichlet_energy_flux",
    "energy_flux_profile",
    "gradient_energy",
    "gradient_mean_square",
    "solve_dirichlet",
    "volume_mean_square",
    "weighted_gradient_energy",
]


class SolverError(RuntimeError):
    """Linear solve left a large residual or the grid cannot host the problem."""


# -- grids ---------------------------------------------------------------

# The most ring nodes (n_r * n_theta) a grid may have: 2048 x 2048.  A
# solve peaks near 0.55 kB per node (306 MB at 513 x 1024), so one solve
# at the limit needs about 2.3 GB.  Larger grids are rejected before any
# array is built.
MAX_GRID_NODES = 1 << 22


def _check_grid_size(n_r: int, n_theta: int) -> None:
    if n_r * n_theta > MAX_GRID_NODES:
        raise ValueError(
            f"a grid of {n_r} x {n_theta} nodes exceeds the limit of "
            f"{MAX_GRID_NODES} ring nodes")


@dataclass(frozen=True)
class PolarGrid:
    """Structured polar grid: geometric radii, equispaced angles.

    ``radii`` ascend; node (i, j) sits at radius radii[i], angle
    2 pi j / n_theta.  One extra origin node closes the hole below
    radii[0].
    """

    radii: np.ndarray
    n_theta: int

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", r)
        if r.ndim != 1 or r.size < 2:
            raise ValueError("need at least two grid radii")
        if np.any(np.diff(r) <= 0) or r[0] <= 0:
            raise ValueError("radii must be positive and strictly increasing")
        if self.n_theta < 8:
            raise ValueError(f"need at least 8 angles, got {self.n_theta}")
        _check_grid_size(r.size, self.n_theta)
        s = np.log(r)
        steps = np.diff(s)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("radii must form a geometric progression")

    @classmethod
    def disk(cls, n_r: int, n_theta: int, radius: float = 1.0,
             r_min: Optional[float] = None) -> "PolarGrid":
        """Disk grid; without an explicit r_min the radial step equals
        the angular step, so cells are logically square."""
        if n_r < 2:
            raise ValueError("need at least two rings")
        _check_grid_size(n_r, n_theta)
        if r_min is None:
            r_min = radius * math.exp(-2.0 * math.pi * (n_r - 1) / n_theta)
        if not 0.0 < r_min < radius:
            raise ValueError(f"inner radius {r_min} outside (0, {radius})")
        s = np.linspace(math.log(r_min), math.log(radius), n_r)
        return cls(np.exp(s), n_theta)

    @property
    def n_r(self) -> int:
        return self.radii.size

    @property
    def r_in(self) -> float:
        return float(self.radii[0])

    @property
    def r_out(self) -> float:
        return float(self.radii[-1])

    @property
    def d_s(self) -> float:
        return float(math.log(self.radii[1] / self.radii[0]))

    @property
    def d_theta(self) -> float:
        return 2.0 * math.pi / self.n_theta

    @property
    def theta(self) -> np.ndarray:
        return self.d_theta * np.arange(self.n_theta)

    @property
    def node_count(self) -> int:
        return self.n_r * self.n_theta + 1

    def ring_points(self, i: int) -> np.ndarray:
        th = self.theta
        return self.radii[i] * np.stack([np.cos(th), np.sin(th)], axis=1)

    def nearest_ring(self, r: float) -> int:
        if not self.radii[0] * (1 - 1e-9) <= r <= self.radii[-1] * (1 + 1e-9):
            raise ValueError(
                f"radius {r} outside grid range "
                f"[{self.radii[0]:.6g}, {self.radii[-1]:.6g}]")
        return int(np.argmin(np.abs(np.log(self.radii) - math.log(r))))

    def on_ring(self, r: float, rel_tol: float = 1e-9) -> Optional[int]:
        i = self.nearest_ring(r)
        if abs(math.log(r / self.radii[i])) <= rel_tol:
            return i
        return None

    def refine(self) -> "PolarGrid":
        """Halve both mesh widths; existing ring radii are preserved."""
        n_r = 2 * (self.n_r - 1) + 1
        s = np.linspace(math.log(self.r_in), math.log(self.r_out), n_r)
        return PolarGrid(np.exp(s), 2 * self.n_theta)


# -- assembly ------------------------------------------------------------

# gradient rows of the bilinear basis at the four face midpoints of the
# reference cell, local node order (i,j), (i+1,j), (i+1,j+1), (i,j+1)
_GRAD_ROWS = np.array([
    [[-0.5, 0.5, 0.5, -0.5], [-1.0, 0.0, 0.0, 1.0]],   # inner ring face
    [[-0.5, 0.5, 0.5, -0.5], [0.0, -1.0, 1.0, 0.0]],   # outer ring face
    [[-1.0, 1.0, 0.0, 0.0], [-0.5, -0.5, 0.5, 0.5]],   # first spoke face
    [[0.0, 0.0, 1.0, -1.0], [-0.5, -0.5, 0.5, 0.5]],   # second spoke face
])
# basis values at the same four points, for mass integrals
_BASIS_ROWS = np.array([
    [0.5, 0.0, 0.0, 0.5],
    [0.0, 0.5, 0.5, 0.0],
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.5],
])
# a cell's mass matrix from its four weighted quadrature values
_CELL_MASS = np.einsum("qm,qn->qmn", _BASIS_ROWS, _BASIS_ROWS).reshape(4, 16)
_TRI_BASIS = np.array([
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
])
# (ring, angle) offsets of the local nodes, and the place of local node
# b in local node a's 3 x 3 (ring, angle) neighbourhood
_CELL_LOCAL = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
_CELL_PLACE = (3 * (_CELL_LOCAL[None, :, 0] - _CELL_LOCAL[:, None, 0])
               + _CELL_LOCAL[None, :, 1] - _CELL_LOCAL[:, None, 1] + 4)


def _rotated_tensor(f: CoefficientField, pts: np.ndarray, c: np.ndarray,
                    s: np.ndarray) -> np.ndarray:
    """B = Q^T A Q of a matrix field at polar points ``pts`` whose angles
    have cosines ``c`` and sines ``s``, (m, 2, 2)."""
    a = f.evaluate(pts)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    cc, cs, ss = c * c, c * s, s * s
    # Q = [[c, -s], [s, c]]; the off-diagonal entries stay separate so
    # that _energy_entries still sees an asymmetric A
    out = np.empty(a.shape)
    mixed = cs * (a01 + a10)
    out[..., 0, 0] = cc * a00 + mixed + ss * a11
    out[..., 1, 1] = ss * a00 - mixed + cc * a11
    shear = cs * (a11 - a00)
    out[..., 0, 1] = shear + (cc * a01 - ss * a10)
    out[..., 1, 0] = shear + (cc * a10 - ss * a01)
    return out


def _energy_entries(b: np.ndarray, where: str) -> tuple[np.ndarray, float]:
    """The entries (m, k) of coefficients b, scalars (m,) or matrices
    (m, 2, 2), that a quadratic form <b g, g> reads: k = 1, a of b = a I,
    or k = 3, (b_00, b_01 + b_10, b_11); and their largest eigenvalue over
    their smallest.  Raises unless every b is SPD."""
    if b.ndim == 1:
        lo, hi, entries = b, b, b[:, None]
    else:
        sym_gap = float(np.max(np.abs(b[:, 0, 1] - b[:, 1, 0])))
        if sym_gap > 1e-10:
            raise FieldError(
                f"coefficient matrix asymmetric by {sym_gap:.3g} {where}")
        half_tr = 0.5 * (b[:, 0, 0] + b[:, 1, 1])
        disc = np.sqrt(0.25 * (b[:, 0, 0] - b[:, 1, 1]) ** 2
                       + b[:, 0, 1] ** 2)
        lo, hi = half_tr - disc, half_tr + disc
        entries = np.stack([b[:, 0, 0], b[:, 0, 1] + b[:, 1, 0], b[:, 1, 1]],
                           axis=1)
    lo = float(np.min(lo))
    if not lo > 0.0:  # NaN too
        raise FieldError(f"ellipticity violated: eigenvalue {lo:.3g} {where}")
    return entries, float(np.max(hi)) / lo


def _by_entries(forms: np.ndarray, k: int) -> np.ndarray:
    """Forms (..., 2, 2, n) linear in a 2 x 2 coefficient b, as the
    coefficients (..., k, n) of b's k entries (see ``_energy_entries``):
    the same forms wherever b is a I (k = 1) or symmetric (k = 3)."""
    if k == 1:
        return (forms[..., 0, 0, :] + forms[..., 1, 1, :])[..., None, :]
    return np.stack([forms[..., 0, 0, :],
                     0.5 * (forms[..., 0, 1, :] + forms[..., 1, 0, :]),
                     forms[..., 1, 1, :]], axis=-2)


# CG stops once the recurred residual of unit-size data is NaN or this
# small, or 16 times it after one step (reached only by an exact inverse)
_CG_TOL = 4.0 * float(np.finfo(float).eps)
# the largest relative residual a solve may leave
_RESIDUAL_TOL = 1e-10


class _Plan:
    """What every assembly on one grid shares, all geometry: the face
    samples with their angles' cosines and sines, the cells' nodes and
    volume weights, the core triangles, the unknown order (ring by ring,
    the origin last), and for k = 1 and 3 coefficient entries (see
    ``_energy_entries``) the matrices that turn a cell's entries at its
    four faces into its 4 x 4 stiffness matrix, ``stiffness[k]`` (4 k,
    16), and a core triangle's into its 3 x 3 one, ``tri_forms[k]``
    (n_theta, k, 9)."""

    def __init__(self, grid: PolarGrid):
        self.n_r, self.n_t = n_r, n_t = grid.n_r, grid.n_theta
        self.n_band = n_band = n_r - 1
        h, k = grid.d_s, grid.d_theta
        th = grid.theta
        self.quad_w = w = h * k / 4.0
        g = _GRAD_ROWS / np.array([[h], [k]])
        # the gradients (q, i) at the four faces from u_m - u_0, m = 1..3:
        # the rows of G sum to zero, so constants give exactly zero
        self.diff_grads = g.transpose(2, 0, 1).reshape(4, 8)[1:]
        # cell_k[m, n] = w sum_q G_q[i, m] B_q[i, j] G_q[j, n], as one
        # product of each cell's entries at its faces, (q, e), with these
        full = w * np.einsum("qim,qjn->qijmn", g, g).reshape(4, 2, 2, 16)
        self.stiffness = {k: _by_entries(full, k).reshape(4 * k, 16)
                          for k in (1, 3)}

        # face samples: ring faces at (r_i, theta_{j+1/2}), then spoke
        # faces at (r_{i+1/2}, theta_j)
        r_mid = np.exp(np.log(grid.radii[:-1]) + 0.5 * h)
        face_r = np.concatenate([np.repeat(grid.radii, n_t),
                                 np.repeat(r_mid, n_t)])
        face_th = np.concatenate([np.tile(th + 0.5 * k, n_r),
                                  np.tile(th, n_band)])
        self.face_cos, self.face_sin = np.cos(face_th), np.sin(face_th)
        self.face_pts = np.stack([face_r * self.face_cos,
                                  face_r * self.face_sin], axis=1)

        ring = np.arange(0, n_band * n_t, n_t, dtype=np.int32)[:, None]
        jj = np.arange(n_t, dtype=np.int32)
        jp = np.roll(jj, -1)
        self.cell_nodes = np.stack(
            [ring + jj, ring + n_t + jj, ring + n_t + jp, ring + jp], axis=-1)

        # volume quadrature: weight w * r^2 at each face midpoint, the
        # same in every cell of a band
        r2 = np.stack([grid.radii[:-1] ** 2, grid.radii[1:] ** 2,
                       r_mid ** 2, r_mid ** 2], axis=1)
        self.cell_volw = np.broadcast_to((w * r2)[:, None, :], (n_band, n_t, 4))

        p = grid.ring_points(0)
        p_next = p[jp]
        area = 0.5 * np.abs(p[:, 0] * p_next[:, 1]
                            - p[:, 1] * p_next[:, 0])
        # P1 gradients for vertices (origin, p, p_next)
        e0 = p_next - p
        e1 = -p_next
        e2 = p
        self.tri_g = np.stack([
            np.stack([-e0[:, 1], e0[:, 0]], axis=1),
            np.stack([-e1[:, 1], e1[:, 0]], axis=1),
            np.stack([-e2[:, 1], e2[:, 0]], axis=1),
        ], axis=1) / (2.0 * area)[:, None, None]
        self.tri_area = area
        full = area[:, None, None, None] * np.einsum(
            "tai,tbj->tijab", self.tri_g, self.tri_g).reshape(n_t, 2, 2, 9)
        self.tri_forms = {k: _by_entries(full, k) for k in (1, 3)}
        self.tri_mids = np.concatenate(
            [0.5 * (p + p_next), 0.5 * p_next, 0.5 * p])
        self.tri_nodes = np.stack(
            [np.full(n_t, grid.node_count - 1, dtype=np.int32), jj, jp],
            axis=1)

        self.boundary = np.arange(n_band * n_t, n_r * n_t)
        mask = np.ones(grid.node_count, dtype=bool)
        mask[self.boundary] = False
        self.interior = np.flatnonzero(mask)
        for a in vars(self).values():
            for x in a.values() if isinstance(a, dict) else (a,):
                if isinstance(x, np.ndarray):
                    x.flags.writeable = False

    def cell_faces(self, at_faces: np.ndarray) -> list[np.ndarray]:
        """Face-sample values (coefficient entries, say) at each cell's
        inner and outer ring face and first and second spoke face, each
        (n_r - 1, n_theta, ...)."""
        n_r, n_t, tail = self.n_r, self.n_t, at_faces.shape[1:]
        rf = at_faces[:n_r * n_t].reshape((n_r, n_t) + tail)
        sf = at_faces[n_r * n_t:].reshape((n_r - 1, n_t) + tail)
        return [rf[:-1], rf[1:], sf, np.roll(sf, -1, axis=1)]


def _element_matrices(plan: _Plan, f: CoefficientField) -> tuple:
    """f's cell and core-triangle matrices (see ``_matrices``), its
    coefficient entries at the faces (faces, k) and in the core (n_theta,
    k), and their largest eigenvalue over their smallest.  An assembly
    keeps the entries; the matrices live only while it is built.

    A scalar field has k = 1 entry, a; a matrix field has k = 3, those of
    B = Q^T A Q, checked symmetric before they are taken.  The identity is
    not evaluated: its B is exactly I, so its a = 1 is held once."""
    if f.kind == "identity":
        face = np.broadcast_to(1.0, (plan.face_pts.shape[0], 1))
        core, contrast = face[:plan.n_t], 1.0
    else:
        face, contrast = _energy_entries(
            f.evaluate(plan.face_pts) if f.arity is Arity.ISOTROPIC
            else _rotated_tensor(f, plan.face_pts, plan.face_cos,
                                 plan.face_sin), "at a cell face")
        at_tri = f.evaluate(plan.tri_mids)
        core, core_contrast = _energy_entries(
            at_tri.reshape((3, plan.n_t) + at_tri.shape[1:]).mean(axis=0),
            "inside the core disk")
        contrast = max(contrast, core_contrast)
    return (*_matrices(plan, face, core, 0, plan.n_band), face, core,
            contrast)


def _matrices(plan: _Plan, face: np.ndarray, core: np.ndarray, lo: int,
              hi: int) -> tuple:
    """The cell matrices (hi - lo, n_theta, 4, 4) of bands lo to hi, one
    (cells, 4 k) @ (4 k, 16) product of each cell's entries ``face`` at
    its four faces with ``plan.stiffness[k]``, and the core-triangle
    matrices (n_theta, 3, 3) of entries ``core``.  Entries held once, as
    the identity's, give one cell matrix K_0, held once."""
    k = face.shape[1]
    if face.strides[0] == 0:
        one = (np.tile(face[0], 4) @ plan.stiffness[k]).reshape(4, 4)
        cell_k = np.broadcast_to(one, (hi - lo, plan.n_t, 4, 4))
    else:
        quad = np.concatenate([q[lo:hi] for q in plan.cell_faces(face)],
                              axis=2)
        cell_k = (quad.reshape(-1, 4 * k) @ plan.stiffness[k]).reshape(
            hi - lo, plan.n_t, 4, 4)
    tri_k = np.einsum("tk,tkm->tm", core,
                      plan.tri_forms[k]).reshape(plan.n_t, 3, 3)
    return cell_k, tri_k


def _scatter(cell_k: np.ndarray, tri_k: np.ndarray) -> tuple:
    """The stencil (10, n_r, n_theta) of the cell matrices (n_r - 1,
    n_theta, 4, 4) and core-triangle matrices (n_theta, 3, 3), and the
    origin's row.  Every entry is summed in the same order: local nodes
    a = 0..3 of the cells, then the triangles."""
    n_band, n_t = cell_k.shape[:2]
    stencil = np.zeros((10, n_band + 1, n_t))
    # the cell matrices place-first, by_place[a, b, i, j] from the cell
    # whose node a is node (i + da, j): nodes 2 and 3 (ea = 1) one angle
    # column on, wrapping.  Copied a few bands at a time: a plain
    # transposed copy is 2.5 times slower at 257 x 512
    by_place = np.empty((4, 4, n_band, n_t))
    step = max(1, 2048 // n_t)
    for i in range(0, n_band, step):
        bands = cell_k[i:i + step].transpose(2, 3, 0, 1)
        by_place[:2, :, i:i + step] = bands[:2]
        by_place[2:, :, i:i + step, 1:] = bands[2:, ..., :-1]
        by_place[2:, :, i:i + step, 0] = bands[2:, ..., -1]
    for a in range(4):
        da = _CELL_LOCAL[a, 0]
        for b in range(4):
            stencil[_CELL_PLACE[a, b], da:da + n_band] += by_place[a, b]
    # ring-0 node j is triangle j's first ring node and triangle j - 1's
    # second; the places of their rows' columns (origin, first, second)
    prev = np.roll(tri_k, 1, axis=0)
    stencil[(9, 4, 5), 0] += tri_k[:, 1].T
    stencil[(9, 3, 4), 0] += prev[:, 2].T
    origin_row = np.append(tri_k[:, 0, 1] + prev[:, 0, 2],
                           tri_k[:, 0, 0].sum())
    return stencil, origin_row


class _Assembly:
    """The assembled operator for one (grid, field, potential) triple:
    the field's coefficient entries (``face_coef``, ``core_coef``), the
    operator as ``stencil`` (10, n_r, n_theta) by place and the
    ``origin_row`` (see ``_scatter``; ``product`` applies them), and the
    factored ring-mean operator.  It keeps no cell matrix."""

    def __init__(self, grid: PolarGrid, f: CoefficientField,
                 potential: Optional[Callable[[np.ndarray], np.ndarray]]):
        self.grid = grid
        self.plan = plan = _get_plan(grid)
        self.interior, self.boundary = plan.interior, plan.boundary
        n_r, n_t = grid.n_r, grid.n_theta
        (cell_k, tri_k, self.face_coef, self.core_coef,
         contrast) = _element_matrices(plan, f)
        # row sums of the mass matrices; the stiffness's are zero
        cell_rows, tri_rows = np.zeros((n_r - 1, n_t, 4)), np.zeros((n_t, 3))
        if potential is not None:
            vq = np.stack(plan.cell_faces(potential(plan.face_pts)), axis=-1)
            mass = ((plan.cell_volw * vq).reshape(-1, 4)
                    @ _CELL_MASS).reshape(cell_k.shape)
            cell_k = cell_k + mass
            cell_rows = mass.sum(axis=-1)
            vt = potential(plan.tri_mids).reshape(3, n_t).T
            mass = np.einsum("tq,qm,qn->tmn",
                             (plan.tri_area / 3.0)[:, None] * vt,
                             _TRI_BASIS, _TRI_BASIS)
            tri_k = tri_k + mass
            tri_rows = mass.sum(axis=-1)
        self.stencil, self.origin_row = _scatter(cell_k, tri_k)

        # The ring-mean operator in mode k, w = exp(2 pi i k / n_theta): a
        # band's mean cell matrix M becomes P^H M P on the (inner, outer)
        # ring coefficients, P's rows (1, 0), (0, 1), (0, w), (w, 0).  M is
        # summed as the Laplacian of its upper off-diagonal entries plus
        # its (mass) row sums, so low modes cancel no tangential coupling.
        # Mode 0 leads with a row for n_theta times the origin value.
        k = np.arange(n_t // 2 + 1)
        w = np.exp(2j * np.pi * k / n_t)
        gap = 4.0 * np.sin(np.pi * k / n_t) ** 2  # |1 - w|^2
        m = cell_k.mean(axis=1)[..., None]
        rows = cell_rows.mean(axis=1)[..., None]
        edges = m[:, 0, 1] + m[:, 0, 2] + m[:, 1, 3] + m[:, 2, 3]
        diag = np.zeros((n_r, w.size))
        diag[:-1] += rows[:, 0] + rows[:, 3] - edges - gap * m[:, 0, 3]
        diag[1:] += rows[:, 1] + rows[:, 2] - edges - gap * m[:, 1, 2]
        off = m[:, 0, 1] + m[:, 2, 3] + w * m[:, 0, 2] + w.conj() * m[:, 1, 3]
        t, rows = tri_k.mean(axis=0), tri_rows.mean(axis=0)
        edges = t[0, 1] + t[0, 2]
        diag[0] += rows[1] + rows[2] - edges - gap * t[1, 2]
        diag = np.vstack([np.ones(w.size), diag[:-1]])
        off = np.vstack([np.zeros(w.size), off[:-1]])
        diag[0, 0], off[0, 0] = rows[0] - edges, edges
        # factored as L D L^H per mode, over all modes at once
        self.pivots, self.mult = diag, np.empty_like(off)
        for i in range(off.shape[0]):
            self.mult[i] = off[i].conj() / self.pivots[i]
            self.pivots[i + 1] -= (off[i] * self.mult[i]).real
        self.mult_conj = self.mult.conj()  # for the back substitution
        if not np.all(self.pivots > 0.0):
            raise SolverError("operator is not positive definite: "
                              "its ring mean has a non-positive pivot")
        # each tensor is within a factor contrast of its ring mean, so CG
        # needs about contrast ln(2 / tol) / 2 steps; the cap allows twice
        self.cap = 1 + math.ceil(contrast * math.log(2.0 / _CG_TOL))

    def product(self, x: np.ndarray, boundary: bool = False) -> np.ndarray:
        """``k_ii @ x`` for x on the unknowns, or ``k_ib @ x`` for x on
        the boundary nodes: the unknowns' rows of the stencil times the
        node values, zero off x's nodes.  Each ring row is summed from
        0.0 over the places in order, the same in every angle column."""
        stencil, n_t = self.stencil, self.grid.n_theta
        n = stencil.shape[1] - 1  # unknown rings
        # (ring, angle) at n_t (ring + 1) + angle + 1: a zero and a ring of
        # zeros before ring 0, the boundary ring and a zero after the last
        flat = np.zeros((n + 2) * n_t + 2)
        rings = flat[1:-1].reshape(-1, n_t)
        origin = 0.0
        if boundary:
            rings[-1] = x
        else:
            rings[1:-1] = x[:-1].reshape(n, n_t)
            origin = x[-1]
        # the places in order through shifted slices; where the angle
        # neighbour wraps, from column j = 0 or n_theta - 1 to the other
        # end of its ring, the term is taken again
        rows = stencil[:, :n]
        out, term = np.zeros((n, n_t)), np.empty((n, n_t))
        for p in range(9):
            di, dj = divmod(p, 3)
            shifted = flat[di * n_t + dj:][:n * n_t].reshape(n, n_t)
            np.multiply(rows[p], shifted, out=term)
            if dj != 1:
                j = 0 if dj == 0 else n_t - 1
                term[:, j] = rows[p, :, j] * rings[di:di + n, n_t - 1 - j]
            out += term
        out[0] += rows[9, 0] * origin
        return np.append(out, self.origin_row @ np.append(rings[1], origin))

    def ring_mean_solve(self, r: np.ndarray) -> np.ndarray:
        n_t = self.grid.n_theta
        y = np.zeros(self.pivots.shape, dtype=complex)
        y[1:] = np.fft.rfft(r[:-1].reshape(-1, n_t), axis=1)
        y[0, 0] = r[-1]  # the origin row; its unknown: n_theta u_0
        for i in range(self.mult.shape[0]):
            y[i + 1] -= self.mult[i] * y[i]
        y /= self.pivots
        for i in range(self.mult.shape[0] - 1, -1, -1):
            y[i] -= self.mult_conj[i] * y[i + 1]
        x = np.fft.irfft(y[1:], n=n_t, axis=1).ravel()
        return np.append(x, y[0, 0].real / n_t)

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        """``k_ii^-1 b`` for b of unit size, not 0, and the CG iterations."""
        x, r = np.zeros_like(b), b.copy()
        p = z = self.ring_mean_solve(r)
        rz = r @ z
        stop = _CG_TOL * np.linalg.norm(b)
        for it in range(1, self.cap + 1):
            q = self.product(p)
            pq = p @ q
            if pq <= 0.0:
                raise SolverError("operator is not positive definite: "
                                  f"p^T K p = {pq:.3g} at iteration {it}")
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            if not np.linalg.norm(r) > stop * (16.0 if it == 1 else 1.0):
                break
            z = self.ring_mean_solve(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        return x, it


# Plans are keyed by the grid's exact radii, and the two most recently
# used are kept: a scenario works on its base grid, then on the
# refinement, so few plans are built twice.  Assemblies are not cached:
# each belongs to the solutions solved with it.
_PLANS: dict[tuple, _Plan] = {}
_PLAN_LIMIT = 2
_PLAN_LOCK = threading.Lock()


def clear_operator_cache() -> None:
    """Empty the plan cache."""
    with _PLAN_LOCK:
        _PLANS.clear()


def _get_plan(grid: PolarGrid) -> _Plan:
    key = (grid.n_theta, grid.radii.tobytes())
    with _PLAN_LOCK:
        plan = _PLANS.pop(key, None)
        if plan is not None:
            _PLANS[key] = plan  # most recently used last
            return plan
    plan = _Plan(grid)
    with _PLAN_LOCK:
        if key not in _PLANS and len(_PLANS) >= _PLAN_LIMIT:
            _PLANS.pop(next(iter(_PLANS)))
        _PLANS[key] = plan
    return plan


# -- solutions -----------------------------------------------------------


@dataclass
class DiscreteSolution:
    """Nodal solution values plus the assembly that produced them, the
    solve's relative residual and its number of CG steps (0 for zero data)."""

    grid: PolarGrid
    values: np.ndarray
    coefficient: CoefficientField
    boundary_data: np.ndarray
    residual_norm: float
    iterations: int
    _assembly: Any = None
    _cache: dict = field(default_factory=dict)

    def scaled(self, divisor: float) -> "DiscreteSolution":
        """This solution with its values divided by ``divisor``.  The
        assembly and solve record carry over; functionals cached from
        the old values do not."""
        return replace(self, values=self.values / divisor, _cache={})

    def ring_values(self, i: int) -> np.ndarray:
        n_t = self.grid.n_theta
        return self.values[i * n_t:(i + 1) * n_t]

    def node_grid(self) -> np.ndarray:
        """Values reshaped to (n_r, n_theta); the origin node is dropped."""
        n_r, n_t = self.grid.n_r, self.grid.n_theta
        return self.values[:n_r * n_t].reshape(n_r, n_t)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """The discrete solution at points ``pts``: bilinear in (log r,
        theta) between the rings, with a linear blend to the origin value
        inside the innermost ring.  Points past the outer ring (beyond
        ``nearest_ring``'s tolerance) or not finite raise ``ValueError``."""
        grid = self.grid
        n_r, nt = grid.n_r, grid.n_theta
        vals = self.node_grid()
        origin = float(self.values[-1])
        s0 = math.log(float(grid.radii[0]))
        ds, dth = grid.d_s, grid.d_theta
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rr = np.hypot(pts[:, 0], pts[:, 1])
        top = rr.max(initial=0.0)  # NaN propagates and fails the check
        if not top <= grid.r_out * (1 + 1e-9):
            raise ValueError(f"radius {top} outside grid range "
                             f"[0, {grid.r_out:.6g}]")
        th = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        rcl = np.clip(rr, float(grid.radii[0]), float(grid.radii[-1]))
        # the outer ring is the end of the last band, fraction 1
        si = np.clip((np.log(rcl) - s0) / ds, 0.0, n_r - 1)
        i0 = np.minimum(si.astype(int), n_r - 2)
        fs = si - i0
        tj = th / dth
        j0 = tj.astype(int) % nt
        ft = tj - np.floor(tj)
        j1 = (j0 + 1) % nt
        out = (vals[i0, j0] * (1.0 - fs) * (1.0 - ft)
               + vals[i0 + 1, j0] * fs * (1.0 - ft)
               + vals[i0, j1] * (1.0 - fs) * ft
               + vals[i0 + 1, j1] * fs * ft)
        inner = rr < float(grid.radii[0])
        if inner.any():
            w = rr[inner] / float(grid.radii[0])
            ring0 = vals[0, j0[inner]] * (1.0 - ft[inner]) \
                + vals[0, j1[inner]] * ft[inner]
            out[inner] = origin * (1.0 - w) + ring0 * w
        return out


def _boundary_values(g: Any, pts: np.ndarray, n_t: int) -> np.ndarray:
    if callable(g):
        vals = np.asarray(g(pts), dtype=float)
    else:
        vals = np.asarray(g, dtype=float)
    if vals.shape != (n_t,):
        raise SolverError(
            f"boundary data must give {n_t} ring values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise SolverError("boundary data contains non-finite values")
    return vals


def solve_dirichlet(f: CoefficientField, r: float, g: Any, grid: PolarGrid,
                    *, potential: Optional[Callable] = None
                    ) -> DiscreteSolution:
    """Solve -div(A grad u) = 0 (plus an optional reaction term
    potential * u) with Dirichlet data g on the circle of radius r.

    An operator found not positive definite, a relative residual above
    1e-10 or a non-finite solution raise SolverError.
    """
    if abs(r - grid.r_out) > 1e-12 * max(1.0, r):
        raise SolverError(
            f"grid outer radius {grid.r_out:.12g} does not match r={r:.12g}")
    if f.domain_radius < grid.r_out * (1 - 1e-12):
        raise SolverError(
            f"field domain radius {f.domain_radius:.6g} does not cover "
            f"the grid radius {grid.r_out:.6g}")

    asm = _Assembly(grid, f, potential)
    g_out = _boundary_values(g, grid.ring_points(grid.n_r - 1), grid.n_theta)

    # unit-size data keep the CG scalars and norms in range: |b| >= 1 or 0
    # 0 - k_ib g rather than -(k_ib g): a row without boundary terms
    # stays +0.0, as in a product with the negated matrix
    rhs = 0.0 - asm.product(g_out, boundary=True)
    scale = float(np.max(np.abs(rhs), initial=0.0)) or 1.0
    b = rhs / scale
    y, iterations = asm.solve(b) if b.any() else (b, 0)
    residual = float(np.linalg.norm(asm.product(y) - b)
                     / max(np.linalg.norm(b), 1.0))
    x = y * scale
    if not (residual <= _RESIDUAL_TOL and np.all(np.isfinite(x))):
        raise SolverError(
            f"solve left relative residual {residual:.3e} after "
            f"{iterations} iterations, requested {_RESIDUAL_TOL:.1e}")

    values = np.empty(grid.node_count)
    values[asm.boundary] = g_out
    values[asm.interior] = x
    return DiscreteSolution(grid, values, f, g_out, residual, iterations,
                            _assembly=asm)


# -- functionals ---------------------------------------------------------


def _squares(gv: np.ndarray, k: int) -> np.ndarray:
    """The terms of <b gv, gv> that b's k entries multiply (see
    ``_energy_entries``), (..., k) for gradients gv (..., 2)."""
    if k == 1:
        return np.einsum("...i,...i->...", gv, gv)[..., None]
    g0, g1 = gv[..., 0], gv[..., 1]
    out = np.empty(gv.shape[:-1] + (3,))
    np.multiply(g0, g0, out=out[..., 0])
    np.multiply(g0, g1, out=out[..., 1])
    np.multiply(g1, g1, out=out[..., 2])
    return out


def _energies(plan: _Plan, face: np.ndarray, core: np.ndarray,
              values: np.ndarray) -> np.ndarray:
    """The energy of nodal ``values`` inside each grid radius (index i
    matches radii[i]) for coefficient entries ``face`` (faces, k) and
    ``core`` (n_theta, k), in factored form: the entries against the
    matching squares of G u at each quadrature point, G u taken from
    differences of u so that constant values give exactly zero."""
    k = face.shape[1]
    uc = values[plan.cell_nodes]
    gv = ((uc[..., 1:] - uc[..., :1]).reshape(-1, 3)
          @ plan.diff_grads).reshape(uc.shape + (2,))
    coef = np.concatenate(plan.cell_faces(face), axis=2)
    band = plan.quad_w * np.einsum("btqk,btqk->b",
                                   coef.reshape(gv.shape[:3] + (k,)),
                                   _squares(gv, k))
    ut = values[plan.tri_nodes]
    # gradient from differences against the origin node: exact for
    # constants since the basis gradients sum to zero
    dv = ut[:, 1:] - ut[:, :1]
    gv = np.einsum("tmi,tm->ti", plan.tri_g[:, 1:, :], dv)
    inner = float(np.sum(plan.tri_area * np.einsum(
        "tk,tk->t", core, _squares(gv, k))))
    return np.append(inner, inner + np.cumsum(band))


def _cumulative_energy(u: DiscreteSolution) -> np.ndarray:
    """u's energy inside each grid radius; index i matches radii[i]."""
    if "cumE" not in u._cache:
        asm = u._assembly
        u._cache["cumE"] = _energies(asm.plan, asm.face_coef,
                                     asm.core_coef, u.values)
    return u._cache["cumE"]


def _ring_index(grid: PolarGrid, r: float) -> int:
    """The ring at radius r; ValueError when r is not a grid radius."""
    i = grid.on_ring(r)
    if i is None:
        raise ValueError(f"radius {r:.6g} is not a grid radius")
    return i


def dirichlet_energy(u: DiscreteSolution, r: float) -> float:
    """D(r): energy <A grad u, grad u> inside grid radius r, from the
    coefficient entries in factored form."""
    i = _ring_index(u.grid, r)
    return float(_cumulative_energy(u)[i])


def energy_flux_profile(u: DiscreteSolution,
                        radii: Sequence[float]) -> np.ndarray:
    """D in boundary-flux form at each of the grid radii ``radii``: the
    sum over the ring's nodes of u times the discrete flux from the
    cells inside, by one product over the cell matrices of the bands the
    radii span.  Identical to ``dirichlet_energy`` by the divergence
    structure."""
    asm = u._assembly
    rings = np.array([_ring_index(u.grid, r) for r in radii], dtype=int)
    out = np.zeros(rings.size)
    outer = rings > 0
    # the spanned bands; local nodes 1, 2 lie on a band's outer ring
    lo, hi = rings[outer].min(initial=1) - 1, rings.max(initial=0)
    cell_k, tri_k = _matrices(asm.plan, asm.face_coef, asm.core_coef, lo, hi)
    uc = u.values[asm.plan.cell_nodes[lo:hi]]
    forces = np.einsum("btmn,btn->btm", cell_k, uc)
    band = rings[outer] - 1 - lo
    out[outer] = np.sum(forces[band, :, 1:3] * uc[band, :, 1:3], axis=(1, 2))
    if not outer.all():
        ut = u.values[asm.plan.tri_nodes]
        forces = np.einsum("tmn,tn->tm", tri_k, ut)
        out[~outer] = np.sum(forces[:, 1:] * ut[:, 1:])
    return out


def dirichlet_energy_flux(u: DiscreteSolution, r: float) -> float:
    """D(r) in boundary-flux form at grid radius r."""
    return float(energy_flux_profile(u, [r])[0])


def weighted_gradient_energy(u: DiscreteSolution, values: np.ndarray,
                             r: float) -> float:
    """int_{B_r} <A grad z, grad z> for arbitrary nodal values z on u's
    grid, e.g. differences of two solutions, with A the field u was
    solved with (any potential's mass left out)."""
    i = _ring_index(u.grid, r)
    asm = u._assembly
    return float(_energies(asm.plan, asm.face_coef, asm.core_coef,
                           values)[i])


def gradient_energy(grid: PolarGrid, values: np.ndarray,
                    r: float | Sequence[float]) -> float | list[float]:
    """int_{B_r} |grad z|^2 for arbitrary nodal values z on the grid; for
    a sequence of grid radii, the list of them from one pass."""
    rings = [_ring_index(grid, x) for x in (r if np.ndim(r) else [r])]
    plan = _get_plan(grid)
    ones = np.broadcast_to(1.0, (plan.face_pts.shape[0], 1))
    cum = _energies(plan, ones, ones[:plan.n_t], values)
    out = [float(cum[i]) for i in rings]
    return out if np.ndim(r) else out[0]


def volume_mean_square(u: DiscreteSolution, r: float,
                       values: Optional[np.ndarray] = None) -> float:
    """mean over B_r of u^2, in the assembly's own volume quadrature; r
    must be a grid radius."""
    asm = u._assembly
    vals = u.values if values is None else values
    i = _ring_index(u.grid, r)
    tag = "cumM" if values is None else None
    cached = u._cache.get(tag) if tag else None
    if cached is None:
        plan = asm.plan
        uc = vals[plan.cell_nodes]
        uq = np.einsum("qm,btm->btq", _BASIS_ROWS, uc)
        band = np.einsum("btq,btq->b", plan.cell_volw, uq ** 2)
        band_area = plan.cell_volw.sum(axis=(1, 2))
        ut = vals[plan.tri_nodes]
        um = np.einsum("qm,tm->tq", _TRI_BASIS, ut)
        core = float(np.sum(plan.tri_area / 3.0 * np.sum(um ** 2, axis=1)))
        core_area = float(plan.tri_area.sum())
        cached = (np.append(core, core + np.cumsum(band)),
                  np.append(core_area, core_area + np.cumsum(band_area)))
        if tag:
            u._cache[tag] = cached
    cum, area = cached
    return float(cum[i] / area[i])


def gradient_mean_square(u: DiscreteSolution, r: float,
                         values: Optional[np.ndarray] = None) -> float:
    """mean over B_r of |grad u|^2; r must be a grid radius."""
    total = gradient_energy(u.grid, u.values if values is None else values, r)
    i = _ring_index(u.grid, r)
    plan = u._assembly.plan
    area = float(plan.cell_volw[:i].sum()) if i > 0 else 0.0
    return total / (area + float(plan.tri_area.sum()))


def _circle_integral(u: DiscreteSolution, radii: Sequence[float],
                     weight_at: Callable[[np.ndarray], np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(rho, int over the circle of radius rho of (trace of u)^2 * weight
    dtheta) for each of ``radii``, Simpson in angle, with rho the grid
    radius r names, or r itself between the rings.

    The trace is the bilinear interpolant's: on a ring its nodal values,
    between rings ``u.evaluate`` at the grid angles.  Either way it is
    piecewise linear in theta, so the midpoint value is the mean of the
    endpoints and Simpson integrates the square exactly against a smooth
    weight's samples.  ``weight_at`` takes every circle's nodes and
    midpoints in one call, and each circle's Simpson terms are summed
    along its own contiguous row."""
    grid = u.grid
    rings = [grid.on_ring(r) for r in radii]
    rho = np.array([r if i is None else grid.radii[i]
                    for r, i in zip(radii, rings)], dtype=float)
    th = np.stack([grid.theta, grid.theta + 0.5 * grid.d_theta])
    # (node or midpoint, circle, angle, xy)
    pts = rho[:, None, None] * np.stack([np.cos(th), np.sin(th)], 2)[:, None]
    uv = np.array([u.evaluate(p) if i is None else u.ring_values(i)
                   for i, p in zip(rings, pts[0])])
    u_next = np.roll(uv, -1, axis=1)
    u_mid = 0.5 * (uv + u_next)
    w_node, w_mid = weight_at(pts.reshape(-1, 2)).reshape(pts.shape[:3])
    w_next = np.roll(w_node, -1, axis=1)
    seg = (grid.d_theta / 6.0) * (uv ** 2 * w_node + 4.0 * u_mid ** 2 * w_mid
                                  + u_next ** 2 * w_next)
    return rho, seg.sum(axis=1)


def boundary_mass_profile(u: DiscreteSolution, f: CoefficientField,
                          radii: Sequence[float]) -> np.ndarray:
    """H at each of ``radii``: int over the circle of u^2 mu dsigma with
    mu = <A x/|x|, x/|x|>, at any radius within the grid's range; between
    the rings it integrates the discrete solution's own trace."""
    rho, mass = _circle_integral(u, radii, lambda p: mu_factor(f, p))
    return rho * mass


def boundary_mass(u: DiscreteSolution, f: CoefficientField, r: float) -> float:
    """H(r); see ``boundary_mass_profile``."""
    return float(boundary_mass_profile(u, f, [r])[0])


def boundary_mass_scalar(u: DiscreteSolution, abar: CoefficientField,
                         r: float) -> float:
    """h(r) = r^(1-n) int over the circle of abar u^2 dsigma; in two
    dimensions the normalization cancels the circumference growth.  Like
    ``boundary_mass`` it accepts any radius within the grid's range."""
    if abar.arity is not Arity.ISOTROPIC:
        raise FieldError("scalar boundary mass needs a scalar weight field")
    return float(_circle_integral(u, [r], abar.evaluate)[1][0])
