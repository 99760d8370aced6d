"""Structured meshes: space-time quadrilateral grids, 1-D time grids and the
nodal value grids a run writes.

Node numbering is row-major with x varying fastest, so node ``j*(nx+1)+i``
sits at ``(i*hx, j*ht)``.  A space-time mesh is its four numbers (L, T,
nx, nt): its elements are the corner slices of the (nt + 1, nx + 1) node
grid, ``[dt:dt + nt, dx:dx + nx]`` for a corner (dx, dt), which no array
stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

LEFT = "left"
RIGHT = "right"
BOTTOM = "bottom"
TOP = "top"


@dataclass(frozen=True)
class SpaceTimeMesh:
    """Uniform quadrilateral discretization of (0, L) x (0, T)."""

    L: float
    T: float
    nx: int
    nt: int

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.nt + 1)

    @property
    def n_elements(self) -> int:
        return self.nx * self.nt

    @property
    def hx(self) -> float:
        return self.L / self.nx

    @property
    def ht(self) -> float:
        return self.T / self.nt

    def boundary_nodes(self, tag: str) -> np.ndarray:
        """Node ids on one of the four boundary lines, in index order."""
        nx1, nt1 = self.nx + 1, self.nt + 1
        if tag == LEFT:
            return np.arange(nt1) * nx1
        if tag == RIGHT:
            return np.arange(nt1) * nx1 + self.nx
        if tag == BOTTOM:
            return np.arange(nx1)
        if tag == TOP:
            return self.nt * nx1 + np.arange(nx1)
        raise InvalidArgumentError(f"unknown boundary tag {tag!r}")

    def x_coords(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx + 1)

    def t_coords(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)


@dataclass(frozen=True)
class TimeMesh:
    """Uniform 1-D mesh of (0, T) for the rigid-body stages: its two numbers
    (T, ne)."""

    T: float
    ne: int

    @property
    def n_nodes(self) -> int:
        return self.ne + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.ne + 1)

    @property
    def h(self) -> float:
        return self.T / self.ne


@dataclass(eq=False)
class NodalGrid:
    """Nodal values on a (t, x) grid: one row of ``values`` per time.

    Its (x, t, value) rows, x varying fastest, are what a run writes;
    ``len()`` is their number.
    """

    x: np.ndarray          # (nx+1,)
    t: np.ndarray          # (n_rows,)
    values: np.ndarray     # (n_rows, nx+1)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.t.size, self.x.size):
            raise InvalidArgumentError(f"grid values of shape {self.values.shape} for "
                                       f"{self.t.size} times and {self.x.size} points")

    def __len__(self) -> int:
        return self.values.size


def build_space_time_mesh(L: float, T: float, nx: int, nt: int) -> SpaceTimeMesh:
    """Build the uniform nx-by-nt quadrilateral mesh of (0, L) x (0, T)."""
    if not (L > 0 and T > 0):
        raise InvalidArgumentError(f"domain extents must be positive, got L={L}, T={T}")
    if not (nx >= 1 and nt >= 1):
        raise InvalidArgumentError(f"element counts must be >= 1, got nx={nx}, nt={nt}")
    return SpaceTimeMesh(L=float(L), T=float(T), nx=int(nx), nt=int(nt))


def build_time_mesh(T: float, ne: int) -> TimeMesh:
    """Build the uniform 1-D mesh of (0, T) with ne elements."""
    if T <= 0:
        raise InvalidArgumentError(f"stage length must be positive, got T={T}")
    if ne < 1:
        raise InvalidArgumentError(f"element count must be >= 1, got ne={ne}")
    return TimeMesh(T=float(T), ne=int(ne))
