"""Structured meshes: space-time quadrilateral grids and 1-D time grids.

Node numbering is row-major with x varying fastest, so node ``j*(nx+1)+i``
sits at ``(i*hx, j*ht)``.  Element ``e = jt*nx + ix`` connects its four
corner nodes counter-clockwise starting from the lower-left one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    nodes: np.ndarray = field(repr=False)      # (n_nodes, 2) columns (x, t)
    elements: np.ndarray = field(repr=False)   # (n_elems, 4) CCW connectivity

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
    """Uniform 1-D mesh of (0, T) for the rigid-body stages."""

    T: float
    ne: int
    nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.ne + 1

    @property
    def h(self) -> float:
        return self.T / self.ne


def build_space_time_mesh(L: float, T: float, nx: int, nt: int) -> SpaceTimeMesh:
    """Build the uniform nx-by-nt quadrilateral mesh of (0, L) x (0, T)."""
    if not (L > 0 and T > 0):
        raise InvalidArgumentError(f"domain extents must be positive, got L={L}, T={T}")
    if not (nx >= 1 and nt >= 1):
        raise InvalidArgumentError(f"element counts must be >= 1, got nx={nx}, nt={nt}")
    x = np.linspace(0.0, L, nx + 1)
    t = np.linspace(0.0, T, nt + 1)
    X, Tg = np.meshgrid(x, t)                       # t-major, x fastest
    nodes = np.column_stack([X.ravel(), Tg.ravel()])

    ix = np.arange(nx)
    jt = np.arange(nt)
    JT, IX = np.meshgrid(jt, ix, indexing="ij")
    n00 = JT.ravel() * (nx + 1) + IX.ravel()
    elements = np.column_stack([n00, n00 + 1, n00 + nx + 2, n00 + nx + 1])
    return SpaceTimeMesh(L=float(L), T=float(T), nx=int(nx), nt=int(nt),
                         nodes=nodes, elements=elements.astype(np.int64))


def build_time_mesh(T: float, ne: int) -> TimeMesh:
    """Build the uniform 1-D mesh of (0, T) with ne elements."""
    if T <= 0:
        raise InvalidArgumentError(f"stage length must be positive, got T={T}")
    if ne < 1:
        raise InvalidArgumentError(f"element count must be >= 1, got ne={ne}")
    return TimeMesh(T=float(T), ne=int(ne), nodes=np.linspace(0.0, T, ne + 1))
