from dataclasses import fields

import numpy as np
import pytest

from conftest import nodes_and_elements
from dualfem.errors import InvalidArgumentError
from dualfem.mesh import (BOTTOM, LEFT, RIGHT, TOP, SpaceTimeMesh, TimeMesh,
                          build_space_time_mesh, build_time_mesh)


def test_node_coordinates_row_major():
    m = build_space_time_mesh(2.0, 1.0, 4, 3)
    assert m.n_nodes == 5 * 4
    assert m.n_elements == 12
    assert m.hx == pytest.approx(0.5)
    assert m.ht == pytest.approx(1.0 / 3.0)
    # node j*(nx+1)+i sits at (x_coords[i], t_coords[j]) = (i*hx, j*ht)
    nodes, _ = nodes_and_elements(m)
    assert nodes.shape == (m.n_nodes, 2)
    for j in range(4):
        for i in range(5):
            n = j * 5 + i
            assert nodes[n, 0] == m.x_coords()[i] == pytest.approx(i * 0.5)
            assert nodes[n, 1] == m.t_coords()[j] == pytest.approx(j / 3.0)


def test_connectivity_counter_clockwise():
    m = build_space_time_mesh(1.0, 1.0, 3, 2)
    nodes, elements = nodes_and_elements(m)
    assert elements.shape == (m.n_elements, 4)
    for conn in elements:
        quad = nodes[conn]
        # shoelace signed area positive for CCW ordering
        x, t = quad[:, 0], quad[:, 1]
        area = 0.5 * np.sum(x * np.roll(t, -1) - np.roll(x, -1) * t)
        assert area == pytest.approx(m.hx * m.ht)
        # corners: lower-left, lower-right, upper-right, upper-left
        assert quad[1, 0] > quad[0, 0]
        assert quad[2, 1] > quad[1, 1]
        assert quad[3, 0] < quad[2, 0]


def test_every_interior_node_shared_by_four_elements():
    m = build_space_time_mesh(1.0, 1.0, 4, 4)
    counts = np.bincount(nodes_and_elements(m)[1].ravel(), minlength=m.n_nodes)
    interior = [j * 5 + i for i in range(1, 4) for j in range(1, 4)]
    assert np.all(counts[interior] == 4)
    corners = [0, 4, 20, 24]
    assert np.all(counts[corners] == 1)


def test_boundary_nodes_and_tags():
    m = build_space_time_mesh(1.0, 2.0, 3, 5)
    nodes, elements = nodes_and_elements(m)
    left = m.boundary_nodes(LEFT)
    assert np.allclose(nodes[left, 0], 0.0)
    assert len(left) == 6
    right = m.boundary_nodes(RIGHT)
    assert np.allclose(nodes[right, 0], 1.0)
    bottom = m.boundary_nodes(BOTTOM)
    assert np.allclose(nodes[bottom, 1], 0.0)
    top = m.boundary_nodes(TOP)
    assert np.allclose(nodes[top, 1], 2.0)
    # the lower-left corners of the first element row and column
    assert np.array_equal(elements[:m.nx, 0], bottom[:-1])
    assert np.array_equal(elements[::m.nx, 0], left[:-1])
    # corner nodes lie on both of their lines, interior nodes on none
    assert left[0] == bottom[0] == 0
    assert right[-1] == top[-1] == m.n_nodes - 1
    assert 9 not in np.concatenate([left, right, bottom, top])      # (1, 2)
    with pytest.raises(InvalidArgumentError):
        m.boundary_nodes("front")


def test_space_time_mesh_is_its_four_numbers():
    m = build_space_time_mesh(2.16, 0.55, 216, 55)
    assert tuple(f.name for f in fields(SpaceTimeMesh)) == ("L", "T", "nx", "nt")
    twin = build_space_time_mesh(2.16, 0.55, 216, 55)
    assert m == twin and hash(m) == hash(twin)
    assert m != build_space_time_mesh(2.16, 0.55, 216, 56)


def test_time_mesh_is_its_two_numbers():
    m = build_time_mesh(1.0, 4)
    assert tuple(f.name for f in fields(TimeMesh)) == ("T", "ne")
    twin = build_time_mesh(1.0, 4)
    assert m == twin and hash(m) == hash(twin)
    assert m != build_time_mesh(1.0, 5)
    assert m.nodes.tobytes() == np.linspace(0.0, 1.0, 5).tobytes()


def test_coordinate_vectors():
    m = build_space_time_mesh(3.0, 1.5, 6, 3)
    assert np.allclose(m.x_coords(), np.linspace(0, 3, 7))
    assert np.allclose(m.t_coords(), np.linspace(0, 1.5, 4))


def test_invalid_arguments_rejected():
    with pytest.raises(InvalidArgumentError):
        build_space_time_mesh(-1.0, 1.0, 2, 2)
    with pytest.raises(InvalidArgumentError):
        build_space_time_mesh(1.0, 0.0, 2, 2)
    with pytest.raises(InvalidArgumentError):
        build_space_time_mesh(1.0, 1.0, 0, 2)
    with pytest.raises(InvalidArgumentError):
        build_time_mesh(1.0, 0)
    with pytest.raises(InvalidArgumentError):
        build_time_mesh(-2.0, 4)


def test_time_mesh_basic():
    m = build_time_mesh(0.5, 20)
    assert m.n_nodes == 21
    assert m.h == pytest.approx(0.025)
    assert np.allclose(m.nodes, np.linspace(0, 0.5, 21))
