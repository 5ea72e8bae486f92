import math

import pytest

from msbc import boundary, normalform, solvers, system


@pytest.fixture(scope="session")
def constructed():
    """Transform, evolution and report for the first embedding at defaults."""
    return normalform.construct(system.build_embedding("A"), order=3)


@pytest.fixture(scope="session")
def at_unity():
    """Parameter-1 transform, evolution, leftovers and retained terms of the
    unembedded system at order 3."""
    return normalform.construct_at_unity(system.build_original(), order=3)


@pytest.fixture(scope="session")
def derivation(at_unity):
    transform = at_unity[0]
    data = reference_data()
    constraint = boundary.centre_stable_restriction(transform)
    reverted = boundary.revert_boundary(constraint)
    bc_left, bc_right = boundary.robin_pair(boundary._left_relation(reverted), data)
    return {
        "constraint": constraint,
        "reverted": reverted,
        "bc_left": bc_left,
        "bc_right": bc_right,
        "data": data,
    }


def tanhsq(t):
    th = math.tanh(t)
    return th * th


def reference_data():
    return boundary.BoundaryData(a0=lambda t: 0.2 * tanhsq(t), b0=0.0,
                                 aL=0.0, bL=lambda t: 0.2 * tanhsq(t))


@pytest.fixture(scope="session")
def reference_run(derivation):
    """The reference scenario solved with every closure, n=600 to t=21."""
    grid = solvers.Grid1D(L=30.0, n=600)
    data = derivation["data"]
    snaps = (7.0, 14.0, 21.0)

    def cfg(mode):
        return solvers.SolveConfig(grid=grid, t_end=21.0, data=data,
                                   snapshots=snaps, bc_mode=mode)

    micro = solvers.solve_microscale(cfg("dirichlet-heuristic"))
    macro_d = solvers.solve_macroscale(cfg("dirichlet-heuristic"))
    macro_r = solvers.solve_macroscale(cfg("robin-derived"),
                                       derivation["bc_left"], derivation["bc_right"])
    macro_l = solvers.solve_macroscale(cfg("robin-linearised"),
                                       derivation["bc_left"].linearized(),
                                       derivation["bc_right"].linearized())
    return {"grid": grid, "snapshots": snaps, "micro": micro,
            "dirichlet": macro_d, "robin": macro_r, "robin_linear": macro_l}
