import numpy as np
import pytest

from aggmfg import (
    CouplingSpec,
    DataSpec,
    GaussianMixture,
    Grid,
    PotentialSpec,
    ProblemSpec,
    TerminalCostSpec,
)
from aggmfg import discretization


def gaussian_problem(sigma=0.05, alpha=2.0, horizon=1.0, dim=1, std=1.0, mean=0.0,
                     potential=None, terminal=None):
    """Standard test problem: single Gaussian initial density."""
    mixture = GaussianMixture(
        weights=(1.0,),
        means=((mean,) * dim,),
        stds=(std,),
    )
    return ProblemSpec(
        dim=dim,
        horizon=horizon,
        coupling=CouplingSpec(sigma=sigma, alpha=alpha),
        potential=potential if potential is not None else PotentialSpec(),
        data=DataSpec(m0=mixture,
                      terminal_cost=terminal if terminal is not None else TerminalCostSpec()),
    )


def three_block_levels(n_nodes):
    """A level count that _level_blocks splits into three blocks, the last one short."""
    step = max(discretization._MIN_BLOCK_LEVELS, discretization._BLOCK_ROWS // n_nodes)
    return 2 * step + step // 2


@pytest.fixture
def grid_1d():
    return Grid(dim=1, half_width=12.0, nx=129, nt=128, horizon=1.0)


@pytest.fixture
def grid_2d():
    return Grid(dim=2, half_width=8.0, nx=33, nt=20, horizon=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
