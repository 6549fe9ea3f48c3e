"""The one way tests build a grid, a pricer or a sinh plan directly.

Each keyword names a field of the settings dataclass that the library reads:
``GridConfig`` for a grid, ``GridConfig`` or ``Tolerances`` for a pricer, and
``InversionPlan`` for a sinh plan.  A setting left out takes that field's
default, as it does in a config document.
"""

from __future__ import annotations

from dataclasses import fields

from rsbarrier.engine import QPricer, Tolerances
from rsbarrier.grids import GridConfig, build_grid
from rsbarrier.inversion import InversionPlan, sinh_plan

GRID_FIELDS = frozenset(f.name for f in fields(GridConfig))


def grid(lower, upper, models, **settings):
    return build_grid(lower, upper, models, GridConfig(**settings))


def pricer(problem, **settings):
    """A pricer on a grid built for the problem's barriers and models."""
    grid_settings = {k: v for k, v in settings.items() if k in GRID_FIELDS}
    tolerances = Tolerances(**{k: v for k, v in settings.items() if k not in GRID_FIELDS})
    models = [spec.model for spec in problem.regimes]
    return QPricer(problem, grid(problem.lower, problem.upper, models, **grid_settings),
                   tolerances)


def sinh(tau, **settings):
    return sinh_plan(tau, InversionPlan(**settings))
