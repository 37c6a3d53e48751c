"""tspgap: structured TSP instances with certified subtour-LP integrality gaps.

Exact optimal tours (Held-Karp), an exact cutting-plane solver for the
subtour relaxation, the plane/space instance families with their closed-form
ratios and certificates, T-join lower bounds for subdivided graphs,
gradient-based local search, and the ellipse construction.
"""

from .core import (
    EdgeWeightVector,
    Instance,
    NormSpec,
    Tour,
    degree_vector,
    distance,
    edge_index,
    fractional_cost,
    tour_length,
)
from .exact import ExactResult, enumerate_tours, held_karp, heuristic_tour, integrality_ratio
from .lp import (
    Cut,
    LinearProgram,
    LpError,
    LpSolution,
    SubtourLpResult,
    separate_subtour,
    solve_lp,
    solve_subtour_lp,
)

__version__ = "0.1.0"
