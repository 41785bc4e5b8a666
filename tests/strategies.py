"""Hypothesis settings and table strategies shared by the property tests."""

import math

from hypothesis import settings
from hypothesis import strategies as st

from billiards import EllipseTable, PerturbedCircleTable

# Fixed examples and no example database: tier-1 stays reproducible.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
footpoints = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
ellipses = st.builds(lambda a, ratio: EllipseTable(a, a * ratio),
                     st.floats(0.5, 2.0), st.floats(0.1, 1.0))
# |eps| m^2 summed over at most three harmonics is at most 0.75, which keeps
# r^2 + 2 r'^2 - r r'' > 0: every drawn profile is strictly convex.
perturbed_circles = st.lists(
    st.tuples(st.integers(2, 5), st.floats(-0.01, 0.01), footpoints), min_size=1, max_size=3,
).map(lambda harmonics: PerturbedCircleTable(1.0, harmonics))
