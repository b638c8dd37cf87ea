"""Velocity properties over random rules and graphons, on both pattern-product forms.

A rule is drawn row-stochastic with k <= 4 and a random share of moving
rows (so both the support sum and the two-stage sum occur), a graphon
with 1 to 12 parts and random masses and values, so that the pattern
probabilities of a plan are formed both below and from `_SEQ_ELEMS`
gathered factors on: by one take and reduce, or in place pair by pair.
"""

import sys
from math import comb

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipflow import Rule, VelocityPlan, velocity

from conftest import random_graphon, random_rule

PROPERTY = settings(max_examples=150, deadline=None, database=None)
VELOCITY = sys.modules[VelocityPlan.__module__]


@PROPERTY
@given(st.integers(2, 4), st.integers(1, 12), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
@example(4, 12, 1.0, 0)  # two-stage sum, in place
@example(4, 12, 0.03, 0)  # support sum, in place
@example(3, 2, 1.0, 0)  # reduce
def test_velocity_properties(k, m, active, seed):
    rng = np.random.default_rng(seed)
    rule = random_rule(rng, k, active)
    w = random_graphon(rng, m)
    v = velocity(rule, w).values
    k2 = k * (k - 1)
    assert np.array_equal(v, v.T)
    assert np.all(v >= -k2 * w.values - 1e-12)
    assert np.all(v <= k2 * (1.0 - w.values) + 1e-12)
    idle = Rule(k, [[(f, 1.0)] for f in range(1 << comb(k, 2))])
    assert not velocity(idle, w).values.any()

    plan = VelocityPlan(rule, w.masses)
    y = plan.pack(w.values)
    z = np.concatenate((1.0 - y, y))
    for gather, _, _ in plan._chunks:
        factors = z[gather]
        for index in plan._bits:
            expect = np.multiply.reduce(factors.take(index, axis=0), axis=0)
            assert np.array_equal(VELOCITY._pattern_probs(factors, index), expect)


def test_plans_fall_on_both_sides_of_the_in_place_threshold():
    # the drawn (k, m) reach both forms of the pattern product
    rng = np.random.default_rng(0)
    sizes = []
    for k, m, active in ((2, 1, 1.0), (3, 2, 1.0), (4, 12, 1.0), (4, 12, 0.03)):
        plan = VelocityPlan(random_rule(rng, k, active), np.full(m, 1.0 / m))
        sizes += [index.size * gather.shape[1] for gather, _, _ in plan._chunks for index in plan._bits]
    assert min(sizes) < VELOCITY._SEQ_ELEMS <= max(sizes)
