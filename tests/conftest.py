"""Hypothesis profiles for the test suite.

``python -m pytest --hypothesis-profile=ci`` runs the plan-equivalence
property (``test_models.test_plan_matches_per_term_sum_bit_for_bit``)
on 1000 examples; properties that set their own count keep it.
"""
from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
