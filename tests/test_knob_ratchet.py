"""Ratchet: the configuration surfaces grow no new knob unnoticed.

A knob is a value a caller may leave at its default
(``tests/count_statements.py`` defines and counts them).  Each one is a
branch some run may never take, so the count only goes down: a change
that adds a knob raises :data:`CEILING` in the same change and says why
in ``CHANGES.md``; a change that removes some lowers it.
"""

from tests.count_statements import knobs

#: the knobs on ``count_statements.SURFACES`` today
CEILING = 36


def test_no_configuration_surface_gains_a_knob():
    assert knobs() <= CEILING
