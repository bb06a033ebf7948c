"""E3 — Figure 1 and conditions B.1 / C.1–C.3 (Section 3): the 3-channel
Byzantine system "may fail if two of the channels obtained the same
incorrect value"; the 4-channel 1/2-degradable one gives the correct value
or the default.  Every channel subset up to two colluding faults.
Registry entry E3 (``repro.analysis.runner``).
"""

from conftest import run_full


def test_fig1_channel_systems(benchmark):
    run_full(benchmark, "E3")
