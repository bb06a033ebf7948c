"""A registry entry fails, and names the claim, when one cell it judges
fails: each helper below is the real one with a single cell broken."""

import dataclasses

from repro.analysis import runner
from repro.clocksync.convergence import InteractiveConvergence
from repro.clocksync.witnesses import WitnessedClockSystem


def failed_claims(exp_id, size="quick"):
    result = runner.EXPERIMENTS[exp_id](size)
    assert not result.passed
    return result.details["failed"]


def test_e6_judges_crusader_against_its_run(monkeypatch):
    real = runner.run_crusader

    def one_message_more(f, *args):
        result = real(f, *args)
        if f == 2:
            result.stats.messages += 1
        return result

    monkeypatch.setattr(runner, "run_crusader", one_message_more)
    assert failed_claims("E6", "full") == [
        "Crusader f=2: closed form == run_crusader's count"
    ]


def test_e7_names_the_grid_with_a_failing_cell(monkeypatch):
    real = runner.evaluate_conjecture

    def one_cell_fails(spec):
        evaluation = real(spec)
        if spec.n_nodes == 5:
            evaluation.cells[-1].holds = False
        return evaluation

    monkeypatch.setattr(runner, "evaluate_conjecture", one_cell_fails)
    assert failed_claims("E7") == [
        "1/2 on 5 clocks: condition 1 to f=m, 2 to f=u, every cell"
    ]


def test_e7b_a_contrast_at_a_third_fails_linear_growth(monkeypatch):
    class QuietInside(InteractiveConvergence):
        def run(self, *args, **kwargs):
            history = super().run(*args, **kwargs)
            if len(self.ensemble.faulty) == 2:
                history.rounds[-1].skew_after = 0.5
            return history

    monkeypatch.setattr(runner, "InteractiveConvergence", QuietInside)
    assert failed_claims("E7b") == ["N=7: skew/f equal within 1% at f=2 and f=3"]


def test_e7c_names_the_system_whose_skew_leaves_delta(monkeypatch):
    class Drifting(WitnessedClockSystem):
        def run(self, *args, **kwargs):
            report = super().run(*args, **kwargs)
            report.history.rounds[2].skew_after = 0.3
            return report

    monkeypatch.setattr(runner, "WitnessedClockSystem", Drifting)
    assert failed_claims("E7c") == [
        "5 processors, 2 clock faults: under a third of the clocks, within "
        "delta every round, final skew < 0.01"
    ]


def test_e9b_names_the_instance_with_a_broken_placement(monkeypatch):
    real = runner.classify_vectors

    def one_placement_fails(spec, vectors, private, faulty):
        report = real(spec, vectors, private, faulty)
        if faulty == {"S", "p3"}:
            return dataclasses.replace(report, satisfied=False)
        return report

    monkeypatch.setattr(runner, "classify_vectors", one_placement_fails)
    assert failed_claims("E9b") == [
        "1/2/5: V.1 to f=m, V.2 to f=u, all 16 placements"
    ]


def test_e11_names_the_two_class_claim(monkeypatch):
    real = runner.mixed_fault_grid

    def one_cell_loses_both(spec, **kwargs):
        study = real(spec, **kwargs)
        study.cell(2, 1).degraded_ok -= 1
        return study

    monkeypatch.setattr(runner, "mixed_fault_grid", one_cell_loses_both)
    assert failed_claims("E11") == [
        "two-class in every non-vacuous cell with b <= u"
    ]
