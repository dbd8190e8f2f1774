"""Suite dispatch of the verification runner, and the stability report."""

import pytest

from probeflow import DomainError, verify


def test_seed_reaches_only_seeded_suites(monkeypatch):
    calls = {}

    def stub(name):
        def suite(**kwargs):
            calls[name] = kwargs
            return name

        return suite

    seeded = {"conservation", "lemma1", "lipschitz-stability"}
    names = list(verify.SUITES)
    assert names == [
        "phi",
        "riemann",
        "convergence",
        "conservation",
        "lemma1",
        "lipschitz-stability",
        "rescaling",
        "calibration",
    ]
    assert {name for name, (_, takes_seed) in verify.SUITES.items() if takes_seed} == seeded
    monkeypatch.setattr(
        verify,
        "SUITES",
        {name: (stub(name), takes_seed) for name, (_, takes_seed) in verify.SUITES.items()},
    )
    assert verify.run_all(seed=7) == names
    assert calls == {name: {"seed": 7} if name in seeded else {} for name in names}
    calls.clear()
    verify.run_suite("lemma1")
    assert calls == {"lemma1": {}}


def test_negative_seed_rejected_before_any_suite_runs(monkeypatch):
    calls = []

    def suite(**kwargs):
        calls.append(kwargs)

    monkeypatch.setattr(verify, "SUITES", {name: (suite, True) for name in verify.SUITES})
    for call in (lambda: verify.run_all(seed=-1), lambda: verify.run_suite("lemma1", seed=-1)):
        with pytest.raises(DomainError, match="seed must be a non-negative integer, got -1"):
            call()
    assert calls == []
    verify.run_all(seed=0)
    assert calls == [{"seed": 0}] * len(verify.SUITES)


def test_fractional_seed_rejected_before_any_suite_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "SUITES", {"lemma1": (lambda **kw: calls.append(kw), True)})
    with pytest.raises(DomainError, match="seed must be an integer, got 1.5"):
        verify.run_suite("lemma1", seed=1.5)
    assert calls == []


def test_stability_report_names_each_probe_moduli():
    suite = verify.verify_lipschitz_stability()
    assert suite.passed
    assert suite.checks[0].detail == (
        "C=85.33; probe 0: P=0.55, q_lo=0.3, L_hm=4.333, lip_g=2.667, lip_pdot=2.5"
    )
