"""Suite dispatch of the verification runner, the stability report, and what
the Riemann, convergence and rescaling suites demand."""

import pytest

from probeflow import DomainError, PiecewiseConstant, fvsolver, rescaling_check, verify


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


def test_rescaling_suite_demands_the_exact_identity(monkeypatch):
    assert verify.verify_rescaling().passed
    eval_flux = fvsolver.eval_flux

    def perturbed(model, states, x, rho, windows=None):
        # a flux term that does not scale with the speed
        return eval_flux(model, states, x, rho, windows) + 1e-4 * rho

    monkeypatch.setattr(fvsolver, "eval_flux", perturbed)
    suite = verify.verify_rescaling()
    assert not suite.passed
    # the grid bound alone would have let the perturbed ratio-2 run through
    datum = PiecewiseConstant([0.0], [0.125, 0.375])
    report = rescaling_check(1.0, 2.0, datum, 1.0)
    assert 0.0 < report.discrepancy <= report.bound == 3.0 * 2.5e-3 * datum.tv()


def test_riemann_suite_runs_no_finite_volume_solve(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("verify riemann ran the finite-volume scheme")

    monkeypatch.setattr(verify, "run", no_run)
    suite = verify.verify_riemann()
    assert suite.passed
    assert "tracked=0.5, exact=0.5" in suite.checks[0].detail


@pytest.mark.parametrize(
    "errors, passed", [([4e-3, 2.9e-3, 2e-3], True), ([4e-3, 3.2e-3, 2e-3], False)]
)
def test_convergence_rows_need_order_04_on_each_rung(monkeypatch, errors, passed):
    monkeypatch.setattr(verify, "_riemann_ladder", lambda law, rho_l, rho_r: errors)
    monkeypatch.setattr(verify, "_self_convergence", lambda scenario, rungs: [4.0, 2.0, 1.0])
    checks = verify.verify_convergence().checks
    assert [check.passed for check in checks[:-1]] == [passed] * 5
    assert checks[-1].passed
