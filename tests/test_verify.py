"""Suite dispatch of the verification runner."""

from probeflow import verify


def test_seed_reaches_only_seeded_suites(monkeypatch):
    calls = {}

    def stub(name):
        def suite(**kwargs):
            calls[name] = kwargs
            return name

        return suite

    monkeypatch.setattr(
        verify, "_SUITE_FUNCS", {name: stub(name) for name in verify.SUITES}
    )
    assert verify.run_all(seed=7) == list(verify.SUITES)
    seeded = {"conservation", "lemma1", "lipschitz-stability"}
    assert calls == {
        name: {"seed": 7} if name in seeded else {} for name in verify.SUITES
    }
    calls.clear()
    verify.run_suite("lemma1")
    assert calls == {"lemma1": {}}
