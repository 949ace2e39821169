from qpspec import checks


def test_crashing_check_named_after_its_function(generic_problem, monkeypatch):
    def boom(s):
        raise RuntimeError("boom")

    monkeypatch.setattr(checks, "max_correct_length", boom)
    results = checks.run_selftest(generic_problem)
    crashed = [r for r in results if not r.passed]
    assert [r.name for r in crashed] == ["_words"]
    assert "boom" in crashed[0].detail
