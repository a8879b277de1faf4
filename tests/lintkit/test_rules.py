"""Per-rule behaviour on the fixture mini-repo: every rule has at least
one fixture that triggers it and one that deliberately avoids it."""

from collections import Counter

from .conftest import run_lint


def codes(findings):
    return [f.code for f in findings]


class TestRPL001UnitLiterals:
    def test_flags_multiplicative_conversion_literals(self):
        findings = run_lint("bad_literals.py", select=["RPL001"])
        assert codes(findings) == ["RPL001"] * 4
        assert [f.line for f in findings] == [5, 6, 7, 8]

    def test_exempts_tolerances_counts_and_magnitudes(self):
        findings = run_lint("bad_literals.py", select=["RPL001"])
        flagged_lines = {f.line for f in findings}
        # non_violations() body: int counts, additive tolerances, 2e-6,
        # and a bare constant — none may appear.
        assert flagged_lines.isdisjoint(range(12, 19))

    def test_units_module_is_exempt(self):
        assert run_lint("src/repro/units.py", select=["RPL001"]) == []

    def test_messages_point_at_repro_units(self):
        findings = run_lint("bad_literals.py", select=["RPL001"])
        assert all("repro.units" in f.message for f in findings)


class TestRPL002Dimensions:
    def test_flags_mismatched_bindings(self):
        findings = run_lint("src/repro/delay/models.py", select=["RPL002"])
        assert codes(findings) == ["RPL002"] * 4

    def test_dimension_vs_scale_messages(self):
        findings = run_lint("src/repro/delay/models.py", select=["RPL002"])
        messages = " | ".join(f.message for f in findings)
        assert "dimension mismatch (time vs length)" in messages
        assert "dimension mismatch (frequency vs length)" in messages
        assert "unit-scale mismatch (_um vs _m)" in messages
        # the suffix-returning assignment check
        assert "assigned to 'span2_m'" in messages

    def test_matching_and_unsuffixed_bindings_pass(self):
        findings = run_lint("src/repro/delay/models.py", select=["RPL002"])
        lines = {f.line for f in findings}
        assert lines == {17, 18, 19, 21}  # exactly the bad bindings
        assert 15 not in lines  # wire_delay_s(span_m): suffix matches
        assert 16 not in lines  # wire_delay_s(load): unsuffixed arg
        assert 20 not in lines  # delay_s = wire_delay_s(...): suffix matches


class TestRPL003Determinism:
    def test_flags_all_nondeterminism_classes(self):
        findings = run_lint(
            "src/repro/core/bad_determinism.py", select=["RPL003"]
        )
        assert len(findings) == 11
        messages = " | ".join(f.message for f in findings)
        assert "wall-clock read 'time.time()'" in messages
        assert "wall-clock read 'now()'" in messages
        assert "process-global RNG call 'random.random()'" in messages
        assert "numpy global-RNG call 'np.random.rand()'" in messages
        assert "unseeded 'random.Random()'" in messages
        assert "unseeded 'np.random.default_rng()'" in messages
        assert "SystemRandom" in messages
        assert "iterating a set" in messages
        assert "list(set(...))" in messages

    def test_approved_spellings_pass(self):
        assert (
            run_lint("src/repro/core/good_determinism.py", select=["RPL003"])
            == []
        )

    def test_out_of_scope_module_ignored(self):
        # bad_literals.py is not under a scoped package: even a wall
        # clock there would be out of scope for this rule.
        assert run_lint("bad_literals.py", select=["RPL003"]) == []


class TestRPL004FacadeBoundary:
    def test_flags_relative_internal_imports(self):
        findings = run_lint(
            "src/repro/service/bad_caller.py", select=["RPL004"]
        )
        assert codes(findings) == ["RPL004"] * 2
        messages = " | ".join(f.message for f in findings)
        assert "'repro.core.dp'" in messages
        assert "'repro.assign'" in messages

    def test_flags_absolute_internal_imports(self):
        findings = run_lint("tools/bad_tool.py", select=["RPL004"])
        assert codes(findings) == ["RPL004"] * 2

    def test_facade_and_type_checking_imports_pass(self):
        assert run_lint("tools/good_tool.py", select=["RPL004"]) == []


class TestRPL005ObsGuard:
    def test_flags_registry_imports_and_unguarded_publishes(self):
        findings = run_lint("src/repro/core/bad_obs.py", select=["RPL005"])
        assert codes(findings) == ["RPL005"] * 5
        messages = " | ".join(f.message for f in findings)
        assert "import of 'registry'" in messages
        assert "import of '_REGISTRY'" in messages
        assert "registry().inc(...)" in messages
        assert "registry().observe(...)" in messages
        assert "'_REGISTRY.gauge(...)'" in messages

    def test_guarded_helpers_pass(self):
        assert run_lint("src/repro/core/good_obs.py", select=["RPL005"]) == []


class TestRPL006Swallow:
    def test_flags_all_swallow_shapes(self):
        findings = run_lint(
            "src/repro/runner/bad_swallow.py", select=["RPL006"]
        )
        assert codes(findings) == ["RPL006"] * 5
        messages = " | ".join(f.message for f in findings)
        assert "bare 'except:'" in messages
        assert "swallows the failure" in messages

    def test_surfacing_handlers_pass(self):
        # re-raise, wrap-and-raise, return-with-value, obs counter,
        # wrapper helper (obs_inc), logger, and a narrow except.
        assert (
            run_lint("src/repro/runner/good_swallow.py", select=["RPL006"])
            == []
        )

    def test_out_of_scope_module_ignored(self):
        # core is not a recovery package: a swallow there is RPL006-clean
        # (bad_obs.py has broad handlers only lintkit's scope exempts).
        assert run_lint("src/repro/core/bad_obs.py", select=["RPL006"]) == []
        assert run_lint("bad_literals.py", select=["RPL006"]) == []


class TestRPL000SyntaxError:
    def test_unparsable_file_yields_one_finding(self):
        findings = run_lint("bad_syntax.py")
        assert codes(findings) == ["RPL000"]
        assert "syntax error" in findings[0].message
        assert (findings[0].path, findings[0].line) == ("bad_syntax.py", 1)


class TestNoqa:
    def test_inline_suppression_forms(self):
        findings = run_lint("suppressed.py", select=["RPL001"])
        # bare noqa, exact code, and code-in-list all suppress; a noqa
        # naming a different code does not.
        assert len(findings) == 1
        assert findings[0].line == 8


class TestWholeProject:
    def test_by_code_census(self):
        findings = run_lint()  # the entire mini-repo
        assert Counter(f.code for f in findings) == {
            "RPL000": 1,
            "RPL001": 5,
            "RPL002": 4,
            "RPL003": 11,
            "RPL004": 4,
            "RPL005": 5,
            "RPL006": 5,
            "RPL007": 3,
            "RPL008": 2,
            "RPL011": 2,
        }

    def test_findings_sorted_and_relative(self):
        findings = run_lint()
        keys = [(f.path, f.line, f.col, f.code) for f in findings]
        assert keys == sorted(keys)
        assert all(not f.path.startswith("/") for f in findings)

    def test_ignore_drops_a_code(self):
        findings = run_lint(ignore=["RPL003"])
        assert "RPL003" not in {f.code for f in findings}
