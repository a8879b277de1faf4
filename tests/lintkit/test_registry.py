"""Rule-plugin registry: registration contract and rule selection."""

import pytest

from repro.lintkit import all_rules
from repro.lintkit.registry import Rule, _RULES, register, select_rules


class TestBuiltinRules:
    def test_five_repo_rules_registered(self):
        codes = [cls.code for cls in all_rules()]
        for expected in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005"):
            assert expected in codes
        assert codes == sorted(codes)

    def test_every_rule_documents_itself(self):
        for cls in all_rules():
            assert cls.code.startswith("RPL")
            assert cls.name
            assert len(cls.description) > 20


class TestRegister:
    def test_duplicate_code_rejected(self):
        class Impostor(Rule):
            code = "RPL001"
            name = "impostor"
            description = "claims an existing code"

        with pytest.raises(ValueError, match="duplicate rule code"):
            register(Impostor)

    def test_missing_code_rejected(self):
        class Nameless(Rule):
            description = "has no code"

        with pytest.raises(ValueError, match="has no code"):
            register(Nameless)

    def test_custom_rule_registers_and_unregisters(self):
        class Custom(Rule):
            code = "RPL901"
            name = "custom"
            description = "a test-only rule to prove the plugin path"

        try:
            register(Custom)
            assert _RULES["RPL901"] is Custom
            instances = select_rules(select=["RPL901"])
            assert len(instances) == 1 and isinstance(instances[0], Custom)
        finally:
            _RULES.pop("RPL901", None)


class TestSelectRules:
    def test_fresh_instances_per_run(self):
        first = select_rules(select=["RPL002"])
        second = select_rules(select=["RPL002"])
        assert first[0] is not second[0]

    def test_select_then_ignore(self):
        active = select_rules(
            select=["RPL001", "RPL003"], ignore=["RPL003"]
        )
        assert [r.code for r in active] == ["RPL001"]

    def test_unknown_codes_raise(self):
        with pytest.raises(KeyError):
            select_rules(select=["RPL777"])
        with pytest.raises(KeyError):
            select_rules(ignore=["RPL777"])
