"""TEL rule tests: metric names registered, kind-correct, namespaced."""

from .conftest import rules_of

TELE = (
    "from repro.telemetry import get_telemetry\n"
    "tele = get_telemetry()\n"
)


class TestTEL001:
    def test_unregistered_metric(self, lint_source):
        result = lint_source(TELE + "tele.incr('bogus.metric')\n")
        assert rules_of(result) == ["TEL001"]

    def test_unregistered_family_fstring(self, lint_source):
        result = lint_source(
            TELE +
            "def f(stage):\n"
            "    tele.incr(f'bogus.family.{stage}')\n",
        )
        assert rules_of(result) == ["TEL001"]

    def test_registered_counter_is_clean(self, lint_source):
        result = lint_source(TELE + "tele.incr('ragged.packs')\n")
        assert result.diagnostics == []

    def test_registered_family_fstring_is_clean(self, lint_source):
        result = lint_source(
            TELE +
            "def f(rule):\n"
            "    tele.incr(f'diag_emitted.{rule}')\n",
        )
        assert result.diagnostics == []

    def test_allow_comment_suppresses(self, lint_source):
        result = lint_source(
            TELE + "tele.incr('bogus.metric')  # lint: allow[TEL001]\n",
        )
        assert result.diagnostics == []
        assert result.suppressed == {"TEL001": 1}


class TestTEL002:
    def test_observe_on_counter(self, lint_source):
        result = lint_source(TELE + "tele.observe('ragged.packs', 1.0)\n")
        assert rules_of(result) == ["TEL002"]

    def test_incr_on_histogram(self, lint_source):
        result = lint_source(TELE + "tele.incr('ragged.pack_members')\n")
        assert rules_of(result) == ["TEL002"]

    def test_observe_on_histogram_is_clean(self, lint_source):
        result = lint_source(
            TELE + "tele.observe('ragged.pack_members', 3.0)\n",
        )
        assert result.diagnostics == []

    def test_allow_comment_suppresses(self, lint_source):
        result = lint_source(
            TELE +
            "tele.observe('ragged.packs', 1.0)  # lint: allow[TEL002]\n",
        )
        assert result.diagnostics == []
        assert result.suppressed == {"TEL002": 1}


class TestTEL003:
    def test_malformed_name(self, lint_source):
        result = lint_source(TELE + "tele.incr('Bad.Name')\n")
        assert rules_of(result) == ["TEL003"]

    def test_dynamic_name_without_family_prefix(self, lint_source):
        result = lint_source(
            TELE +
            "def f(name):\n"
            "    tele.incr(f'{name}')\n",
        )
        assert rules_of(result) == ["TEL003"]

    def test_legacy_flat_name_is_grandfathered(self, lint_source):
        result = lint_source(TELE + "tele.incr('cache_hits')\n")
        assert result.diagnostics == []

    def test_allow_comment_suppresses(self, lint_source):
        result = lint_source(
            TELE + "tele.incr('Bad.Name')  # lint: allow[TEL003]\n",
        )
        assert result.diagnostics == []
        assert result.suppressed == {"TEL003": 1}


class TestReceivers:
    def test_get_telemetry_call_receiver(self, lint_source):
        result = lint_source(
            "from repro.telemetry import get_telemetry\n"
            "get_telemetry().incr('bogus.metric')\n",
        )
        assert rules_of(result) == ["TEL001"]

    def test_self_telemetry_attribute_receiver(self, lint_source):
        result = lint_source(
            "class Svc:\n"
            "    def f(self):\n"
            "        self.telemetry.incr('bogus.metric')\n",
        )
        assert rules_of(result) == ["TEL001"]

    def test_unrelated_incr_receiver_is_clean(self, lint_source):
        result = lint_source(
            "def f(version_counter):\n"
            "    version_counter.incr('whatever')\n",
        )
        assert result.diagnostics == []
