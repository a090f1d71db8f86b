"""The shared ``name[:argument]`` spec-string grammar.

One parser (:class:`repro.experiments.config.SpecString`) now backs every
ad-hoc spec knob — backend specs, parallel dispatch modes and method specs —
so error shapes and canonical forms cannot drift between the CLI, the
workload specs and the server's JSON schema.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SpecString, parse_method_spec
from repro.parallel.methods import MethodSpec
from repro.query.backends import canonical_backend_spec
from repro.service.session import Session
from repro.workloads.queries import WorkloadSpec


class TestSpecString:
    def test_bare_name(self):
        parsed = SpecString.parse("backend", "numpy", ("numpy", "sqlite"))
        assert parsed.name == "numpy" and parsed.argument is None
        assert parsed.canonical == "numpy"

    def test_name_with_argument(self):
        parsed = SpecString.parse(
            "backend", "chunked:512", ("numpy", "chunked"), argument_names=("chunked",)
        )
        assert parsed.name == "chunked" and parsed.argument == "512"
        assert parsed.canonical == "chunked:512"
        assert parsed.int_argument(4096) == 512

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            SpecString.parse("backend", "bogus", ("numpy", "sqlite"))

    def test_argument_on_argless_name_rejected(self):
        with pytest.raises(ValueError, match="takes no argument"):
            SpecString.parse("dispatch", "warm:3", ("warm", "cold"))

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            SpecString.parse("backend", 7, ("numpy",))

    @pytest.mark.parametrize("argument", ["0", "-2", "x"])
    def test_bad_int_arguments(self, argument):
        parsed = SpecString.parse(
            "backend", f"chunked:{argument}", ("chunked",), argument_names=("chunked",)
        )
        with pytest.raises(ValueError):
            parsed.int_argument(4096)


class TestGrammarConsumers:
    def test_backend_spec_canonicalisation(self):
        assert canonical_backend_spec("sqlite:database=:memory:") == "sqlite"
        assert canonical_backend_spec("sqlite") == "sqlite"
        for removed in ("postgres", "chunked", "chunked:64"):
            with pytest.raises(ValueError, match="unknown backend"):
                canonical_backend_spec(removed)
        with pytest.raises(ValueError, match="unknown backend option 'pushdown'"):
            canonical_backend_spec("sqlite:pushdown=off")

    def test_workload_spec_uses_grammar(self):
        spec = WorkloadSpec(dataset="neighbors", backend="sqlite:database=:memory:")
        assert spec.backend == "sqlite"
        with pytest.raises(ValueError, match="unknown backend 'chunked'"):
            WorkloadSpec(dataset="neighbors", backend="chunked")

    def test_dispatch_uses_grammar(self):
        # ``warm`` is the only dispatch mode; the removed ``cold`` mode is
        # rejected like any other unknown name.
        for mode in ("lukewarm", "cold"):
            with pytest.raises(ValueError, match="unknown dispatch"):
                Session(dispatch=mode)
        Session(workers=2, dispatch="warm").close()

    def test_method_spec_string(self):
        spec = parse_method_spec("lss:logbdr", num_strata=3)
        assert isinstance(spec, MethodSpec)
        assert spec.method == "lss" and spec.optimizer == "logbdr" and spec.num_strata == 3

    def test_method_spec_bare_name(self):
        assert parse_method_spec("srs").method == "srs"

    def test_method_spec_dict_form(self):
        spec = parse_method_spec({"method": "lws", "classifier_name": "knn"})
        assert spec.method == "lws" and spec.classifier_name == "knn"

    def test_only_lss_takes_an_optimizer(self):
        with pytest.raises(ValueError, match="takes no argument"):
            parse_method_spec("srs:dynpgm")

    def test_unknown_method_and_optimizer(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_method_spec("bogus")
        with pytest.raises(ValueError, match="unknown optimizer"):
            parse_method_spec("lss:bogus")
        with pytest.raises(ValueError, match="unknown optimizer"):
            parse_method_spec({"method": "lss", "optimizer": "bogus"})
