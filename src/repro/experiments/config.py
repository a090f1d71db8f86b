"""Experiment scale presets and the canonical spec-string grammar.

The paper runs on ~47 k (Sports) and ~73 k (Neighbors) objects with dozens of
trials per configuration.  The drivers accept an :class:`ExperimentScale` so
the same code can run at full paper scale, at a laptop-friendly scale (the
default for the benchmark harness), or at a tiny scale for smoke tests.

This module is also the home of :class:`SpecString` — the one grammar behind
every ad-hoc textual knob in the library (``backend=`` specs, ``dispatch=``
modes, method spec strings).  Every consumer parses through
:func:`SpecString.parse`, so a typo produces the same error message whether
it arrives through a Python keyword argument, a CLI flag or the estimate
server's JSON request schema.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class SpecString:
    """One parsed ``name[:argument]`` or ``name:key=value,...`` spec string.

    The grammar is deliberately tiny — a lower-case name from a closed
    vocabulary, optionally followed by ``:`` and either a single positional
    argument or a comma-separated list of ``key=value`` options — because
    every textual knob in the library (query backends like
    ``"chunked:4096"`` or ``"sqlite:database=/path,pushdown=off"``,
    dispatch modes like ``"warm"``, method specs like ``"lss:dirsol"``)
    fits it.  :func:`parse` is the single validation point; all call sites
    therefore share one error message shape:

    * ``unknown <kind> 'x'; choose from (...)`` for a name outside the
      vocabulary,
    * ``<kind> 'x' takes no argument, got 'x:y'`` for an argument where none
      is allowed, and
    * ``<kind> 'x' takes no options, got 'x:k=v'`` for ``key=value`` options
      on a name that only accepts a plain argument (or none).

    Option *keys* may not contain commas or ``=``; option *values* may
    contain anything except a comma (so ``database=:memory:`` parses, but a
    path containing a comma cannot be spelled in a spec string).

    Attributes:
        kind: what the spec names (``"backend"``, ``"dispatch"``,
            ``"method"``); used only in error messages.
        name: the validated name part.
        argument: the text after ``:``, or ``None`` when absent or when the
            argument parsed as options.
        options: parsed ``key=value`` pairs, sorted by key; empty when the
            spec carries none.
    """

    kind: str
    name: str
    argument: str | None = None
    options: tuple[tuple[str, str], ...] = ()

    @classmethod
    def parse(
        cls,
        kind: str,
        value: str,
        names: Sequence[str],
        argument_names: Sequence[str] = (),
        option_names: Sequence[str] = (),
    ) -> "SpecString":
        """Parse and validate one spec string.

        Args:
            kind: label for error messages (``"backend"``, ``"dispatch"`` ...).
            value: the raw spec string.
            names: the closed vocabulary of valid names.
            argument_names: the subset of ``names`` that may carry a plain
                ``:argument`` suffix.
            option_names: the subset of ``names`` that may carry
                ``:key=value,...`` options.  Which keys (and values) are
                legal for a given name is the caller's vocabulary — see
                :meth:`validate_options`.
        """
        if not isinstance(value, str):
            raise TypeError(f"{kind} spec must be a string, got {type(value).__name__}")
        name, _, argument = value.partition(":")
        if name not in tuple(names):
            raise ValueError(f"unknown {kind} {name!r}; choose from {tuple(names)}")
        if argument and "=" in argument:
            if name not in tuple(option_names):
                raise ValueError(f"{kind} {name!r} takes no options, got {value!r}")
            options: list[tuple[str, str]] = []
            seen: set[str] = set()
            for piece in argument.split(","):
                key, equals, option_value = piece.partition("=")
                if not equals or not key:
                    raise ValueError(
                        f"malformed {kind} option {piece!r} in {value!r}: expected key=value"
                    )
                if key in seen:
                    raise ValueError(f"duplicate {kind} option {key!r} in {value!r}")
                seen.add(key)
                options.append((key, option_value))
            return cls(kind=kind, name=name, options=tuple(sorted(options)))
        if argument and name not in tuple(argument_names):
            raise ValueError(f"{kind} {name!r} takes no argument, got {value!r}")
        return cls(kind=kind, name=name, argument=argument or None)

    def option(self, key: str, default: str | None = None) -> str | None:
        """The value of one parsed option (``default`` when absent)."""
        for candidate, value in self.options:
            if candidate == key:
                return value
        return default

    def validate_options(
        self, vocabulary: Mapping[str, Sequence[str] | None]
    ) -> "SpecString":
        """Reject unknown option keys and out-of-vocabulary values.

        ``vocabulary`` maps each legal key to the tuple of values it accepts
        (``None`` for free-form values like filesystem paths).  Returns
        ``self`` so parsing call sites can chain.
        """
        for key, value in self.options:
            if key not in vocabulary:
                raise ValueError(
                    f"unknown {self.kind} option {key!r} for {self.name!r}; "
                    f"choose from {tuple(sorted(vocabulary))}"
                )
            allowed = vocabulary[key]
            if allowed is not None and value not in tuple(allowed):
                raise ValueError(
                    f"invalid {self.kind} option {key}={value!r}; "
                    f"choose from {tuple(allowed)}"
                )
        return self

    def without_default_options(self, defaults: Mapping[str, str]) -> "SpecString":
        """Drop options spelling out a default value (canonicalisation)."""
        kept = tuple(
            (key, value) for key, value in self.options if defaults.get(key) != value
        )
        if kept == self.options:
            return self
        return dataclasses.replace(self, options=kept)

    def int_argument(self, default: int) -> int:
        """The argument as a positive integer (``default`` when absent)."""
        if self.argument is None:
            return default
        try:
            parsed = int(self.argument)
        except ValueError:
            raise ValueError(
                f"invalid {self.kind} argument in {self.name + ':' + self.argument!r}: "
                "expected an integer"
            ) from None
        if parsed <= 0:
            raise ValueError(f"{self.kind} argument must be positive in {self.canonical!r}")
        return parsed

    @property
    def canonical(self) -> str:
        """The spec re-rendered in canonical form.

        ``name`` alone, ``name:argument``, or ``name:key=value,...`` with
        keys sorted — the stable spelling that participates in task
        fingerprints and cache keys.
        """
        if self.options:
            rendered = ",".join(f"{key}={value}" for key, value in self.options)
            return f"{self.name}:{rendered}"
        return self.name if self.argument is None else f"{self.name}:{self.argument}"


def parse_method_spec(value: str | dict, **overrides):
    """Build a :class:`~repro.parallel.methods.MethodSpec` from a spec string.

    The grammar is ``<method>[:<optimizer>]`` — e.g. ``"lss"``,
    ``"lss:dirsol"``, ``"srs"`` — validated against the same vocabularies the
    dataclass enforces, with keyword ``overrides`` forwarded to the
    constructor.  A dict value is treated as constructor keywords directly
    (the JSON-request form of the estimate server).  The parity CLI and the
    server's request schema both parse through here, so a bad method string
    fails identically everywhere.
    """
    from repro.core.lss import OPTIMIZERS
    from repro.parallel.methods import METHODS, MethodSpec

    if isinstance(value, dict):
        merged = {**value, **overrides}
        return MethodSpec(**merged)
    spec = SpecString.parse("method", value, METHODS, argument_names=("lss",))
    if spec.argument is not None:
        SpecString.parse("optimizer", spec.argument, OPTIMIZERS)
        overrides.setdefault("optimizer", spec.argument)
    return MethodSpec(method=spec.name, **overrides)


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how large an experiment run is.

    Attributes:
        sports_rows: number of rows generated for the Sports dataset.
        neighbors_rows: number of rows generated for the Neighbors dataset.
        num_trials: independent trials per estimator configuration.
        sample_fractions: sample sizes as fractions of the object count (the
            paper uses 1 % and 2 %).
        levels: selectivity levels to evaluate (subset of Table 1's XS…XXL).
        seed: master seed for the whole experiment.
        workers: process count for the trial loops (``1`` = serial, the
            default; ``None``/``0`` = all available CPUs).  Parallel runs
            are byte-identical to serial ones for the same seed, so this is
            purely a wall-clock knob.
    """

    sports_rows: int = 12_000
    neighbors_rows: int = 12_000
    num_trials: int = 7
    sample_fractions: tuple[float, ...] = (0.03,)
    levels: tuple[str, ...] = ("S", "L")
    seed: int = 20190621
    datasets: tuple[str, ...] = ("neighbors", "sports")
    workers: int | None = 1


#: Smoke-test scale: a few seconds per experiment.
TINY_SCALE = ExperimentScale(
    sports_rows=2_000,
    neighbors_rows=2_000,
    num_trials=3,
    sample_fractions=(0.03,),
    levels=("S",),
)

#: Benchmark scale: every experiment finishes in tens of seconds on a laptop.
#: Sample sizes are chosen so the absolute budget (~360 evaluations) is large
#: enough for the learning phase to train a usable classifier — the regime
#: the paper's 1-2% samples of 47k-73k objects correspond to.
SMALL_SCALE = ExperimentScale()

#: Full paper scale (Table 1 sizes, both sample fractions, all levels).
PAPER_SCALE = ExperimentScale(
    sports_rows=47_000,
    neighbors_rows=73_000,
    num_trials=30,
    sample_fractions=(0.01, 0.02),
    levels=("XS", "S", "M", "L", "XL", "XXL"),
)
