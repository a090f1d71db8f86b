"""JSON request/response shaping for the estimate server.

One place defines what travels over the wire, shared by the server, the smoke
check and the example client.  Requests reuse the same spec grammars as the
library (``parse_method_spec`` for methods — a ``"lss:dirsol"`` string and a
``{"method": "lss", "optimizer": "dirsol"}`` object are the same request),
so a curl invocation, a CLI flag and a programmatic call cannot drift apart.
Responses carry each estimate's hex digest and the request's combined
fingerprint, making every served number verifiable against a serial run.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from repro.parallel.methods import MethodSpec
from repro.service.session import EstimateResult, SweepResult


class RequestError(ValueError):
    """A malformed request body (the server answers 400 with the message)."""


class PayloadTooLarge(RequestError):
    """A request body above the server's size limit (answered 413, unread).

    Raised from the declared ``Content-Length`` *before* any body bytes are
    read or parsed — an oversized payload costs the server one header scan,
    never a buffer allocation.
    """


def _require_mapping(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    return payload


def _optional_int(payload: dict, name: str, minimum: int = 1) -> int | None:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name!r} must be an integer")
    if value < minimum:
        raise RequestError(f"{name!r} must be at least {minimum}")
    return value


def _optional_level(value: Any, name: str = "level") -> "str | float | None":
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise RequestError(f"{name!r} must be a level name or a selectivity fraction")
    if isinstance(value, (int, float)):
        return float(value)
    raise RequestError(f"{name!r} must be a level name or a selectivity fraction")


#: JSON value types accepted for each ``MethodSpec`` field annotation.
_METHOD_FIELD_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
}


def _check_method_object(method: dict) -> None:
    """Reject a method object ``MethodSpec(**method)`` could not take."""
    annotations = {spec_field.name: spec_field.type for spec_field in fields(MethodSpec)}
    unknown = set(method) - set(annotations)
    if unknown:
        raise RequestError(
            f"unknown method fields {sorted(unknown)!r}; "
            f"a method object takes {list(annotations)!r}"
        )
    if "method" not in method:
        raise RequestError("a method object must name its 'method'")
    for name, value in method.items():
        types, description = _METHOD_FIELD_TYPES[annotations[name]]
        if isinstance(value, bool) or not isinstance(value, types):
            raise RequestError(f"method field {name!r} must be {description}")


def parse_estimate_request(payload: Any) -> dict:
    """Validate a ``POST /estimate`` body into ``Session.estimate`` kwargs."""
    payload = _require_mapping(payload)
    allowed = {
        "method", "dataset", "level", "budget", "budget_fraction", "num_trials", "seed",
    }
    unknown = set(payload) - allowed
    if unknown:
        raise RequestError(f"unknown estimate fields {sorted(unknown)!r}")
    method = payload.get("method", "lss")
    if not isinstance(method, (str, dict)):
        raise RequestError("'method' must be a spec string or an object")
    if isinstance(method, dict):
        _check_method_object(method)
    kwargs: dict = {
        "dataset": payload.get("dataset"),
        "level": _optional_level(payload.get("level")),
        "budget": _optional_int(payload, "budget"),
        "num_trials": _optional_int(payload, "num_trials") or 1,
        "seed": _optional_int(payload, "seed", minimum=0) or 0,
    }
    fraction = payload.get("budget_fraction")
    if fraction is not None:
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
            raise RequestError("'budget_fraction' must be a number")
        kwargs["budget_fraction"] = float(fraction)
    return {"method": method, **kwargs}


def parse_sweep_request(payload: Any) -> dict:
    """Validate a ``POST /sweep`` body into ``Session.sweep`` kwargs."""
    payload = _require_mapping(payload)
    allowed = {
        "levels", "method", "dataset", "anchor_level", "budget", "budget_fraction",
        "num_trials", "seed", "learn_budget", "learn_seed", "classifier",
        "num_strata", "optimizer",
    }
    unknown = set(payload) - allowed
    if unknown:
        raise RequestError(f"unknown sweep fields {sorted(unknown)!r}")
    levels = payload.get("levels")
    if not isinstance(levels, list) or not levels:
        raise RequestError("'levels' must be a non-empty list")
    method = payload.get("method", "lss")
    if not isinstance(method, str):
        raise RequestError("'method' must be a string ('lss' or 'lws')")
    kwargs: dict = {
        "levels": [_optional_level(value, "levels") for value in levels],
        "method": method,
        "dataset": payload.get("dataset"),
        "anchor_level": _optional_level(payload.get("anchor_level"), "anchor_level"),
        "budget": _optional_int(payload, "budget"),
        "num_trials": _optional_int(payload, "num_trials") or 1,
        "seed": _optional_int(payload, "seed", minimum=0) or 0,
        "learn_budget": _optional_int(payload, "learn_budget", minimum=2),
        "learn_seed": _optional_int(payload, "learn_seed", minimum=0),
    }
    classifier = payload.get("classifier")
    if classifier is not None:
        if not isinstance(classifier, str):
            raise RequestError("'classifier' must be a string")
        kwargs["classifier"] = classifier
    num_strata = _optional_int(payload, "num_strata", minimum=2)
    if num_strata is not None:
        kwargs["num_strata"] = num_strata
    optimizer = payload.get("optimizer")
    if optimizer is not None:
        if not isinstance(optimizer, str):
            raise RequestError("'optimizer' must be a string")
        kwargs["optimizer"] = optimizer
    fraction = payload.get("budget_fraction")
    if fraction is not None:
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
            raise RequestError("'budget_fraction' must be a number")
        kwargs["budget_fraction"] = float(fraction)
    return kwargs


def estimate_payload(result: EstimateResult) -> dict:
    """The wire form of one served estimate batch."""
    return {
        "method": result.method,
        "dataset": result.dataset,
        "level": result.level,
        "budget": result.budget,
        "true_count": result.true_count,
        "estimates": [
            {
                "count": float(estimate.count),
                "proportion": float(estimate.proportion),
                "population_size": int(estimate.population_size),
                "predicate_evaluations": int(estimate.predicate_evaluations),
                "estimate_digest": digest,
            }
            for estimate, digest in zip(result.estimates, result.digests)
        ],
        "fingerprint": result.fingerprint,
    }


def sweep_payload(result: SweepResult) -> dict:
    """The wire form of one served sweep."""
    return {
        "method": result.method,
        "budget": result.budget,
        "anchor_level": result.anchor_level,
        "learning_runs": result.learning_runs,
        "points": [estimate_payload(point) for point in result.points],
        "fingerprint": result.fingerprint,
    }
