"""JSON request bodies <-> typed API requests, with structured 400 errors.

The service exposes exactly the request types the library already has
(:class:`EstimateRequest`, :class:`SweepRequest`, :class:`ValidateRequest`,
:class:`DseRequest`, :class:`ExperimentRequest`); this module is the thin,
strict deserialization layer in front of them.  Strict means:

* unknown body fields are rejected (a typo'd ``"bacth"`` is a 400, not a
  silently-default batch);
* unknown network / GPU / experiment ids are rejected *at parse time*, so
  the client gets a 400 naming the id instead of a 500 from deep inside the
  executor;
* every rejection raises :class:`BadRequest`, which the app maps onto an
  HTTP 400 whose body has the same structured shape as a
  ``Report(kind="error")``.

Each parse also produces the request's *content key*: a stable SHA-1 over
the canonical (normalized) request payload.  The key is what the server-wide
coalescing cache dedupes on — two bodies that normalize to the same request
(``"AlexNet"`` vs ``"alexnet"``, reordered fields, default vs explicit
values) share one execution and one memo slot, the request-level analogue of
the session's ``structural_key``-based work-unit keys.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..api.requests import (DseRequest, EstimateRequest, ExperimentRequest,
                            Request, SweepRequest, ValidateRequest)
from ..dse.space import (AXIS_KEYS, Axis, SearchSpace, default_space,
                         space_from_axes)
from ..experiments.registry import available_experiments
from ..gpu.devices import get_device
from ..networks.registry import available_networks


class BadRequest(ValueError):
    """A request body the service refuses: malformed, unknown ids, bad types."""


@dataclass(frozen=True)
class ParsedRequest:
    """One deserialized request plus its coalescing identity."""

    #: the route's typed request, ready for ``Session.run``.
    request: Request
    #: stable content key of the normalized request (sha1 hex digest).
    key: str
    #: run asynchronously as a job instead of inline (body field ``"job"``).
    as_job: bool
    #: record a deep execution trace on the job (body field ``"trace"``);
    #: only valid together with ``"job": true``.
    with_trace: bool = False


# ----------------------------------------------------------------------
# Field coercion helpers (every failure is a BadRequest naming the field)
# ----------------------------------------------------------------------

def _check_fields(body: Mapping[str, object], allowed: Sequence[str],
                  route: str) -> None:
    if not isinstance(body, Mapping):
        raise BadRequest(
            f"{route}: request body must be a JSON object, "
            f"got {type(body).__name__}")
    unknown = sorted(set(body) - set(allowed) - {"job", "trace"})
    if unknown:
        raise BadRequest(
            f"{route}: unknown field(s) {unknown}; "
            f"accepted fields are {sorted(allowed)} "
            f"(plus \"job\" and \"trace\")")


def _bool(body: Mapping[str, object], field: str, default: bool,
          route: str) -> bool:
    value = body.get(field, default)
    if not isinstance(value, bool):
        raise BadRequest(f"{route}: field {field!r} must be a boolean, "
                         f"got {value!r}")
    return value


def _int(body: Mapping[str, object], field: str, default: Optional[int],
         route: str) -> Optional[int]:
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{route}: field {field!r} must be an integer, "
                         f"got {value!r}")
    return value


def _float(body: Mapping[str, object], field: str,
           route: str) -> Optional[float]:
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{route}: field {field!r} must be a number, "
                         f"got {value!r}")
    return float(value)


def _job_flags(body: Mapping[str, object], route: str) -> Tuple[bool, bool]:
    """The shared ``"job"``/``"trace"`` execution flags of every route.

    A deep trace is recorded per *job* (attached to its poll payload), so
    ``"trace": true`` on a synchronous request is a 400 — synchronous
    responses already carry the per-phase ``meta["timing"]`` breakdown.
    """
    as_job = _bool(body, "job", False, route)
    with_trace = _bool(body, "trace", False, route)
    if with_trace and not as_job:
        raise BadRequest(
            f"{route}: \"trace\" requires \"job\": true — synchronous "
            f"responses carry meta[\"timing\"] instead; submit a job and "
            f"poll /v1/jobs/{{id}} for the chrome trace")
    return as_job, with_trace


def _str(body: Mapping[str, object], field: str, default: Optional[str],
         route: str) -> Optional[str]:
    value = body.get(field, default)
    if value is None:
        return None
    if not isinstance(value, str):
        raise BadRequest(f"{route}: field {field!r} must be a string, "
                         f"got {value!r}")
    return value


def _str_list(body: Mapping[str, object], field: str,
              route: str) -> Optional[Tuple[str, ...]]:
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, str):
        value = [value]
    if (not isinstance(value, Sequence)
            or not all(isinstance(item, str) for item in value)
            or not value):
        raise BadRequest(f"{route}: field {field!r} must be a non-empty "
                         f"list of strings, got {value!r}")
    return tuple(value)


def _int_list(body: Mapping[str, object], field: str,
              route: str) -> Optional[Tuple[int, ...]]:
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, int):
        value = [value]
    if (not isinstance(value, Sequence) or not value
            or not all(isinstance(item, int) and not isinstance(item, bool)
                       for item in value)):
        raise BadRequest(f"{route}: field {field!r} must be a non-empty "
                         f"list of integers, got {value!r}")
    return tuple(value)


# ----------------------------------------------------------------------
# Registry validation (400 for unknown ids, never a deep 500)
# ----------------------------------------------------------------------

def _check_network(name: str, route: str) -> str:
    key = name.strip().lower()
    known = available_networks()
    if key not in known:
        raise BadRequest(f"{route}: unknown network {name!r}; "
                         f"known networks: {known}")
    return key


def _check_gpu(name: str, route: str) -> str:
    key = name.strip().lower()
    try:
        get_device(key)
    except KeyError as exc:
        raise BadRequest(f"{route}: {exc.args[0]}") from None
    return key


def _check_experiment(name: str, route: str) -> str:
    key = name.strip().lower()
    known = available_experiments()
    if key not in known:
        raise BadRequest(f"{route}: unknown experiment {name!r}; "
                         f"known experiments: {known}")
    return key


# ----------------------------------------------------------------------
# Per-route parsers
# ----------------------------------------------------------------------

def _wrap_construction(route: str, build) -> Request:
    """Constructor ``ValueError``/``TypeError`` (bad batch, ...) -> 400."""
    try:
        return build()
    except BadRequest:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise BadRequest(f"{route}: {exc}") from exc


def parse_estimate(body: Mapping[str, object]) -> ParsedRequest:
    route = "estimate"
    fields = ("network", "gpu", "batch", "unique", "paper_subset", "passes")
    _check_fields(body, fields, route)
    network = _str(body, "network", None, route)
    if network is None:
        raise BadRequest(f"{route}: field 'network' is required")
    request = _wrap_construction(route, lambda: EstimateRequest(
        network=_check_network(network, route),
        gpu=_check_gpu(_str(body, "gpu", "titanxp", route), route),
        batch=_int(body, "batch", 256, route),
        unique=_bool(body, "unique", False, route),
        paper_subset=_bool(body, "paper_subset", False, route),
        passes=_str(body, "passes", "forward", route),
    ))
    canonical = {
        "route": route, "network": request.network, "gpu": request.gpu,
        "batch": request.batch, "unique": request.unique,
        "paper_subset": request.paper_subset, "passes": request.passes,
    }
    return ParsedRequest(request, _content_key(canonical),
                         *_job_flags(body, route))


def parse_sweep(body: Mapping[str, object]) -> ParsedRequest:
    route = "sweep"
    fields = ("networks", "gpus", "batches", "unique", "paper_subset",
              "passes")
    _check_fields(body, fields, route)
    networks = _str_list(body, "networks", route) or (
        "alexnet", "vgg16", "googlenet", "resnet152")
    gpus = _str_list(body, "gpus", route) or ("titanxp", "v100")
    request = _wrap_construction(route, lambda: SweepRequest(
        networks=tuple(_check_network(name, route) for name in networks),
        gpus=tuple(_check_gpu(name, route) for name in gpus),
        batches=_int_list(body, "batches", route) or (64, 256),
        unique=_bool(body, "unique", True, route),
        paper_subset=_bool(body, "paper_subset", True, route),
        passes=_str(body, "passes", "forward", route),
    ))
    canonical = {
        "route": route, "networks": list(request.networks),
        "gpus": list(request.gpus), "batches": list(request.batches),
        "unique": request.unique, "paper_subset": request.paper_subset,
        "passes": request.passes,
    }
    return ParsedRequest(request, _content_key(canonical),
                         *_job_flags(body, route))


def parse_validate(body: Mapping[str, object]) -> ParsedRequest:
    route = "validate"
    fields = ("gpu", "batch", "max_ctas", "layers_per_network", "networks",
              "timeout", "retries")
    _check_fields(body, fields, route)
    networks = _str_list(body, "networks", route)
    request = _wrap_construction(route, lambda: ValidateRequest(
        gpu=_check_gpu(_str(body, "gpu", "titanxp", route), route),
        batch=_int(body, "batch", 32, route),
        max_ctas=_int(body, "max_ctas", 180, route),
        layers_per_network=_int(body, "layers_per_network", 4, route),
        networks=(tuple(_check_network(name, route) for name in networks)
                  if networks is not None else None),
        timeout=_float(body, "timeout", route),
        retries=_int(body, "retries", None, route),
    ))
    canonical = {
        "route": route, "gpu": request.gpu, "batch": request.batch,
        "max_ctas": request.max_ctas,
        "layers_per_network": request.layers_per_network,
        "networks": list(request.networks) if request.networks else None,
        "timeout": request.timeout, "retries": request.retries,
    }
    return ParsedRequest(request, _content_key(canonical),
                         *_job_flags(body, route))


def parse_experiment(body: Mapping[str, object]) -> ParsedRequest:
    route = "experiment"
    fields = ("experiment", "gpus", "networks", "batch", "max_ctas",
              "layers_per_network", "timeout", "retries")
    _check_fields(body, fields, route)
    experiment = _str(body, "experiment", None, route)
    if experiment is None:
        raise BadRequest(f"{route}: field 'experiment' is required")
    gpus = _str_list(body, "gpus", route)
    networks = _str_list(body, "networks", route)
    request = _wrap_construction(route, lambda: ExperimentRequest(
        experiment=_check_experiment(experiment, route),
        gpus=(tuple(_check_gpu(name, route) for name in gpus)
              if gpus is not None else None),
        networks=(tuple(_check_network(name, route) for name in networks)
                  if networks is not None else None),
        batch=_int(body, "batch", None, route),
        max_ctas=_int(body, "max_ctas", None, route),
        layers_per_network=_int(body, "layers_per_network", None, route),
        timeout=_float(body, "timeout", route),
        retries=_int(body, "retries", None, route),
    ))
    canonical = {
        "route": route, "experiment": request.experiment,
        "gpus": list(request.gpus) if request.gpus else None,
        "networks": list(request.networks) if request.networks else None,
        "batch": request.batch, "max_ctas": request.max_ctas,
        "layers_per_network": request.layers_per_network,
        "timeout": request.timeout, "retries": request.retries,
    }
    return ParsedRequest(request, _content_key(canonical),
                         *_job_flags(body, route))


def _dse_space(body: Mapping[str, object], networks: Tuple[str, ...],
               batches: Tuple[int, ...], passes: str,
               route: str) -> Tuple[SearchSpace, Dict[str, object]]:
    """Build the search space the same way the CLI does from ``--axis``.

    Returns the space plus its canonical descriptor for the content key.
    """
    raw_axes = body.get("axes")
    if raw_axes is None:
        return default_space(networks=networks, batches=batches,
                             passes=passes), {"axes": None}
    if not isinstance(raw_axes, Mapping) or not raw_axes:
        raise BadRequest(
            f"{route}: field 'axes' must be a non-empty object mapping axis "
            f"keys (one of {list(AXIS_KEYS)}) to value lists")
    axes = []
    for key, values in raw_axes.items():
        if isinstance(values, (str, int, float)):
            values = [values]
        if not isinstance(values, Sequence) or not values:
            raise BadRequest(f"{route}: axis {key!r} must map to a non-empty "
                             f"list of values")
        try:
            axes.append(Axis(str(key).strip().lower(), tuple(values)))
        except (ValueError, TypeError) as exc:
            raise BadRequest(f"{route}: bad axis {key!r}: {exc}") from exc
    for ax in axes:
        if ax.key == "network":
            for name in ax.values:
                _check_network(name, route)
    space = space_from_axes(axes, networks=networks, batches=batches,
                            passes=passes)
    descriptor = {"axes": {ax.key: list(ax.values) for ax in space.axes}}
    return space, descriptor


def parse_dse(body: Mapping[str, object]) -> ParsedRequest:
    route = "dse"
    fields = ("gpu", "networks", "batches", "axes", "driver", "budget",
              "seed", "objectives", "unique", "confirm_top", "passes",
              "timeout", "retries")
    _check_fields(body, fields, route)
    networks = tuple(_check_network(name, route) for name in
                     (_str_list(body, "networks", route) or ("resnet152",)))
    batches = _int_list(body, "batches", route) or (256,)
    passes = _str(body, "passes", "forward", route)
    space, space_descriptor = _wrap_construction(
        route, lambda: _dse_space(body, networks, batches, passes, route))
    request = _wrap_construction(route, lambda: DseRequest(
        space=space,
        gpu=_check_gpu(_str(body, "gpu", "titanxp", route), route),
        driver=_str(body, "driver", "grid", route),
        budget=_int(body, "budget", None, route),
        seed=_int(body, "seed", 0, route),
        objectives=tuple(_str_list(body, "objectives", route)
                         or ("throughput", "dram", "cost")),
        unique=_bool(body, "unique", True, route),
        confirm_top=_int(body, "confirm_top", 0, route),
        timeout=_float(body, "timeout", route),
        retries=_int(body, "retries", None, route),
    ))
    canonical = {
        "route": route, "gpu": request.gpu, "networks": list(networks),
        "batches": list(batches), "passes": passes,
        "driver": request.driver, "budget": request.budget,
        "seed": request.seed, "objectives": list(request.objectives),
        "unique": request.unique, "confirm_top": request.confirm_top,
        "timeout": request.timeout, "retries": request.retries,
    }
    canonical.update(space_descriptor)
    return ParsedRequest(request, _content_key(canonical),
                         *_job_flags(body, route))


#: route name -> parser, the app's dispatch table for POST bodies.
PARSERS = {
    "estimate": parse_estimate,
    "sweep": parse_sweep,
    "validate": parse_validate,
    "experiment": parse_experiment,
    "dse": parse_dse,
}


def parse_body(route: str, raw: bytes) -> ParsedRequest:
    """Decode and parse one POST body for ``route``; failures are 400s."""
    parser = PARSERS.get(route)
    if parser is None:
        raise BadRequest(f"unknown request route {route!r}; "
                         f"expected one of {sorted(PARSERS)}")
    if not raw:
        body: object = {}
    else:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(
                f"{route}: request body is not valid JSON: {exc}") from exc
    if not isinstance(body, Mapping):
        raise BadRequest(f"{route}: request body must be a JSON object, "
                         f"got {type(body).__name__}")
    return parser(body)


def _content_key(canonical: Mapping[str, object]) -> str:
    """Stable coalescing key: sha1 of the sorted canonical payload."""
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()
