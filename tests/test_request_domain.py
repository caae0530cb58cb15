"""Out-of-domain execution settings are rejected up front, the same way on
every path: ``Session`` policy, request constructors, HTTP bodies and CLI.

* a timeout must be a finite positive number of seconds (``NaN``, infinities
  and ``1e999`` included in the rejects);
* a validation scale override (``max_ctas``, ``layers_per_network``) must be
  positive — ``None`` means "all".  The CLI's ``validate`` keeps mapping
  ``<= 0`` onto ``None`` before it builds the request.
"""

import json
import math

import pytest

from repro import cli
from repro.api import ExperimentRequest, Session, ValidateRequest
from repro.cli import main
from repro.server import create_app
from repro.server.schemas import BadRequest, parse_body
from server_utils import json_request

NON_FINITE = [math.nan, math.inf, -math.inf, float("1e999")]
NON_FINITE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e999"]
BAD_TIMEOUTS = [*NON_FINITE, 0, -1.5, 10 ** 400]


@pytest.fixture
def app():
    application = create_app(Session())
    yield application
    application.session.close()


class TestTimeoutMustBeFinite:
    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS, ids=repr)
    def test_session(self, timeout):
        with pytest.raises(ValueError, match="finite and positive"):
            Session(timeout=timeout)
        session = Session()
        with pytest.raises(ValueError, match="finite and positive"):
            session.timeout = timeout
        assert session.timeout is None

    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS, ids=repr)
    @pytest.mark.parametrize("build", [
        lambda timeout: ValidateRequest(timeout=timeout),
        lambda timeout: ExperimentRequest("fig13", timeout=timeout),
    ], ids=["validate", "experiment"])
    def test_request_constructors(self, build, timeout):
        with pytest.raises(ValueError, match="finite and positive"):
            build(timeout)

    @pytest.mark.parametrize("literal", NON_FINITE_LITERALS)
    @pytest.mark.parametrize("route,fields", [
        ("validate", ""),
        ("experiment", '"experiment": "fig13", '),
        ("dse", '"networks": ["alexnet"], "batches": [8], '),
    ], ids=["validate", "experiment", "dse"])
    def test_http_parse(self, app, route, fields, literal):
        raw = ('{%s"timeout": %s}' % (fields, literal)).encode()
        with pytest.raises(BadRequest, match="finite number"):
            parse_body(route, raw)
        status, payload = json_request(app, "POST", f"/v1/{route}",
                                       raw_body=raw)
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["meta"]["error_type"] == "BadRequest"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "0"])
    def test_cli(self, capsys, value):
        assert main(["validate", f"--timeout={value}", "--format",
                     "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "error"
        assert "finite and positive" in payload["summary"]["message"]

    def test_finite_positive_timeouts_still_accepted(self):
        assert Session(timeout=2.5).timeout == 2.5
        assert ValidateRequest(timeout=1).timeout == 1
        parsed = parse_body("validate", b'{"timeout": 3}')
        assert parsed.request.timeout == 3.0


class TestValidationScaleMustBePositive:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["max_ctas", "layers_per_network"])
    def test_request_constructors(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ValidateRequest(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ExperimentRequest("fig13", **{field: value})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["max_ctas", "layers_per_network"])
    @pytest.mark.parametrize("route,body", [
        ("validate", {}),
        ("experiment", {"experiment": "fig13"}),
    ], ids=["validate", "experiment"])
    def test_http_is_a_400(self, app, route, body, field, value):
        status, payload = json_request(app, "POST", f"/v1/{route}",
                                       body={**body, field: value})
        assert status == 400
        assert payload["meta"]["error_type"] == "BadRequest"
        assert f"{field} must be positive" in payload["meta"]["error_message"]

    def test_none_means_all(self):
        request = ValidateRequest(max_ctas=None, layers_per_network=None)
        assert request.max_ctas is None
        assert request.layers_per_network is None

    def test_cli_validate_maps_non_positive_to_all(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_run_request",
                            lambda args, build: seen.append(build()) or 0)
        assert main(["validate", "--max-ctas", "0",
                     "--layers-per-network", "-1"]) == 0
        (request,) = seen
        assert request.max_ctas is None
        assert request.layers_per_network is None
