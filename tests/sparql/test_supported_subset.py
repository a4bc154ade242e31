"""The engine answers only the SPARQL subset ``docs/serving.md`` lists.

A query that uses a form outside it gets a typed
:class:`~repro.sparql.SparqlParseError` naming the form, never a silent
empty answer: in process, and through a supervised fork service, where
the rejection must neither trip the breaker nor cost a worker.
"""

import re
import sys
import time

import pytest

from repro.errors import InvalidRequest
from repro.server import ServiceConfig
from repro.sparql import SparqlParseError

SELECT = "SELECT ?s WHERE {{ ?s dm:hasName ?n {} }}"

#: One query per removed form: the form's name -> the query text.
REMOVED_FORMS = {
    "DESCRIBE": "DESCRIBE ?s WHERE { ?s dm:hasName ?n }",
    "CONSTRUCT": "CONSTRUCT { ?s dm:hasName ?n } WHERE { ?s dm:hasName ?n }",
    "MINUS": SELECT.format("MINUS { ?s dt:isMappedTo ?t }"),
    "FILTER EXISTS": SELECT.format("FILTER EXISTS { ?s dt:isMappedTo ?t }"),
    "FILTER NOT EXISTS": SELECT.format("FILTER NOT EXISTS { ?s dt:isMappedTo ?t }"),
}
for name, call in {
    "IF": 'IF(?n = "a", true, false)',
    "COALESCE": 'COALESCE(?n, "x") = "x"',
    "CONCAT": 'CONCAT(?n, "_x") != ""',
    "SUBSTR": 'SUBSTR(?n, 1, 3) != ""',
    "REPLACE": 'REPLACE(?n, "_", "-") != ""',
    "STRBEFORE": 'STRBEFORE(?n, "_") != ""',
    "STRAFTER": 'STRAFTER(?n, "_") != ""',
    "UCASE": 'UCASE(?n) != ""',
    "LCASE": 'LCASE(?n) != ""',
    "STRLEN": "STRLEN(?n) > 0",
    "CONTAINS": 'CONTAINS(?n, "_")',
    "STRSTARTS": 'STRSTARTS(?n, "")',
    "STRENDS": 'STRENDS(?n, "")',
    "ABS": "ABS(-1) = 1",
    "ROUND": "ROUND(1.4) = 1",
    "CEIL": "CEIL(1.4) = 2",
    "FLOOR": "FLOOR(1.4) = 1",
}.items():
    REMOVED_FORMS[name] = SELECT.format(f"FILTER ({call})")


@pytest.fixture(scope="module")
def warehouse():
    from repro.synth import LandscapeConfig, generate_landscape

    return generate_landscape(LandscapeConfig.tiny(seed=2009)).warehouse


@pytest.fixture(scope="module")
def fork_service(warehouse, tmp_path_factory):
    config = ServiceConfig(
        max_workers=1,
        worker_mode="fork",
        snapshot_dir=str(tmp_path_factory.mktemp("snaps")),
        supervise=True,
    )
    with warehouse.serve(config) as service:
        deadline = time.monotonic() + 5.0
        while service.supervisor.alive_children() < 1:
            assert time.monotonic() < deadline, "the worker never started"
            time.sleep(0.01)
        yield service


@pytest.mark.parametrize("form", sorted(REMOVED_FORMS))
def test_removed_form_is_rejected(warehouse, form):
    with pytest.raises(SparqlParseError) as caught:
        warehouse.query(REMOVED_FORMS[form])
    message = str(caught.value)
    assert form in message and "docs/serving.md" in message
    assert isinstance(caught.value, InvalidRequest)


@pytest.mark.skipif(sys.platform.startswith("win"), reason="fork start method required")
@pytest.mark.parametrize("form", sorted(REMOVED_FORMS))
def test_removed_form_is_rejected_by_the_fork_service(fork_service, form):
    pids = fork_service.worker_pids()
    with pytest.raises(InvalidRequest, match="docs/serving.md"):
        fork_service.query(REMOVED_FORMS[form])
    assert fork_service.breaker("query").snapshot()["state"] == "closed"
    assert fork_service.health()["workers"]["restarts"] == {}
    assert fork_service.worker_pids() == pids


@pytest.mark.parametrize(
    "where, problem",
    [
        ("FILTER (FOO(?n))", "FOO() is outside"),
        ("FILTER (STR(?n, 1) = ?n)", "STR() takes 1 argument(s), got 2"),
        ("FILTER regex(?n)", "REGEX() takes 2 to 3 argument(s), got 1"),
    ],
)
def test_unknown_function_or_wrong_arity_is_a_parse_error(warehouse, where, problem):
    """Checked at parse time: checked per row, the failure would only
    make FILTER false and the query would answer 0 rows."""
    with pytest.raises(SparqlParseError, match=re.escape(problem)):
        warehouse.query(SELECT.format(where))

