"""SQL-layer fuzz/edge tests through the service front end.

Malformed or hostile input to ``QueryService.query`` must surface as a
clean, typed error raised near the boundary (``ParseError``, ``KeyError``,
``ValueError``, ``TypeError`` with a useful message) — never as an
``AttributeError``/``IndexError`` escaping from deep inside the engine —
and degenerate-but-valid queries (reversed ranges, empty matches) must
return well-formed results rather than raise.
"""

from __future__ import annotations

import pytest

from conftest import make_simple_table

from repro import PairwiseHistParams, QueryService, Table
from repro.sql.parser import ParseError, parse_query

#: Errors the service is allowed to raise at its boundary.
CLEAN_ERRORS = (ParseError, KeyError, ValueError, TypeError)


@pytest.fixture(scope="module")
def service():
    svc = QueryService(partition_size=1000)
    svc.register_table(
        make_simple_table(rows=2000, seed=9),
        params=PairwiseHistParams.with_defaults(sample_size=None, seed=1),
    )
    return svc


class TestMalformedSql:
    @pytest.mark.parametrize(
        "sql",
        [
            "",
            "   ",
            "SELECT",
            "SELECT FROM simple",
            "SELECT COUNT(*) simple",
            "SELECT COUNT(*) FROM",
            "SELECT COUNT(*) FROM simple WHERE",
            "SELECT COUNT(*) FROM simple WHERE x >",
            "SELECT COUNT(*) FROM simple WHERE x 5",
            "SELECT COUNT(*) FROM simple WHERE (x > 5",
            "SELECT COUNT(*) FROM simple WHERE x > 5 AND",
            "SELECT COUNT(*) FROM simple GROUP BY",
            "SELECT COUNT(*) FROM simple trailing garbage",
            "SELECT FROBNICATE(x) FROM simple",
            "SELECT AVG(*) FROM simple",
            "DROP TABLE simple",
        ],
    )
    def test_unparseable_sql_raises_parse_error(self, service, sql):
        with pytest.raises(ParseError):
            service.query(sql)

    def test_parse_error_names_the_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_query("SELECT COUNT(*) FROM simple WHERE x >")


class TestUnknownNames:
    def test_unknown_table_raises_key_error_with_catalog(self, service):
        with pytest.raises(KeyError, match="missing.*simple"):
            service.query("SELECT COUNT(*) FROM missing")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(nope) FROM simple",
            "SELECT COUNT(*) FROM simple WHERE nope > 3",
            "SELECT COUNT(*) FROM simple GROUP BY nope",
            "SELECT AVG(x) FROM simple WHERE x > 1 AND nope < 2",
        ],
    )
    def test_unknown_column_raises_key_error(self, service, sql):
        with pytest.raises(KeyError, match="nope"):
            service.query(sql)


class TestSemanticEdges:
    def test_numeric_aggregate_over_categorical_raises(self, service):
        with pytest.raises(ValueError, match="categorical"):
            service.query("SELECT SUM(category) FROM simple")

    @pytest.mark.parametrize("op", ["<", ">", "<=", ">="])
    def test_range_predicate_on_categorical_raises(self, service, op):
        from repro.sql.ast import UnsupportedQueryError

        # UnsupportedQueryError (a ValueError) so workload runs record the
        # query as unsupported instead of aborting.
        with pytest.raises(UnsupportedQueryError, match="categorical"):
            service.query(f"SELECT COUNT(*) FROM simple WHERE category {op} 5")

    def test_runner_records_categorical_range_as_unsupported(self, service):
        from repro.bench import ServedSystem
        from repro.workload import run

        managed = service.table("simple")
        system = ServedSystem(backend=service, engine=managed.engine)
        queries = [
            parse_query("SELECT COUNT(x) FROM simple WHERE x > 50"),
            parse_query("SELECT COUNT(*) FROM simple WHERE category < 'm'"),
        ]
        summary = run(system, managed.store.reconstruct_rows(), queries)
        assert [r.supported for r in summary.records] == [True, False]
        assert summary.n == 1

    def test_execute_scalar_rejects_group_by(self, service):
        with pytest.raises(ValueError, match="GROUP BY"):
            service.query_scalar("SELECT COUNT(x) FROM simple GROUP BY category")

    def test_reversed_range_returns_empty_not_error(self, service):
        results = service.query("SELECT COUNT(x) FROM simple WHERE x > 90 AND x < 10")
        (result,) = results
        assert result.value == pytest.approx(0.0, abs=1e-6)
        assert result.lower <= result.value <= result.upper

    def test_no_matching_rows_yields_nan_average(self, service):
        import math

        (result,) = service.query("SELECT AVG(x) FROM simple WHERE x = 987654")
        assert math.isnan(result.value)

    def test_unseen_category_equality_matches_nothing(self, service):
        (result,) = service.query(
            "SELECT COUNT(*) FROM simple WHERE category = 'zzz'"
        )
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_fuzzed_garbage_never_escapes_as_internal_error(self, service):
        import random

        rng = random.Random(1234)
        fragments = [
            "SELECT", "COUNT", "AVG", "(", ")", "*", ",", "FROM", "simple",
            "WHERE", "x", ">", "<", "=", "5", "'alpha'", "AND", "OR",
            "GROUP", "BY", "category", ";", "nope", "-3.5", "!=",
        ]
        for _ in range(300):
            sql = " ".join(
                rng.choice(fragments) for _ in range(rng.randint(1, 12))
            )
            try:
                service.query(sql)
            except CLEAN_ERRORS:
                continue  # a clean boundary error is a pass
            # Reaching here means the query parsed and executed: also fine.


class TestIngestValidation:
    """`Database.ingest` errors are clear and typed (satellite fix)."""

    def make_service(self):
        svc = QueryService(partition_size=500)
        svc.register_table(
            make_simple_table(rows=1000, seed=9),
            params=PairwiseHistParams.with_defaults(sample_size=None, seed=1),
        )
        return svc

    def test_unregistered_table_raises_key_error_naming_it(self):
        svc = self.make_service()
        with pytest.raises(KeyError, match="no table named 'missing'"):
            svc.ingest("missing", make_simple_table(rows=5, seed=0))

    def test_non_table_rows_raise_type_error(self):
        svc = self.make_service()
        with pytest.raises(TypeError, match="needs a Table"):
            svc.ingest("simple", {"x": [1.0, 2.0]})
        with pytest.raises(TypeError, match="needs a Table"):
            svc.ingest("simple", [(1.0, 2.0)])

    def test_schema_mismatch_raises_value_error_with_columns(self):
        svc = self.make_service()
        rows = Table.from_dict({"x": [1.0], "wrong": [2.0]}, name="simple")
        with pytest.raises(ValueError, match="do not match its schema"):
            svc.ingest("simple", rows)

    def test_validation_leaves_the_table_untouched(self):
        svc = self.make_service()
        before = svc.table("simple").num_rows
        with pytest.raises(ValueError):
            svc.ingest(
                "simple", Table.from_dict({"x": [1.0]}, name="simple")
            )
        assert svc.table("simple").num_rows == before

    def test_empty_ingest_is_a_clean_no_op(self):
        svc = self.make_service()
        empty = make_simple_table(rows=1, seed=0).select_rows(slice(0, 0))
        result = svc.ingest("simple", empty)
        assert result.appended_rows == 0
        assert result.rebuilt_partitions == []
