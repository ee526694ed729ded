"""Soak tests: the mini applications under long generated workloads."""

import pytest

from tests.apps.soak import soak_desktop, soak_http_server, soak_sql_database


class TestSoakHttpServer:
    def test_clean_run(self):
        result = soak_http_server(operations=400, seed=11)
        assert result.clean
        assert result.operations == 400

    def test_deterministic(self):
        assert soak_http_server(operations=100, seed=3) == soak_http_server(
            operations=100, seed=3
        )


class TestSoakSqlDatabase:
    def test_clean_run(self):
        result = soak_sql_database(operations=400, seed=11)
        assert result.clean

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_state_invariants_hold_across_seeds(self, seed):
        assert soak_sql_database(operations=250, seed=seed).failures == 0


class TestSoakDesktop:
    def test_clean_run(self):
        result = soak_desktop(operations=400, seed=11)
        assert result.clean

    def test_no_descriptor_leak_across_seeds(self):
        for seed in (5, 6, 7):
            result = soak_desktop(operations=200, seed=seed)
            assert result.final_descriptors_in_use == 0
