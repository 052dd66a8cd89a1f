"""Shared fixtures: the Figure 1 plan and canned workloads."""

from __future__ import annotations

import pytest

from repro.qep import (
    BaseObject,
    PlanGraph,
    PlanOperator,
    Predicate,
    StreamRole,
)
from repro.workload.generator import GeneratorConfig, generate_workload


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the exporter golden files under tests/obs/goldens/ "
        "instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


def build_figure1_plan(plan_id: str = "fig1") -> PlanGraph:
    """The NLJOIN snippet of the paper's Figure 1 as a full plan."""
    plan = PlanGraph(plan_id, "SELECT ... FROM SALES_FACT, CUST_DIM ...")
    sales = BaseObject(
        "TPCD",
        "SALES_FACT",
        2.87997e7,
        columns=("S_CUSTKEY", "S_AMT"),
        indexes=("IDX1",),
    )
    cust = BaseObject(
        "TPCD", "CUST_DIM", 4043.0, columns=("C_CUSTKEY", "C_NAME")
    )
    ixscan = PlanOperator(
        4,
        "IXSCAN",
        cardinality=754.34,
        total_cost=25.66,
        io_cost=3.0,
        cpu_cost=2.1e6,
        arguments={"INDEXNAME": "IDX1"},
    )
    ixscan.add_input(sales)
    fetch = PlanOperator(
        3, "FETCH", cardinality=754.34, total_cost=368.38, io_cost=50.0
    )
    fetch.add_input(ixscan)
    fetch.add_input(sales)
    tbscan = PlanOperator(
        5,
        "TBSCAN",
        cardinality=4043.0,
        total_cost=15771.9,
        io_cost=1212.0,
        predicates=[
            Predicate(
                "(Q2.C_CUSTKEY = Q1.S_CUSTKEY)",
                "join-equality",
                ("C_CUSTKEY", "S_CUSTKEY"),
                0.001,
            )
        ],
    )
    tbscan.add_input(cust)
    nljoin = PlanOperator(
        2, "NLJOIN", cardinality=4043.0, total_cost=2.87997e7, io_cost=21113.0
    )
    nljoin.add_input(fetch, StreamRole.OUTER)
    nljoin.add_input(tbscan, StreamRole.INNER)
    ret = PlanOperator(
        1, "RETURN", cardinality=4043.0, total_cost=2.88e7, io_cost=21113.0
    )
    ret.add_input(nljoin)
    for op in (ret, nljoin, fetch, ixscan, tbscan):
        plan.add_operator(op)
    plan.set_root(ret)
    return plan


@pytest.fixture
def figure1_plan() -> PlanGraph:
    return build_figure1_plan()


@pytest.fixture(scope="session")
def fig9_workload_plans():
    """The Figure 9 experiment workload at scale 0.1: 100 paper-sized
    plans, seed 2016."""
    from repro.experiments.workloads import experiment_workload

    return experiment_workload(100, seed=2016)


@pytest.fixture(scope="session")
def small_workload():
    """A deterministic 10-plan workload with all four patterns planted."""
    config = GeneratorConfig(
        nljoin_prob=0.0, lojoin_prob=0.0, spill_sort_prob=0.0
    )
    return generate_workload(
        10,
        seed=1234,
        plant_rates={"A": 0.5, "B": 0.5, "C": 0.5, "D": 0.5},
        size_sampler=lambda rng: rng.randint(15, 45),
        config=config,
    )
