"""Seeded inputs for every workload.

Everything a run feeds the program comes from here and depends only on the
workload seed: the TPC-H data seed, the per-pass query order, the server's
arrival schedule (which pool query arrives when, for which tenant) and the
choice of queries to cancel.  The program under test receives only the
generated values.

The server's SQL pool itself is fixed: its parameters are drawn once from
a constant seed, so a change of workload seed reshuffles the traffic but
not the work each query does, and runs on different seeds compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

TPCH_QUERIES = tuple(range(1, 23))
#: TPC-H skew shared by every workload
SKEW = 2.0

#: server-mixed open-loop constants (also stated in BENCHMARK.json)
ARRIVAL_RATE_QPS = 12.0
LATENCY_LIMIT_S = 1.0
CANCEL_EVERY = 10
#: samples per server query (the POST's ``target_samples``)
SERVER_SAMPLES = 20
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_FLAGS = ("A", "N", "R")


def _day(rng: random.Random, first_year: int, last_year: int) -> str:
    return "%04d-%02d-%02d" % (
        rng.randint(first_year, last_year), rng.randint(1, 12),
        rng.randint(1, 28),
    )


#: (kind, template function); each draws its parameters from rng.
#: The interactive templates avoid lineitem, so their costs cluster; a
#: latency median over a mix of 10 ms and 60 ms queries would jump between
#: the two clusters from run to run.
_INTERACTIVE = (
    ("scan", lambda r: (
        "SELECT o_orderkey, o_totalprice FROM orders "
        "WHERE o_totalprice > %d AND o_orderpriority = '%s'"
        % (r.randint(1000, 200000), r.choice(_PRIORITIES))
    )),
    ("scan", lambda r: (
        "SELECT COUNT(*), SUM(ps_availqty) FROM partsupp "
        "WHERE ps_supplycost < %.2f" % r.uniform(100.0, 900.0)
    )),
    ("groupby", lambda r: (
        "SELECT o_orderpriority, COUNT(*), AVG(o_totalprice) FROM orders "
        "WHERE o_orderdate >= '%s' GROUP BY o_orderpriority"
        % _day(r, 1992, 1997)
    )),
    ("groupby", lambda r: (
        "SELECT c_mktsegment, COUNT(*), AVG(c_acctbal) FROM customer "
        "WHERE c_acctbal > %d GROUP BY c_mktsegment" % r.randint(-999, 8000)
    )),
    ("join", lambda r: (
        "SELECT COUNT(*), SUM(o_totalprice) FROM orders "
        "JOIN customer ON o_custkey = c_custkey WHERE c_mktsegment = '%s'"
        % r.choice(_SEGMENTS)
    )),
    ("join", lambda r: (
        "SELECT COUNT(*), SUM(ps_supplycost) FROM partsupp "
        "JOIN part ON ps_partkey = p_partkey WHERE p_size <= %d"
        % r.randint(5, 40)
    )),
    ("join", lambda r: (
        "SELECT p_brand, COUNT(*) FROM partsupp "
        "JOIN part ON ps_partkey = p_partkey WHERE ps_availqty < %d "
        "GROUP BY p_brand" % r.randint(1000, 9000)
    )),
)
#: the long-running queries users cancel: a lineitem join
_LONG = ("long", lambda r: (
    "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "JOIN orders ON l_orderkey = o_orderkey "
    "WHERE o_orderdate < '%s' AND l_returnflag = '%s'"
    % (_day(r, 1994, 1997), r.choice(_FLAGS))
))
#: parameterizations drawn per template
VARIANTS = 2
INTERACTIVE = len(_INTERACTIVE) * VARIANTS


def tpch_pass_order(seed: int, pass_index: int) -> List[int]:
    """The TPC-H query numbers of one pass, in that pass's seeded order."""
    order = list(TPCH_QUERIES)
    random.Random("tpch-order:%d:%d" % (seed, pass_index)).shuffle(order)
    return order


def sql_pool() -> List[Tuple[str, str]]:
    """The server workload's distinct (kind, SQL) texts: the interactive
    queries first, then the long ones."""
    rng = random.Random("sql-pool")
    return [
        (kind, build(rng))
        for kind, build in _INTERACTIVE + (_LONG,)
        for _ in range(VARIANTS)
    ]


def _rounds(rng: random.Random, indexes: List[int], count: int) -> List[int]:
    """``count`` picks from ``indexes`` in shuffled rounds (each round
    uses every index once), so every seed draws the same mix."""
    picks: List[int] = []
    while len(picks) < count:
        round_ = list(indexes)
        rng.shuffle(round_)
        picks.extend(round_)
    return picks[:count]


@dataclass(frozen=True)
class Arrival:
    """One open-loop query: when it is due, for whom, what, and its fate."""

    due: float
    tenant: str
    sql_index: int
    cancel: bool


def arrival_schedule(seed: int, seconds: float,
                     rate: float = ARRIVAL_RATE_QPS) -> List[Arrival]:
    """Open-loop arrivals over ``seconds`` at ``rate`` queries per second.

    Arrivals are evenly spaced: random gaps let queries collide by
    chance, and on a two-core host the collisions, not the server, then
    decide the latency percentiles.  The seed picks which query arrives
    in each slot, for which tenant, and which arrivals (exactly one in
    ``CANCEL_EVERY``) are long queries that get cancelled; the others are
    interactive queries.
    """
    rng = random.Random("arrivals:%d" % seed)
    count = max(1, int(round(seconds * rate)))
    dues = [i / rate for i in range(count)]
    cancelled = set(rng.sample(range(count), count // CANCEL_EVERY))
    interactive = iter(_rounds(rng, list(range(INTERACTIVE)), count))
    long = iter(_rounds(
        rng, list(range(INTERACTIVE, INTERACTIVE + VARIANTS)), count))
    return [
        Arrival(
            due=dues[i],
            tenant=TENANTS[rng.randrange(len(TENANTS))],
            sql_index=next(long) if i in cancelled else next(interactive),
            cancel=i in cancelled,
        )
        for i in range(count)
    ]
