"""The benchmark's own schemas and seeded input generators.

The benchmark owns its inputs rather than importing ``repro.workloads``, so a
change to the package's example workloads never changes what is measured.
Every generator draws from the ``random.Random`` it is given; the same seed
gives the same rows.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

from repro.algebra import (
    Aggregate,
    Limit,
    NaturalJoin,
    RelationRef,
    Selection,
    Sort,
)
from repro.algebra.predicates import Comparison
from repro.core.dependencies import (
    ExplicitAttributeDependency,
    FunctionalDependency,
    Variant,
)
from repro.engine.database import Database
from repro.model.domains import EnumDomain, FloatDomain, IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme

Row = Dict[str, object]

# -- employees: the paper's running example --------------------------------------

#: jobtype -> the variant attributes the attribute dependency demands
VARIANTS = {
    "secretary": ("typing_speed", "foreign_languages"),
    "software engineer": ("products", "programming_languages"),
    "salesman": ("products", "sales_commission"),
}
VARIANT_ATTRIBUTES = ("typing_speed", "foreign_languages", "products",
                      "programming_languages", "sales_commission")
BASE_ATTRIBUTES = ("emp_id", "name", "salary", "jobtype")

_NAMES = ("avery", "blake", "casey", "drew", "ellis", "finley", "harper", "jordan",
          "kendall", "logan", "morgan", "parker", "quinn", "reese", "sawyer", "taylor")
_WORDS = ("english", "french", "german", "dbms", "compiler", "editor", "pascal",
          "lisp", "ada", "browser")


def create_employees(database: Database, name: str = "employees"):
    """The AD-governed employees table: jobtype determines the variant attributes."""
    scheme = FlexibleScheme(5, 5, list(BASE_ATTRIBUTES) + [
        FlexibleScheme(0, len(VARIANT_ATTRIBUTES), list(VARIANT_ATTRIBUTES))])
    jobtype_ad = ExplicitAttributeDependency(
        ["jobtype"], list(VARIANT_ATTRIBUTES),
        [Variant([{"jobtype": job}], list(attributes), name=job)
         for job, attributes in VARIANTS.items()])
    domains = {
        "emp_id": IntDomain(), "name": StringDomain(max_length=32),
        "salary": FloatDomain(), "jobtype": EnumDomain(list(VARIANTS), name="jobtype"),
        "typing_speed": IntDomain(), "foreign_languages": StringDomain(max_length=64),
        "products": StringDomain(max_length=64),
        "programming_languages": StringDomain(max_length=64),
        "sales_commission": FloatDomain(),
    }
    return database.create_table(
        name, scheme, domains=domains, key=["emp_id"],
        dependencies=[jobtype_ad,
                      FunctionalDependency(["emp_id"], ["name", "salary", "jobtype"])])


def _variant_values(job: str, rng: random.Random) -> Row:
    values: Row = {}
    for attribute in VARIANTS[job]:
        if attribute == "typing_speed":
            values[attribute] = rng.randrange(40, 120)
        elif attribute == "sales_commission":
            values[attribute] = round(rng.uniform(0.01, 0.25), 3)
        else:
            values[attribute] = ", ".join(sorted(rng.sample(_WORDS, rng.randrange(1, 4))))
    return values


def employee(emp_id: int, rng: random.Random, violating: bool = False) -> Row:
    """One employee row; a violating row carries another jobtype's variant."""
    job = rng.choice(tuple(VARIANTS))
    row: Row = {"emp_id": emp_id, "name": rng.choice(_NAMES),
                "salary": round(rng.uniform(2000.0, 9000.0), 2), "jobtype": job}
    if violating:
        job = rng.choice([other for other in VARIANTS if VARIANTS[other] != VARIANTS[job]])
    row.update(_variant_values(job, rng))
    return row


# -- orders and the star schema: the analytic tables -----------------------------

REGIONS = tuple("r{}".format(index) for index in range(8))
PHONE_EVERY = 97


def _zipf_region(rng: random.Random) -> str:
    """Region ``r_i`` with probability ``2^-(i+1)``; the tail folds into the last."""
    draw, threshold = rng.random(), 0.5
    for region in REGIONS[:-1]:
        if draw < threshold:
            return region
        draw -= threshold
        threshold /= 2.0
    return REGIONS[-1]


def orders(count: int, rng: random.Random) -> List[Row]:
    """Orders with a Zipf region; ``channel`` determines the variant attribute.

    Online orders carry ``coupon``, store orders ``store_id``, and every
    ``PHONE_EVERY``-th order is a phone order with neither and no amount, so a
    group-by on ``coupon`` has a group for the absent value.  ``amount`` mixes
    integers, floats and explicit NULLs.
    """
    rows = []
    for order_id in range(1, count + 1):
        row: Row = {"order_id": order_id, "region": _zipf_region(rng)}
        if order_id % PHONE_EVERY == 0:
            row["channel"] = "phone"
            rows.append(row)
            continue
        draw = rng.random()
        if draw < 0.05:
            row["amount"] = None
        elif order_id % 2:
            row["amount"] = rng.randrange(1, 500)
        else:
            row["amount"] = round(rng.uniform(1.0, 500.0), 2)
        if rng.random() < 0.5:
            row["channel"], row["coupon"] = "online", "c{}".format(rng.randrange(50))
        else:
            row["channel"], row["store_id"] = "store", rng.randrange(200)
        rows.append(row)
    return rows


def create_orders(database: Database):
    scheme = FlexibleScheme(3, 4, ["order_id", "region", "channel",
                                   FlexibleScheme(0, 3, ["amount", "coupon", "store_id"])])
    channel_ad = ExplicitAttributeDependency(
        ["channel"], ["coupon", "store_id"],
        [Variant([{"channel": "online"}], ["coupon"], name="online"),
         Variant([{"channel": "store"}], ["store_id"], name="store"),
         Variant([{"channel": "phone"}], [], name="phone")])
    domains = {"order_id": IntDomain(), "region": StringDomain(max_length=8),
               "channel": StringDomain(max_length=8),
               "coupon": StringDomain(max_length=12), "store_id": IntDomain()}
    return database.create_table("orders", scheme, domains=domains,
                                 key=["order_id"], dependencies=[channel_ad])


#: (table, foreign key, rows) of the four small non-reductive dimensions
DIMENSIONS = (("dim_small", "ds", 20), ("dim_a", "da", 30),
              ("dim_b", "db", 40), ("dim_c", "dc", 50))
FACT_ROWS = 5000
RARE_ROWS = 1000
RARE_EVERY = 20


def star(rng: random.Random) -> Dict[str, List[Row]]:
    """Star-schema rows: a fact table, four tiny dimensions and ``dim_rare``.

    Every fact row has exactly one partner in each dimension, so the tiny
    dimensions do not reduce it; only ``kind = 'rare'`` (5% of ``dim_rare``,
    the rows carrying ``audit_level``) does.  The seed permutes which fact
    rows point where.
    """
    tables: Dict[str, List[Row]] = {}
    fact = []
    for fact_id in range(1, FACT_ROWS + 1):
        row: Row = {"fact_id": fact_id, "dr": rng.randrange(RARE_ROWS) + 1}
        for _name, fk, rows in DIMENSIONS:
            row[fk] = rng.randrange(rows) + 1
        fact.append(row)
    tables["fact"] = fact
    for name, fk, rows in DIMENSIONS:
        tables[name] = [{fk: i, name + "_name": "{}-{}".format(name, i)}
                        for i in range(1, rows + 1)]
    tables["dim_rare"] = [
        {"dr": i, "kind": "rare", "audit_level": i % 3} if i % RARE_EVERY == 0
        else {"dr": i, "kind": "common"}
        for i in range(1, RARE_ROWS + 1)]
    return tables


def create_star(database: Database) -> None:
    attributes = ["fact_id", "dr"] + [fk for _name, fk, _rows in DIMENSIONS]
    database.create_table("fact", FlexibleScheme.relational(attributes),
                          domains={name: IntDomain() for name in attributes},
                          key=["fact_id"])
    for name, fk, _rows in DIMENSIONS:
        value = name + "_name"
        database.create_table(name, FlexibleScheme.relational([fk, value]),
                              domains={fk: IntDomain(), value: StringDomain(max_length=24)},
                              key=[fk])
    database.create_table(
        "dim_rare", FlexibleScheme(2, 3, ["dr", "kind", FlexibleScheme(0, 1, ["audit_level"])]),
        domains={"dr": IntDomain(), "kind": StringDomain(max_length=16),
                 "audit_level": IntDomain()},
        key=["dr"])


AMOUNT_SPECS = ("count", ("count", "amount"), ("sum", "amount"),
                ("min", "amount"), ("max", "amount"), ("avg", "amount"))


def analytic_queries():
    """(kind, expression) of every analytic query; the plan cache holds them all."""
    orders_ref = RelationRef("orders")
    queries = [("group_region", Aggregate(orders_ref, group_by=("region",), specs=AMOUNT_SPECS)),
               ("group_coupon", Aggregate(orders_ref, group_by=("coupon",),
                                          specs=("count", ("sum", "amount"))))]
    for region in REGIONS:
        queries.append(("filtered", Aggregate(
            Selection(orders_ref, Comparison("region", "=", region)),
            group_by=("channel",), specs=("count", ("avg", "amount")))))
    for count in (5, 10, 20):
        queries.append(("top_k", Limit(Sort(orders_ref, ("-amount", "order_id")), count)))
    tree = NaturalJoin(RelationRef("dim_small"), RelationRef("fact"), on=["ds"])
    for name, fk, _rows in DIMENSIONS[1:]:
        tree = NaturalJoin(tree, RelationRef(name), on=[fk])
    rare = Selection(RelationRef("dim_rare"), Comparison("kind", "=", "rare"))
    queries.append(("star_join", NaturalJoin(tree, rare, on=["dr"])))
    return queries


def canonical_bytes(row: Row) -> int:
    """A row's size in the fixed encoding ``bytes_stored_per_user_byte`` divides by."""
    return len(json.dumps(row, sort_keys=True, separators=(",", ":")).encode("utf-8"))
