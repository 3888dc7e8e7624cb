"""The three workloads: what each sets up, the operations it runs, and their oracles.

Each workload turns a seed into a fixed sequence of operations before
anything is timed, so one seed always replays the same run and its exact
counts (plan-cache hits, rejected rows, WAL bytes, checkpoints, replayed
records) repeat.  The operation count is ``seconds * rate``, never below
``MIN_OPERATIONS``, which gives p99 ten samples beyond it.  ``rate`` is
about the workload's throughput in operations per reference second when it
was introduced, so a run measures about ``seconds`` reference seconds;
``ingest`` runs fewer, which bounds the table it grows and the reopen.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.algebra import Evaluator
from repro.engine.database import Database
from repro.errors import DependencyViolation
from repro.model.tuples import FlexTuple
from repro.storage.checkpoint import SNAPSHOT_FILENAME, write_checkpoint

from perfbench import data

MIN_OPERATIONS = 1000


def operation_count(seconds: int, rate: float) -> int:
    return max(MIN_OPERATIONS, int(round(seconds * rate)))


def shuffled_kinds(shares: Dict, count: int, rng: random.Random) -> List:
    """``count`` operation kinds in exactly the given shares, in seeded order.

    Fixing the share of each kind keeps the mix, and so throughput and the
    exact counts, the same on every seed; the seed only orders the kinds.
    """
    kinds = []
    for kind, share in shares.items():
        kinds.extend([kind] * int(round(share * count)))
    kinds.extend([next(iter(shares))] * (count - len(kinds)))
    rng.shuffle(kinds)
    return kinds[:count]


def _expected(rows) -> set:
    return {FlexTuple(row) for row in rows}


def _stored_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory))


class Reopen:
    """The end of a run: the database on disk, reopened and checked."""

    def __init__(self, raw_s: float, calibrated_s: float, verified: bool,
                 stored_bytes: int, user_bytes: int, records_replayed: int):
        self.raw_s = raw_s
        self.calibrated_s = calibrated_s
        self.verified = verified
        self.stored_bytes = stored_bytes
        self.user_bytes = user_bytes
        self.records_replayed = records_replayed


def timed_reopen(clock, directory: str, tables: Dict[str, list]) -> Reopen:
    """Close-to-open: time ``Database(durable_path=...)`` and compare its tables."""
    stored = _stored_bytes(directory)
    with clock.sampling():
        clock.tick()
        started = perf_counter()
        reopened = Database(durable_path=directory)
        ended = perf_counter()
        clock.tick()
    raw, calibrated = clock.interval(started, ended)
    try:
        verified = all(set(reopened.table(name)) == _expected(rows)
                       for name, rows in tables.items())
        replayed = reopened.durability.recovery_report.records_read
    finally:
        reopened.close()
    user = sum(data.canonical_bytes(row) for rows in tables.values() for row in rows)
    return Reopen(raw, calibrated, verified, stored, user, replayed)


class Workload:
    """What the harness needs from a workload; subclasses fill in the rest.

    ``operations`` is the fixed sequence, each a tuple whose first item is
    its kind.  ``build`` runs set-up through ``setup.step`` so every step is
    timed; ``perform`` is the timed operation and ``check`` its oracle;
    ``persist`` leaves the data on disk for the timed reopen and returns the
    rows each table must hold afterwards.
    """

    name = ""
    #: operations per reference second (sets the operation count)
    rate = 0.0
    #: operations between two kernel runs
    slice_ops = 1
    #: AD violations rejected so far (``ingest`` only)
    rejected = 0

    def prepare(self, database: Database) -> None:
        """Untimed oracle preparation after set-up."""

    def accepted_bytes(self) -> int:
        """Canonical bytes inserted by the measured operations."""
        return 0


class PointRead(Workload):
    """Textual key lookups on the AD-governed employees table.

    Fixed per-query costs (parse, rewrite, plan, observe) dominate here, and
    the distinct queries outnumber the 128-entry plan cache.  Keys follow a
    Zipf law whose exponent gives an LRU cache of 128 keyed by the query text
    a hit ratio near two thirds (the engine's cache measures less: see
    ``README.md``).  One lookup in five projects a variant attribute behind
    GUARD or HAS.
    """

    name = "point_read"
    rate = 3800.0
    slice_ops = 32
    rows = 20_000
    load_chunk = 200
    zipf_exponent = 1.3

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(seed)
        self.employees = [data.employee(emp_id, rng) for emp_id in range(1, self.rows + 1)]
        self.by_id = {row["emp_id"]: row for row in self.employees}
        weights = itertools.accumulate(1.0 / rank ** self.zipf_exponent
                                       for rank in range(1, self.rows + 1))
        cumulative = list(weights)
        ranked = list(self.by_id)
        rng.shuffle(ranked)
        self.operations = []
        shares = {"row": 0.8, "guard": 0.1, "has": 0.1}
        for kind in shuffled_kinds(shares, operation_count(seconds, self.rate), rng):
            key = ranked[bisect.bisect(cumulative, rng.random() * cumulative[-1])]
            self.operations.append(self._lookup(kind, key, rng))

    def _lookup(self, kind: str, key: int,
                rng: random.Random) -> Tuple[str, str, int, Optional[str]]:
        if kind == "row":
            return (kind, "SELECT emp_id, name, salary, jobtype FROM employees "
                          "WHERE emp_id = {}".format(key), key, None)
        if kind == "guard":
            job = self.by_id[key]["jobtype"]
            attribute = rng.choice(data.VARIANTS[job])
            return (kind, "SELECT emp_id, {0} FROM employees WHERE emp_id = {1} "
                          "AND jobtype = '{2}' GUARD {0}".format(attribute, key, job),
                    key, attribute)
        attribute = rng.choice(data.VARIANT_ATTRIBUTES)
        return (kind, "SELECT emp_id, {0} FROM employees WHERE emp_id = {1} "
                      "AND HAS {0}".format(attribute, key), key, attribute)

    def build(self, setup, directory: str) -> Database:
        database = setup.step(Database)
        table = setup.step(data.create_employees, database)
        for start in range(0, self.rows, self.load_chunk):
            setup.step(table.insert_many, self.employees[start:start + self.load_chunk])
        setup.step(database.analyze)
        rng = random.Random(0)
        for kind in ("row", "guard", "has"):
            setup.step(database.query, self._lookup(kind, 1, rng)[1])
        return database

    def perform(self, database: Database, operation):
        return database.query(operation[1])

    def check(self, database: Database, operation, outcome) -> bool:
        kind, _text, key, attribute = operation
        row = self.by_id[key]
        if kind == "row":
            expected = {FlexTuple({name: row[name] for name in data.BASE_ATTRIBUTES})}
        elif attribute in row:
            expected = {FlexTuple({"emp_id": key, attribute: row[attribute]})}
        else:
            expected = set()
        return outcome.tuples == expected

    def persist(self, database: Database, directory: str) -> Dict[str, list]:
        """Checkpoint the in-memory database into the empty ``directory``."""
        write_checkpoint(database, os.path.join(directory, SNAPSHOT_FILENAME), 0)
        return {"employees": self.employees}


class Analytic(Workload):
    """Optimised algebra queries over the orders table and the star schema.

    Operators take milliseconds per operation and the few distinct plans fit
    the cache, so execution, not per-query overhead, sets the pace.  The mix
    is a grouped aggregate on the Zipf region, a group-by on the variant
    attribute ``coupon`` (which has a group for the absent value), a filtered
    aggregate and top-k, 22.5% each, and the 6-way star join, 10%.  Set-up
    runs every query twice, which absorbs the star join's feedback re-plan.

    The star join allocates most, so full garbage collections land in it.
    At a 20% share they hit ~1% of operations and put p99 on the cliff
    between the collection pauses and the top-k tail, moving it by 20%
    from seed to seed; at 10% they hit ~0.4%, above p99.
    """

    name = "analytic"
    rate = 128.0
    slice_ops = 2
    orders = 5000
    load_chunk = 250

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(seed)
        self.tables = {"orders": data.orders(self.orders, rng)}
        self.tables.update(data.star(rng))
        self.queries = data.analytic_queries()
        self.expected: List[set] = []
        kind_shares = {"group_region": 0.225, "group_coupon": 0.225, "filtered": 0.225,
                       "top_k": 0.225, "star_join": 0.1}
        variants = {kind: sum(1 for other, _ in self.queries if other == kind)
                    for kind in kind_shares}
        shares = {index: kind_shares[kind] / variants[kind]
                  for index, (kind, _expression) in enumerate(self.queries)}
        self.operations = [(self.queries[index][0], index) for index in
                           shuffled_kinds(shares, operation_count(seconds, self.rate), rng)]

    def build(self, setup, directory: str) -> Database:
        database = setup.step(Database)
        setup.step(data.create_orders, database)
        setup.step(data.create_star, database)
        for name, rows in self.tables.items():
            table = database.table(name)
            for start in range(0, len(rows), self.load_chunk):
                setup.step(table.insert_many, rows[start:start + self.load_chunk])
        setup.step(database.analyze)
        for _ in range(2):
            for _kind, expression in self.queries:
                setup.step(database.execute, expression, optimize=True)
        return database

    def prepare(self, database: Database) -> None:
        evaluator = Evaluator(database)
        self.expected = [evaluator.evaluate(expression).tuples
                         for _kind, expression in self.queries]

    def perform(self, database: Database, operation):
        return database.execute(self.queries[operation[1]][1], optimize=True)

    def check(self, database: Database, operation, outcome) -> bool:
        return outcome.tuples == self.expected[operation[1]]

    def persist(self, database: Database, directory: str) -> Dict[str, list]:
        """Write the analytic tables to a durable database in ``directory``.

        The orders table cannot be checkpointed: serialization sorts rows by
        their raw values and fails on a NULL next to a number.  The copy is
        therefore written through the WAL alone, in one transaction, and the
        reopen replays it.
        """
        durable = Database(durable_path=directory)
        data.create_orders(durable)
        data.create_star(durable)
        with durable.transaction():
            for name, rows in self.tables.items():
                durable.insert_many(name, rows)
        durable.close()
        return self.tables


class Ingest(Workload):
    """Durable writes: transactions, rejected AD violations, reads of new keys.

    The database lives in a fresh directory with an fsync per commit, no
    group-commit window, and a checkpoint every ``checkpoint_bytes`` of WAL,
    so several checkpoints fire per run.  70% of operations are transactions
    of 20 inserts, 10% single inserts that violate the jobtype dependency and
    must be rejected, and 20% key lookups among the 256 newest rows.  DML, the WAL, checkpoints and recovery do the work here; both
    in-memory workloads bypass them.
    """

    name = "ingest"
    rate = 300.0
    slice_ops = 4
    preload = 2000
    load_chunk = 250
    batch = 20
    recent = 256
    checkpoint_bytes = 3 << 19
    violation_ids = 10_000_000

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(seed)
        self.accepted = [data.employee(emp_id, rng) for emp_id in range(1, self.preload + 1)]
        self.by_id = {}
        self.operations = []
        self.violations = 0
        next_id = self.preload + 1
        shares = {"transaction": 0.7, "violation": 0.1, "read": 0.2}
        for kind in shuffled_kinds(shares, operation_count(seconds, self.rate), rng):
            if kind == "read":
                row = self.accepted[-1 - rng.randrange(self.recent)]
                self.by_id[row["emp_id"]] = row
                self.operations.append((kind, "SELECT emp_id, name, salary, jobtype "
                                        "FROM employees WHERE emp_id = {}".format(row["emp_id"]),
                                        row["emp_id"]))
            elif kind == "violation":
                self.violations += 1
                row = data.employee(self.violation_ids + self.violations, rng, violating=True)
                self.operations.append((kind, row, None))
            else:
                rows = [data.employee(emp_id, rng) for emp_id in range(next_id, next_id + self.batch)]
                next_id += self.batch
                self.accepted.extend(rows)
                self.operations.append((kind, rows, len(self.accepted)))

    def build(self, setup, directory: str) -> Database:
        database = setup.step(Database, durable_path=directory, wal_fsync=True,
                              group_commit_window=0.0,
                              checkpoint_every_bytes=self.checkpoint_bytes)
        setup.step(data.create_employees, database)
        for start in range(0, self.preload, self.load_chunk):
            setup.step(self._commit, database, self.accepted[start:start + self.load_chunk])
        setup.step(database.analyze)
        setup.step(database.query, "SELECT emp_id, name, salary, jobtype FROM employees "
                                   "WHERE emp_id = {}".format(self.preload))
        return database

    @staticmethod
    def _commit(database: Database, rows) -> None:
        with database.transaction():
            database.insert_many("employees", rows)

    def perform(self, database: Database, operation):
        kind, payload, _ = operation
        if kind == "transaction":
            self._commit(database, payload)
            return None
        if kind == "violation":
            try:
                database.insert("employees", payload)
            except DependencyViolation:
                return "rejected"
            return "accepted"
        return database.query(payload)

    def check(self, database: Database, operation, outcome) -> bool:
        kind, payload, expected = operation
        if kind == "transaction":
            return len(database.table("employees")) == expected
        if kind == "violation":
            self.rejected += outcome == "rejected"
            return outcome == "rejected"
        row = self.by_id[expected]
        return outcome.tuples == {FlexTuple({name: row[name] for name in data.BASE_ATTRIBUTES})}

    def persist(self, database: Database, directory: str) -> Dict[str, list]:
        database.close()
        return {"employees": self.accepted}

    def accepted_bytes(self) -> int:
        """Canonical bytes of the rows the measured transactions inserted."""
        return sum(data.canonical_bytes(row) for row in self.accepted[self.preload:])


WORKLOADS = {workload.name: workload for workload in (PointRead, Analytic, Ingest)}
