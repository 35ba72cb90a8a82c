"""The four workloads: their operation streams and the correctness harness.

A workload is a seeded stream of operations (queries, and for
``churn_store`` also writes and warm restarts) cut into *blocks* of
identical composition.  A run executes whole blocks until its time is
up, so two runs of different length or speed still execute the same mix.

The seed draws what a user would vary — the order of the queries, the
``price <`` / ``year >=`` thresholds, the model, the mutation targets —
and nothing the program could not be handed by a client.  What decides
how much work a query is (its family and its make) follows a fixed
Zipf(1) quota instead of a random draw: with ~500 queries in a run, a
drawn popularity would move every timing by more than the regression
bound from one seed to the next (``ford`` costs three times ``mercury``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

# -- the query universe -------------------------------------------------------------

#: Makes by popularity rank (rank r is asked for with weight 1/r); models per make.
POPULARITY = (
    "ford", "honda", "toyota", "jaguar", "bmw",
    "saab", "chevrolet", "volkswagen", "dodge", "mercury",
)  # fmt: skip
MODELS = {
    "ford": ("escort", "taurus", "explorer"),
    "honda": ("civic", "accord"),
    "toyota": ("camry", "corolla"),
    "jaguar": ("xj6", "xk8"),
    "bmw": ("325i",),
    "saab": ("900",),
    "chevrolet": ("cavalier",),
    "volkswagen": ("jetta",),
    "dodge": ("caravan",),
    "mercury": ("sable",),
}
#: Makes a write may add listings of.  Not ``saab``: a warm restart re-runs
#: the designer sessions on the live sites, and those demonstrate the "few
#: ads: data page at once" branch with saab; once a site lists more than a
#: few saabs, ``WebBase(world)`` raises StopIteration in core/sessions.py.
WRITE_MAKES = tuple(make for make in POPULARITY if make != "saab")
#: Classified and dealer sites whose listings ``mutate_site_listings`` can edit.
MUTABLE_HOSTS = (
    "www.newsday.com", "www.nytimes.com", "www.nydailynews.com",
    "www.carreviews.com", "www.carpoint.com", "www.autoweb.com",
    "www.wwwheels.com", "www.autoconnect.com", "cars.yahoo.com",
)  # fmt: skip


@dataclass(frozen=True)
class Family:
    """One query shape.  ``bounds`` are the selected attributes a drawn
    ``AND attr < n`` / ``AND attr >= n`` suffix may constrain; the suffix
    multiplies distinct query texts (thousands) while the set of
    ``(relation, bindings)`` keys below stays a few hundred."""

    template: str
    bounds: tuple[str, ...] = ()


FAMILIES = {
    # Two maximal objects (classifieds and dealers).
    "price": Family("SELECT make, model, price WHERE make = '{make}'", ("price",)),
    # The paper's Section 7 query.
    "escort": Family(
        "SELECT make, model, year, price, contact "
        "WHERE make = '{make}' AND model = '{model}'",
        ("price", "year"),
    ),
    "rate": Family("SELECT make, model, rate WHERE make = '{make}' AND duration = 36"),
    "safety": Family(
        "SELECT make, model, year, price, safety WHERE make = '{make}'",
        ("price", "year"),
    ),
    # The probe-heavy join: every listing is compared with its blue-book price.
    "bb": Family(
        "SELECT make, model, price, bb_price "
        "WHERE make = '{make}' AND condition = 'good' AND price < bb_price",
        ("price",),
    ),
    "zip": Family("SELECT make, model, price, zip WHERE make = '{make}'", ("price",)),
}

#: attr -> (comparison, values the threshold is drawn from).
BOUNDS = {
    "price": ("<", range(5000, 40000, 50)),
    "year": (">=", range(1991, 1999)),
}
COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "<": lambda value, bound: value < bound,
    ">=": lambda value, bound: value >= bound,
}


@dataclass(frozen=True)
class Op:
    """One operation of a stream."""

    kind: str  # "query" | "write" | "restart"
    text: str = ""  # query: the text the program receives
    base: str = ""  # query: the text without its drawn suffix
    make: str = ""  # query: the make asked for; write: the make of the new ads
    attr: str = ""  # query: the suffix attribute ("" = none)
    bound: int = 0  # query: the suffix threshold
    probe: bool = False  # query: the repeat issued right after a warm restart
    host: str = ""  # write: the site whose listings change
    model: str = ""  # write
    seed: int = 0  # write: seed of the new listings


def zipf_quota() -> Iterator[str]:
    """Makes in an order whose every prefix is as close to Zipf(1) over
    :data:`POPULARITY` as whole counts allow (largest deficit first)."""
    weights = [1.0 / rank for rank in range(1, len(POPULARITY) + 1)]
    total = sum(weights)
    counts = [0] * len(POPULARITY)
    issued = 0
    while True:
        issued += 1
        index = max(
            range(len(POPULARITY)),
            key=lambda i: weights[i] / total * issued - counts[i],
        )
        counts[index] += 1
        yield POPULARITY[index]


@dataclass(frozen=True)
class Workload:
    """What defines one workload; everything else is the program's default."""

    name: str
    why: str
    families: tuple[str, ...]
    connections: int  # closed-loop callers (threads of the one generator)
    per_family: int  # queries of each family in one block (or cycle)
    warmup_per_family: int  # the same for the warm-up pass, part of setup_s
    cache_entries: int = 0  # in-process: LRU result cache of this size (0 = cache off)
    store: bool = False  # in-process: tiered store on
    shards: int = 0  # socket: `cluster serve --shards N --mqo` (0 = plain `serve`)
    cycles: int = 1  # query/write cycles in one block (1 = queries only)
    restart: bool = False  # warm restart in the block's last cycle


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold_navigate",
            why="in-process, result cache off (the paper's configuration): every "
            "query walks the sites, so web, flogic, navigation and sites do the work",
            families=("price", "escort", "rate", "safety", "bb", "zip"),
            connections=1,
            per_family=8,
            warmup_per_family=3,
        ),
        Workload(
            name="warm_serve",
            why="`repro serve` child over 2 sockets, default LRU cache holds the key "
            "set: service, ur, relational and vps lookups are the whole cost",
            families=("price", "escort", "rate", "safety", "bb", "zip"),
            connections=2,
            per_family=16,
            warmup_per_family=10,
        ),
        Workload(
            name="churn_store",
            why="in-process, tiered store on, LRU of 32 entries, a site mutation and "
            "sweep every 12 queries, a warm restart every 5th write: the write path",
            families=("price", "escort", "rate", "safety", "bb", "zip"),
            connections=1,
            per_family=2,
            warmup_per_family=2,
            cache_entries=32,
            store=True,
            cycles=5,
            restart=True,
        ),
        Workload(
            name="cluster_mixed",
            why="`repro cluster serve --shards 2 --mqo` child over 2 sockets, five "
            "families over overlapping makes: the only workload that runs cluster and mqo",
            families=("rate", "safety", "bb", "price", "zip"),
            connections=2,
            per_family=16,
            warmup_per_family=10,
            shards=2,
        ),
    )
}


def shrunk(workload: Workload) -> Workload:
    """The same shape at the smallest size (``--check``)."""
    return replace(
        workload, per_family=1, warmup_per_family=1, cycles=min(workload.cycles, 2)
    )


class OpStream:
    """The seeded operation stream of one workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload.name, seed))
        self._makes = {family: zipf_quota() for family in workload.families}
        self._writes = 0

    def _query(self, family_name: str) -> Op:
        family = FAMILIES[family_name]
        make = next(self._makes[family_name])
        base = family.template.format(make=make, model=self.rng.choice(MODELS[make]))
        # Two queries in three carry a drawn threshold, where the family has one.
        if not family.bounds or self.rng.random() < 1 / 3:
            return Op("query", text=base, base=base, make=make)
        attr = self.rng.choice(family.bounds)
        comparison, domain = BOUNDS[attr]
        bound = self.rng.choice(domain)
        text = "%s AND %s %s %d" % (base, attr, comparison, bound)
        return Op("query", text=text, base=base, make=make, attr=attr, bound=bound)

    def _queries(self, per_family: int) -> list[Op]:
        last, *ops = [
            self._query(family)
            for family in self.workload.families
            for _ in range(per_family)
        ]
        self.rng.shuffle(ops)
        # The round ends on a query of a fixed kind: the one a warm
        # restart repeats must not cost more under one seed than another.
        return ops + [last]

    def _write(self) -> Op:
        make = self.rng.choice(WRITE_MAKES)
        self._writes += 1
        return Op(
            "write",
            host=MUTABLE_HOSTS[self._writes % len(MUTABLE_HOSTS)],
            make=make,
            model=self.rng.choice(MODELS[make]),
            seed=self.rng.randrange(1 << 30),
        )

    def warmup(self) -> list[Op]:
        """The warm-up pass: queries only, part of ``setup_s``."""
        return self._queries(self.workload.warmup_per_family)

    def block(self) -> list[Op]:
        """The next block.  ``churn_store``: each cycle is a round of
        queries then one write; the last cycle restarts the webbase after
        its queries and repeats the query issued just before."""
        workload = self.workload
        ops: list[Op] = []
        for cycle in range(workload.cycles):
            ops += self._queries(workload.per_family)
            if workload.restart and cycle == workload.cycles - 1:
                last = ops[-1]
                probe = Op("query", last.base, last.base, last.make, probe=True)
                ops += [Op("restart"), probe]
            if workload.cycles > 1:
                ops.append(self._write())
        return ops


# -- correctness ----------------------------------------------------------------------


def canonical(rows: Any) -> list[tuple]:
    """Rows as a sorted list of tuples (JSON turns tuples into lists)."""
    return sorted((tuple(row) for row in rows), key=repr)


@dataclass
class Sample:
    """One executed operation, as the caller saw it."""

    op: Op
    epoch: int  # writes applied before it
    latency_s: float
    block: int = 0  # which block of the window it belongs to
    rows: Any = None  # query: the answer's rows
    error: str = ""  # an exception, a refusal or a timeout
    stats: dict[str, Any] = field(default_factory=dict)  # the result frame
    live_pages: int = -1  # probe: live requests this query sent to the Web


class Reference:
    """The rows a correct webbase returns.

    A plain cache-off ``WebBase`` over the program's default world,
    built by the benchmark.  Writes are replayed on that world in stream
    order and the webbase is rebuilt after each, so no cache, store or
    maintenance sweep of the program under test is involved.  A base
    query is re-answered only after a write that added listings of its
    make (the other makes' data did not change); drawn thresholds are
    applied to the reference rows by the benchmark itself.
    """

    def __init__(self) -> None:
        from repro import build_world

        self.world = build_world()
        self.webbase = self._assemble()
        self.epoch = 0
        self._version: dict[str, int] = {}  # make -> last epoch that touched it
        self._answers: dict[tuple[str, int], tuple[list[str], list[tuple], int]] = {}

    def _assemble(self) -> Any:
        from repro import WebBase, WebBaseConfig

        return WebBase(self.world, WebBaseConfig())

    def apply(self, write: Op) -> None:
        from repro.sites.world import mutate_site_listings

        mutate_site_listings(
            self.world,
            host=write.host,
            make=write.make,
            model=write.model,
            seed=write.seed,
            change="auto",
        )
        self.webbase = self._assemble()
        self.epoch += 1
        self._version[write.make] = self.epoch

    def answer(self, op: Op) -> tuple[list[tuple], int]:
        """(expected rows, live pages of the base query on a cold webbase)
        for ``op`` at the reference's current epoch."""
        key = (op.base, self._version.get(op.make, 0))
        if key not in self._answers:
            before = self.webbase.metrics.value("nav.prefix_misses")
            relation = self.webbase.query(op.base)
            pages = self.webbase.metrics.value("nav.prefix_misses") - before
            self._answers[key] = (list(relation.schema), list(relation.rows), pages)
        schema, rows, pages = self._answers[key]
        if op.attr:
            column = schema.index(op.attr)
            keep = COMPARE[BOUNDS[op.attr][0]]
            rows = [
                row
                for row in rows
                if row[column] is not None and keep(row[column], op.bound)
            ]
        return canonical(rows), pages


def verify(samples: list[Sample], report: Callable[[str], None]) -> int:
    """Check every sample, in the order executed, against the reference,
    replaying each write when it is reached; returns the number of failed
    operations and reports each."""
    reference = Reference()
    failed = 0
    for sample in samples:
        op = sample.op
        problem = sample.error
        if not problem and op.kind == "query":
            if reference.epoch != sample.epoch:
                raise AssertionError(
                    "sample of epoch %d reached at reference epoch %d"
                    % (sample.epoch, reference.epoch)
                )
            expected, cold_pages = reference.answer(op)
            got = canonical(sample.rows)
            if got != expected:
                problem = "%d rows, expected %d" % (len(got), len(expected))
            elif op.probe and sample.live_pages > cold_pages:
                problem = "%d live pages after a warm restart, %d on a cold cache" % (
                    sample.live_pages,
                    cold_pages,
                )
        if op.kind == "write" and not problem:
            reference.apply(op)
        if problem:
            sample.error = problem
            failed += 1
            report("FAILED %s %s: %s" % (op.kind, op.text or op.host, problem))
    return failed
