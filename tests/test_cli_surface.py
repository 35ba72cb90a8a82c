"""The configuration surface, pinned.  No world is built here.

The rule (ROADMAP, standing rule): *a flag or config field stays iff two
callers that are not tests set it differently; deployment settings —
addresses, ports, paths, pool and queue sizes, ``--store-fsync`` —
always stay; everything else is a module constant or goes with the
branch it selected.*  These tests make the rule's outcome a fact of the
suite: a deleted flag is an argparse error, every surviving option
string has a row that says which config value it becomes, the worker
receives the cluster's config as one value, and the field count is a
number someone has to edit on purpose.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.cli import build_parser, cluster_config, service_config, webbase_config
from repro.cluster.router import ClusterConfig
from repro.cluster.worker import worker_argv
from repro.core.execution import RetryPolicy, WebBaseConfig
from repro.core.resilience import ResiliencePolicy
from repro.service.server import ServiceConfig
from repro.vps.cache import CachePolicy
from repro.web.server import FaultPlan

Q = "SELECT make WHERE make = 'saab'"
WORKER = ["cluster", "worker", "--shard-id", "s", "--store-dir", "d", "--config",
          '{"store_root": "r"}']
CSERVE = ["cluster", "serve", "--store-root", "r"]


def _exit_code(argv: list[str]) -> int:
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    return exit_info.value.code


# -- (a) what was deleted stays deleted ------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--cache", "query", Q],
        ["--no-cache", "query", Q],
        ["--cache-ttl", "300", "query", Q],
        ["--stale-mode", "serve-stale", "query", Q],
        ["--store-warm", "query", Q],
        ["--no-store-warm", "query", Q],
        ["--batch", "query", Q],
        ["--no-batch", "query", Q],
        ["--fault-seed", "3", "query", Q],
        ["--resilience", "query", Q],
        ["--no-resilience", "query", Q],
        ["--breaker-recovery", "30", "query", Q],
        ["--breaker-slow", "10", "query", Q],
        ["--bulkhead", "2", "query", Q],
        ["--speculate", "query", Q],
        ["--no-speculate", "query", Q],
        ["--prune", "query", Q],
        ["--no-prune", "query", Q],
        ["serve", "--default-deadline-ms", "100"],
        ["serve", "--per-client", "4"],
        ["serve", "--page-size", "10"],
        [*CSERVE, "--federation"],
        [*CSERVE, "--no-federation"],
        [*CSERVE, "--health-interval", "1"],
        [*WORKER, "--seed", "7"],
        [*WORKER, "--ads-per-host", "12"],
        [*WORKER, "--queue-limit", "4"],
        [*WORKER, "--threads", "2"],
        [*WORKER, "--allow-mutation"],
        [*WORKER, "--mqo"],
        [*WORKER, "--mqo-window-ms", "25"],
        ["serve", "--mqo-window-ms", "25"],
        # ``=`` keeps this id apart from the worker row's above.
        [*CSERVE, "--mqo-window-ms=25"],
    ],
    ids=lambda argv: "%s %s" % (argv[0], [a for a in argv if a.startswith("--")][-1]),
)
def test_a_deleted_flag_is_a_usage_error(argv):
    """Unknown on the subcommand it was deleted from — not silently
    ignored (``client --page-size`` stays: see the table below)."""
    assert _exit_code(argv) == 2


# -- (b) every surviving option string, and the config value it becomes ----------

#: ``argv → mapper → expected``.  A config is compared whole; a dict is a
#: subset of the parsed namespace (options a command reads directly).
TABLE = [
    # global flags → WebBaseConfig (the command decides the cache)
    (["query", Q], webbase_config, WebBaseConfig()),
    (
        ["--seed", "7", "--ads-per-host", "30", "--workers", "4", "query", Q],
        webbase_config,
        WebBaseConfig(seed=7, ads_per_host=30, max_workers=4),
    ),
    (
        ["--store", "D", "--store-fsync", "query", Q],
        webbase_config,
        WebBaseConfig(store_dir="D", store_fsync=True, cache=CachePolicy.lru()),
    ),
    (
        ["--optimizer", "off", "--mqo", "explain", Q],
        webbase_config,
        WebBaseConfig(optimizer="off", mqo=True),
    ),
    (["--no-mqo", "plan", Q], webbase_config, WebBaseConfig()),
    (
        ["--fault-rate", "0.1", "--breaker-threshold", "2", "trace", Q],
        webbase_config,
        WebBaseConfig(
            faults=FaultPlan(error_rate=0.1),
            resilience=ResiliencePolicy(failure_threshold=2),
        ),
    ),
    (["metrics"], webbase_config, WebBaseConfig(cache=CachePolicy.lru())),
    (["serve"], webbase_config, WebBaseConfig(cache=CachePolicy.lru())),
    (
        ["--fault-rate", "0.05", "resilience", "--slow-host", "www.kbb.com"],
        webbase_config,
        WebBaseConfig(
            cache=CachePolicy.lru(ttl_seconds=0.0, stale_mode="serve_stale"),
            faults=FaultPlan(
                error_rate=0.05,
                spike_rate=1.0,
                spike_seconds=6.0,
                hosts=("www.kbb.com",),
            ),
            resilience=ResiliencePolicy(slow_seconds=10.0),
        ),
    ),
    # serve → ServiceConfig
    (["serve"], service_config, ServiceConfig(port=8571)),
    (
        ["serve", "--host", "0.0.0.0", "--port", "0", "--queue-limit", "3",
         "--service-workers", "2"],
        service_config,
        ServiceConfig(host="0.0.0.0", port=0, queue_limit=3, workers=2),
    ),
    # cluster serve → ClusterConfig (what bench/targets.py mirrors)
    (
        ["cluster", "serve", "--port", "0", "--shards", "2", "--mqo",
         "--store-root", "R"],
        cluster_config,
        ClusterConfig(
            store_root="R", port=0, shards=2, mqo=True, health_interval_seconds=2.0
        ),
    ),
    (
        ["--seed", "7", "--ads-per-host", "12", "cluster", "serve",
         "--store-root", "R", "--host", "0.0.0.0", "--queue-limit", "8",
         "--service-workers", "2", "--max-inflight", "5", "--no-mqo"],
        cluster_config,
        ClusterConfig(
            store_root="R",
            host="0.0.0.0",
            port=8570,
            seed=7,
            ads_per_host=12,
            worker_queue_limit=8,
            worker_threads=2,
            max_inflight=5,
            health_interval_seconds=2.0,
        ),
    ),
    # options a command reads straight off the namespace
    (["query", Q, "--limit", "3", "--deadline-ms", "0"], vars,
     {"limit": 3, "deadline_ms": 0.0}),
    (["trace", Q, "--export-json"], vars, {"export_json": "-"}),
    (["map", "www.newsday.com", "--dot"], vars, {"dot": True}),
    (["metrics", "--repeat", "3"], vars, {"repeat": 3}),
    (["resilience", "--passes", "4"], vars,
     {"passes": 4, "slow_host": "www.newsday.com"}),
    (
        ["client", Q, "--host", "h", "--port", "1", "--deadline-ms", "5",
         "--page-size", "10", "--limit", "2", "--connect-timeout", "30"],
        vars,
        {"host": "h", "port": 1, "deadline_ms": 5.0, "page_size": 10,
         "limit": 2, "connect_timeout": 30.0},
    ),
    (["cluster", "status", "--host", "h", "--port", "1", "--metrics"], vars,
     {"host": "h", "port": 1, "metrics": True}),
    (["cluster", "drain", "--host", "h", "--port", "1"], vars,
     {"host": "h", "port": 1}),
    (["--store", "D", "store", "rebuild", "--no-write"], vars, {"write": False}),
    (["--store", "D", "store", "rebuild", "--write"], vars, {"write": True}),
    (
        ["cluster", "worker", "--shard-id", "shard-0", "--store-dir", "d",
         "--addr-file", "a", "--host", "h", "--port", "1",
         "--federation", "127.0.0.1:9", "--config", '{"store_root": "r"}'],
        vars,
        {"shard_id": "shard-0", "store_dir": "d", "addr_file": "a", "host": "h",
         "port": 1, "federation": "127.0.0.1:9",
         "config": ClusterConfig(store_root="r")},
    ),
]


@pytest.mark.parametrize("argv, mapper, expected", TABLE)
def test_argv_becomes_exactly_this_configuration(argv, mapper, expected):
    got = mapper(build_parser().parse_args(argv))
    if isinstance(expected, dict):
        got = {name: got[name] for name in expected}
    assert got == expected


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return {
        name: sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }


def _declared(parser: argparse.ArgumentParser, path: tuple = ()) -> set[tuple]:
    """Every ``(subcommand path, option string)`` the parser tree accepts."""
    found = {
        (path, option)
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    for name, sub in _subparsers(parser).items():
        found |= _declared(sub, path + (name,))
    return found


def _exercised(argv: list[str]) -> set[tuple]:
    """The ``(path, option string)`` pairs one table row spells out."""
    parser, path, found = build_parser(), (), set()
    for token in argv:
        if token in _subparsers(parser):
            parser, path = _subparsers(parser)[token], path + (token,)
        elif token.startswith("--"):
            found.add((path, token))
    return found


def test_every_option_string_has_a_table_row():
    """The next flag arrives with a row saying what it configures, or
    not at all."""
    covered = set().union(*(_exercised(argv) for argv, _, _ in TABLE))
    missing = sorted(_declared(build_parser()) - covered)
    assert missing == [], "option strings with no TABLE row: %r" % (missing,)


# -- (c) the worker receives the cluster's config as one value -------------------


def _all_fields_changed() -> ClusterConfig:
    """A config that differs from the defaults in *every* field — built
    from ``dataclasses.fields``, so a new field is covered unasked."""
    changed = {}
    for field in dataclasses.fields(ClusterConfig):
        default = field.default
        if isinstance(default, bool):
            changed[field.name] = not default
        elif isinstance(default, (int, float)):
            changed[field.name] = default + 2
        elif isinstance(default, str):
            changed[field.name] = default + "x"
        elif default is None:
            changed[field.name] = 3.5
        else:  # no default: store_root
            changed[field.name] = "/clusters/a b"
    return ClusterConfig(**changed)


def test_a_cluster_config_survives_the_trip_to_a_worker():
    config = _all_fields_changed()
    defaults = ClusterConfig(store_root="")
    for field in dataclasses.fields(ClusterConfig):
        assert getattr(config, field.name) != getattr(defaults, field.name), field.name
    argv = worker_argv(config, "shard-1", "/s/shard-1", "/s/shard-1/worker.addr",
                       ("127.0.0.1", 4242))
    args = build_parser().parse_args(argv)
    assert args.config == config
    assert (args.shard_id, args.store_dir, args.addr_file, args.federation) == (
        "shard-1", "/s/shard-1", "/s/shard-1/worker.addr", "127.0.0.1:4242"
    )
    # No federation bus, no flag: the worker parser's default is "none".
    assert build_parser().parse_args(
        worker_argv(config, "shard-1", "/s", "/s/a")
    ).federation == ""


def test_the_worker_parser_declares_identity_address_and_paths_only():
    worker = {opt for path, opt in _declared(build_parser()) if path == ("cluster", "worker")}
    assert worker == {
        "--shard-id", "--store-dir", "--addr-file", "--host", "--port",
        "--federation", "--config",
    }


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"store_root": "r", "no_such_field": 1}',
        '{"shards": 2}',  # store_root is required
        '{"store_root": "r", "shards": 0}',  # ClusterConfig's own validation
    ],
)
def test_a_malformed_worker_config_is_a_usage_error(text, capsys):
    assert _exit_code([*WORKER[:-1], text]) == 2
    assert "--config" in capsys.readouterr().err


# -- (d) the field count is edited on purpose -------------------------------------

CONFIG_CLASSES = (
    WebBaseConfig, RetryPolicy, CachePolicy, ResiliencePolicy, ServiceConfig,
    ClusterConfig,
)
MAX_CONFIG_FIELDS = 38


def test_the_config_field_count_is_pinned():
    counts = {cls.__name__: len(dataclasses.fields(cls)) for cls in CONFIG_CLASSES}
    assert sum(counts.values()) <= MAX_CONFIG_FIELDS, (
        "%d config fields (%r) > %d.  A field stays only if two callers that "
        "are not tests set it differently (deployment settings — addresses, "
        "ports, paths, pool/queue sizes, fsync — always stay); otherwise make "
        "it a module constant next to its one use.  If the new field meets "
        "that rule, raise MAX_CONFIG_FIELDS in the same commit and say which "
        "two callers." % (sum(counts.values()), counts, MAX_CONFIG_FIELDS)
    )


# -- (e) so is the option count ---------------------------------------------------

MAX_CLI_ARGUMENTS = 57


def _arguments(parser: argparse.ArgumentParser) -> int:
    """Every ``add_argument`` in the parser tree (``--help`` excluded)."""
    skip = (argparse._SubParsersAction, argparse._HelpAction)
    own = sum(1 for action in parser._actions if not isinstance(action, skip))
    return own + sum(_arguments(sub) for sub in _subparsers(parser).values())


def test_the_cli_argument_count_is_pinned():
    assert _arguments(build_parser()) <= MAX_CLI_ARGUMENTS, (
        "a new CLI argument: it stays only under the same rule as a config "
        "field — raise MAX_CLI_ARGUMENTS in the same commit and say why"
    )
