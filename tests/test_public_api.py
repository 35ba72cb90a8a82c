"""Tests of the top-level public API surface.

Includes fourteen mechanical consistency audits, so drift fails loudly:

* every ``from repro import X`` in the test suite and the benchmarks must
  go through ``repro.__all__`` — the package's declared public API;
* no module of the bottom layer, ``repro.web``, imports from a layer
  built on top of it;
* no layer imports an application domain: the engine takes a ``Domain``
  as an argument, and a domain never imports the facade;
* there is one staleness authority (``repro.revisions``) and one
  dependency derivation (the plan's): no other module keeps its own
  revision table, and none builds a host set from a trace's fetch spans;
* the dependent join has one probe path: the names of the removed ones
  (join-probe speculation, the per-binding engine arm) and of the two
  one-caller settings that left with them do not come back;
* the router has one placement rule: scatter, fingerprint stickiness and
  client redirects do not come back;
* nothing runs ahead of demand: the speculative page prefetcher, its
  wasted-pages budget and the MQO batching window do not come back;
* there is one fan-out: the engine creates a thread only where an open
  fan-out gets its helpers, and the UR layer creates none;
* a probe batch reads one page cache: the batch chunker, the executor's
  navigation sessions and its per-fetch page memo do not come back, and
  the fetch entry points the layer trace wraps still resolve;
* there is one cancellation signal, the execution context: the per-access
  handle layer and its counters do not come back;
* there is one query path: the service's copies of subsume-first and
  gold persistence do not come back, and the report imports no
  evaluator of its own;
* the planner is static: its live-feedback loop and the greedy search
  do not come back, and the UR planner takes no metrics registry;
* there is one single-flight, :mod:`repro.flight`: the federation's
  cross-shard claims and the result cache's wait for a sibling's
  publish do not come back, and the result cache calls no ``sleep``;
* every metric a real workload produces must follow the documented
  ``<subsystem>.<metric>`` naming scheme (``NAME_PATTERN``), the same
  pattern the webbase's strict registry enforces at creation time.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import QueryBuilder, WebBase, build_world
from repro.core.metrics import NAME_PATTERN

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__ if n != "__version__"]
        assert names == sorted(set(names))

    def test_build_shim_is_gone(self):
        assert not hasattr(WebBase, "build")

    def test_the_error_hierarchy_hangs_off_one_base(self):
        from repro import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.WebBaseError), name


def _public_imports(path: Path) -> list:
    """Every name imported via ``from repro import ...`` under ``path``."""
    found = []
    for source in sorted(path.rglob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                for alias in node.names:
                    found.append((source, alias.name))
    return found


def _imports(source: Path) -> list:
    """Every ``repro`` import in ``source`` as ``(function, target)`` —
    module-level or nested; ``function`` names the innermost enclosing
    def ("" at module level).  ``from repro.a import b`` yields both
    ``repro.a`` and ``repro.a.b``, since ``b`` may be a submodule."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        targets = []
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module != "repro":
                targets.append(node.module)
            targets += ["%s.%s" % (node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        found.extend(
            (function, target) for target in targets if target.startswith("repro.")
        )
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source.read_text(), filename=str(source)), "")
    return found


class TestPublicImportLint:
    def test_tests_and_benchmarks_import_only_the_public_api(self):
        imports = _public_imports(REPO / "tests") + _public_imports(
            REPO / "benchmarks"
        )
        assert imports, "the audit must actually see imports"
        offenders = [
            "%s imports repro.%s" % (source.relative_to(REPO), name)
            for source, name in imports
            if name not in repro.__all__
        ]
        assert offenders == []

    def test_the_web_layer_imports_nothing_above_it(self):
        """``repro.web`` is the bottom layer: no module in it may reach up
        into the layers built on it — at module level or inside a function."""
        above = ("vps", "core", "mqo", "cluster", "service")
        modules = sorted((SRC / "web").rglob("*.py"))
        assert modules, "the audit must actually see the web layer"
        offenders = [
            "%s imports %s" % (source.relative_to(REPO), target)
            for source in modules
            for _function, target in _imports(source)
            if target.split(".")[1] in above
        ]
        assert offenders == []

    def test_no_layer_imports_a_domain(self):
        """The layers are domain-independent (the paper's claim): none of
        them imports the car world (``repro.sites``) or any one domain's
        module, and the only edge into domain code is the ``Domain`` type
        and the ``CARS`` default, taken by the two places a stack is
        assembled.  The named exceptions are the whole list."""
        layers = (
            "web flogic navigation vps relational logical ur mqo store core "
            "service cluster"
        ).split()
        assemblers = {"core/webbase.py", "store/rebuild.py"}
        exceptions = {
            # The paper's Section 7 timing table is over TIMING_TABLE_HOSTS.
            ("core/stats.py", "", "repro.sites.world"),
            ("core/parallel.py", "", "repro.sites.world"),
            # The harness-only churn op mutates the simulated car sites.
            ("service/server.py", "_mutate", "repro.sites.world"),
        }
        offenders = []
        for layer in layers:
            modules = sorted((SRC / layer).rglob("*.py"))
            assert modules, "the audit must actually see repro.%s" % layer
            for source in modules:
                relative = source.relative_to(SRC).as_posix()
                for function, target in _imports(source):
                    if target in ("repro.domains.Domain", "repro.domains.CARS"):
                        continue  # names of the package, not submodules
                    if target == "repro.domains":
                        allowed = relative in assemblers
                    else:
                        allowed = target.split(".")[1] not in ("sites", "domains") or (
                            relative,
                            function,
                            ".".join(target.split(".")[:3]),
                        ) in exceptions
                    if not allowed:
                        offenders.append("%s imports %s" % (relative, target))
        assert offenders == []

    def test_no_domain_imports_the_facade(self):
        """A domain is a value the facade consumes, never the reverse."""
        modules = sorted((SRC / "domains").rglob("*.py"))
        assert modules, "the audit must actually see the domains"
        offenders = [
            "%s imports %s" % (source.relative_to(REPO), target)
            for source in modules
            for _function, target in _imports(source)
            if target in ("repro.core", "repro.WebBase")
            or target.startswith("repro.core.webbase")
        ]
        assert offenders == []


class TestOneStalenessAuthority:
    """The :mod:`repro.revisions` contract, kept from drifting back."""

    @staticmethod
    def _trees():
        sources = sorted((REPO / "src" / "repro").rglob("*.py"))
        assert len(sources) > 50, "the audit must actually see the package"
        for source in sources:
            relative = source.relative_to(REPO / "src" / "repro").as_posix()
            yield relative, ast.parse(source.read_text(), filename=str(source))

    def test_only_the_authority_keeps_a_revision_table(self):
        """``store/tiered.py`` is the durable mirror replayed from bronze
        (it is told of moves, it does not decide them)."""
        keepers = {
            relative
            for relative, tree in self._trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute) and target.attr == "_revisions"
        }
        assert keepers == {"revisions.py", "store/tiered.py"}

    def test_no_host_set_is_built_from_fetch_spans(self):
        """What an answer depends on comes from its plan
        (``StructuredUR.plan_hosts``): the fetch spans of one run leave
        out every host a cache hit or a shared evaluation let it skip.
        Counting or timing over fetch spans is accounting, and stays."""

        def walks_fetch_spans(node: ast.AST) -> bool:
            return any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "spans"
                and [getattr(arg, "value", None) for arg in call.args] == ["fetch"]
                for generator in getattr(node, "generators", [])
                for call in ast.walk(generator.iter)
            )

        offenders = []
        for relative, tree in self._trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.SetComp):
                    comprehension: ast.AST = node
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") in ("set", "frozenset")
                    and node.args
                ):
                    comprehension = node.args[0]  # set(x for x in ...)
                else:
                    continue
                if walks_fetch_spans(comprehension):
                    offenders.append("%s:%d" % (relative, node.lineno))
        assert offenders == []


def _references(removed: tuple[str, ...]) -> list[str]:
    """``file:line`` of every name, attribute, parameter or string under
    ``src/repro`` that contains one of the ``removed`` names."""
    offenders = []
    for relative, tree in TestOneStalenessAuthority._trees():
        for node in ast.walk(tree):
            for field in ("id", "attr", "name", "arg", "value"):
                text = getattr(node, field, None)
                if isinstance(text, str) and any(r in text for r in removed):
                    offenders.append("%s:%d" % (relative, node.lineno))
    return offenders


class TestOneProbePath:
    """With a context the dependent join batches its probes, without one
    it runs the per-binding loop; nothing selects a third way."""

    REMOVED = (
        "speculate_probes", "speculate_stagger", "_speculate_probes",
        "_settle_speculation", "_candidate_source", "drain_speculation",
        "_spec_slots", "ACCESS_SHED", "CircuitOpenError", "BulkheadSaturated",
        "batch_enabled", "store_warm", "relation_ttls", "pruned_probes",
    )  # fmt: skip

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []


class TestOnePlacement:
    """The router sends each query to one shard: the HRW owner of its
    dominant host, or the least-busy shard when the owner is too far
    ahead.  No second placement rule comes back."""

    REMOVED = (
        "SCATTER_THRESHOLD", "routed_scatter", "_fp_routes", "_fp_lock",
        "_fp_target", "_fp_acquire", "_fp_release", "_fp_drop_shard",
        "fp_sticky", "mqo_fp", "redirect_ok", "follow_redirects",
        "E_REDIRECT", "Redirected", "spill_margin",
    )  # fmt: skip

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []


class TestNothingAheadOfDemand:
    """Pages are fetched when the navigation asks for them and queries
    run when they are admitted: no prefetcher, no speculation budget, no
    batching window, and no page weights for the batch chunker."""

    REMOVED = (
        "SpeculativePrefetcher", "SpeculationBudget", "prefetch", "try_lead",
        "allows_speculation", "_admit_speculation", "speculation_",
        "_charge_lane", "BatchGate", "mqo_window", "window_wait",
        "_estimate_pages", "_page_stats", "_note_pages", "_binding_signature",
        "recovery_seconds", "backoff_factor",
    )  # fmt: skip

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    def test_the_prefetch_module_is_gone(self):
        assert not (SRC / "navigation" / "prefetch.py").exists()


class TestOneFanout:
    """``ExecutionContext.completed`` is the fan-out; ``map`` and
    ``answer_stream`` are its callers, and it runs on the caller: lanes
    are a model, so no helper thread, and nothing that only concurrent
    helpers needed, comes back."""

    REMOVED = ("_kick", "_fanouts", "_fan_lock")

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    @staticmethod
    def _thread_creations(relative: str, tree: ast.AST) -> list[str]:
        """``file:function`` of every ``threading.Thread(...)`` call."""
        found = []

        def visit(node: ast.AST, function: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "threading.Thread",
                "Thread",
            ):
                found.append("%s:%s" % (relative, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, "")
        return found

    def test_threads_are_created_only_inside_the_primitive(self):
        creations = [
            where
            for relative, tree in TestOneStalenessAuthority._trees()
            if relative == "core/execution.py" or relative.startswith("ur/")
            for where in self._thread_creations(relative, tree)
        ]
        assert creations == []


class TestOnePageCache:
    """A probe batch is one fetch per distinct binding over the query's
    page cache: no chunker splits it, no navigation session or executor
    memo sits on top of the cache, and ``max_workers`` sizes only the
    modelled lanes."""

    REMOVED = ("plan_batch_chunks", "batch_session", "_session_depth", "run_chunk")

    #: What ``bench/trace.py`` wraps on the fetch path.
    TRACED = (
        "repro.core.execution:ExecutionContext.run_fetch",
        "repro.core.execution:ExecutionContext.run_fetch_batch",
        "repro.vps.cache:ResultCache.fetch",
        "repro.vps.cache:ResultCache.fetch_batch",
        "repro.navigation.executor:NavigationExecutor.fetch",
    )

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    @pytest.mark.parametrize("target", TRACED)
    def test_the_traced_fetch_entry_points_resolve(self, target):
        import importlib

        module, qualname = target.split(":")
        owner, name = qualname.split(".")
        assert callable(getattr(getattr(importlib.import_module(module), owner), name))


class TestOneNavigationPlan:
    """The compiler emits each relation's plan beside the rules it prints;
    the executor walks the plan and reads no rule, so it imports nothing
    from the calculus, and no partial evaluator parses the rules back."""

    REMOVED = ("_plan_relation",)

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    def test_the_executor_imports_nothing_from_the_calculus(self):
        source = SRC / "navigation" / "executor.py"
        tree = ast.parse(source.read_text(), filename=str(source))
        relative = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
        ]
        assert relative == [], "the audit reads absolute imports only"
        calculus = [
            (function, target)
            for function, target in _imports(source)
            if target == "repro.flogic" or target.startswith("repro.flogic.")
        ]
        assert calculus == []

    def test_the_traced_calculus_boundary_still_resolves(self):
        """bench/trace.py attributes self time to ``flogic.solve`` by name."""
        from repro.flogic.engine import Engine

        assert callable(Engine.solve)


class TestOneCancellation:
    """``ExecutionContext.cancel()`` is the only way to revoke work, and
    every engine checkpoint reads the flag it sets; no per-access handle
    sits between an access and its context."""

    REMOVED = (
        "AccessHandle", "AccessBatch", "AccessCancelled", "ACCESS_",
        "cancel_pending", "_live_handles", "_note_cancelled", "_push_handle",
        "_pop_handle", "_register_handle", "_run_fetch_inner",
        "resilience.cancelled", "reclaimed_pages",
    )  # fmt: skip

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    def test_the_context_is_the_cancellation_entry_point(self):
        import inspect

        from repro.core.execution import ExecutionContext

        assert list(inspect.signature(ExecutionContext.cancel).parameters) == ["self"]
        # bench/trace.py attributes self time to these two by name.
        assert callable(ExecutionContext.run_fetch)
        assert callable(ExecutionContext.run_fetch_batch)


class TestOneQueryPath:
    """``WebBase.query_stream`` is the query: ``query`` collects it, the
    service pages it out, and ``StructuredUR.answer_stream`` is the one
    loop over a plan's objects.  The service's copies of subsume-first
    and gold do not come back, and the report evaluates no object itself."""

    REMOVED = ("_stream_subsumed", "_persist_streamed")

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    def test_the_report_evaluates_no_object_itself(self):
        tree = ast.parse((SRC / "core" / "report.py").read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert imported.isdisjoint({"evaluate", "FetchFailedError", "FanoutError"})

    def test_only_the_facade_decides_subsume_first(self):
        """EXPLAIN, the service and the report reach gold through
        ``WebBase.query_stream``; none asks the optimizer itself."""
        callers = [
            relative
            for relative, tree in TestOneStalenessAuthority._trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "subsume"
        ]
        assert callers == ["core/webbase.py"]

    def test_the_traced_boundaries_still_resolve(self):
        """bench/trace.py attributes self time to these by name."""
        from repro.core.webbase import WebBase
        from repro.mqo.optimizer import MultiQueryOptimizer
        from repro.service.server import WebBaseService
        from repro.ur.planner import StructuredUR

        for boundary in (
            WebBase.query,
            StructuredUR.answer,
            StructuredUR.answer_stream,
            WebBaseService._execute,
            MultiQueryOptimizer.subsume,
        ):
            assert callable(boundary)


class TestStaticPlanner:
    """The join order is a function of the query's shape and the catalog
    statistics: no live-feedback loop learns from traffic, and the subset
    DP is the one search."""

    REMOVED = (
        "observe_trace", "OBSERVED_", "planner.observed", "page_weight",
        "est_pages", "MIN_WEIGHT", "_greedy", "dp_threshold", "node_budget",
    )  # fmt: skip

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    def test_the_ur_planner_takes_no_metrics(self):
        import inspect

        from repro.ur.planner import StructuredUR

        assert "metrics" not in inspect.signature(StructuredUR.__init__).parameters


class TestOneFlight:
    """:mod:`repro.flight` is the one single-flight.  A federation miss is
    the leader's ordinary fill and a publish: no cross-shard claim lease,
    no adoption of an expired claim, and no wait for a sibling's publish
    comes back."""

    REMOVED = (
        "claim_ttl", "_claims", "FEDERATION_WAIT_SECONDS", "_federation_await",
        "fed_claims", "fed_waits", "_holder",
    )  # fmt: skip

    def test_no_module_defines_or_references_a_removed_name(self):
        assert _references(self.REMOVED) == []

    def test_the_federation_has_no_claim_method(self):
        from repro.cluster.federation import FederationCache, FederationClient

        for owner in (FederationCache, FederationClient):
            assert not hasattr(owner, "claim") and not hasattr(owner, "release")

    def test_the_result_cache_never_sleeps(self):
        """Waiting on a fill is :meth:`repro.flight.Flight.wait`; the cache
        itself polls nothing."""
        source = SRC / "vps" / "cache.py"
        tree = ast.parse(source.read_text(), filename=str(source))
        sleeps = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "sleep"
        ]
        assert sleeps == []


class TestMetricNamingAudit:
    @pytest.fixture(scope="class")
    def exercised_webbase(self):
        """One webbase pushed through the subsystems that emit metrics:
        cached queries, faults + breakers, batched probes."""
        from repro import (
            CachePolicy,
            FaultPlan,
            ResiliencePolicy,
            WebBaseConfig,
        )

        instance = WebBase.create(
            WebBaseConfig(
                ads_per_host=40,
                cache=CachePolicy.lru(),
                faults=FaultPlan(seed=5, error_rate=0.3),
                resilience=ResiliencePolicy(failure_threshold=2),
            )
        )
        instance.query(
            "SELECT make, model, price, zip, rate, safety "
            "WHERE make = 'toyota' AND safety = 'excellent' AND duration = 36"
        )
        instance.query("SELECT make, model, price WHERE make = 'saab'")
        return instance

    def test_every_emitted_metric_matches_the_scheme(self, exercised_webbase):
        snapshot = exercised_webbase.metrics.snapshot()
        names = (
            list(snapshot["counters"])
            + list(snapshot["gauges"])
            + list(snapshot["histograms"])
        )
        assert len(names) >= 10, "the workload must emit a real spread"
        offenders = [n for n in names if NAME_PATTERN.match(n) is None]
        assert offenders == []

    def test_the_webbase_registry_is_strict(self, exercised_webbase):
        with pytest.raises(ValueError):
            exercised_webbase.metrics.counter("not-a-valid-name")

    def test_package_reexports(self):
        assert WebBase is repro.core.webbase.WebBase
        assert QueryBuilder is repro.ur.builder.QueryBuilder
        world = build_world()
        assert world.server.hosts


class TestDocstrings:
    def test_every_public_module_is_documented(self):
        import importlib
        import pkgutil

        undocumented = []
        for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ or "").strip():
                undocumented.append(module_info.name)
        assert not undocumented, undocumented

    def test_key_classes_are_documented(self):
        from repro.flogic.engine import Engine
        from repro.navigation.builder import MapBuilder
        from repro.ur.planner import StructuredUR
        from repro.vps.schema import VpsSchema

        for cls in (Engine, MapBuilder, StructuredUR, VpsSchema, WebBase):
            assert (cls.__doc__ or "").strip(), cls


class TestPlannerModes:
    def test_unoptimized_planner_agrees_with_optimized(self, webbase):
        from repro.ur.planner import StructuredUR
        from repro.domains.cars.usedcars import (
            UR_RELATIONS,
            used_car_hierarchy,
            used_car_rules,
        )

        plain = StructuredUR(
            logical=webbase.logical,
            hierarchy=used_car_hierarchy(),
            rules=used_car_rules(),
            relations=UR_RELATIONS,
            optimize_plans=False,
        )
        text = (
            "SELECT make, model, price, bb_price "
            "WHERE make = 'jaguar' AND condition = 'good' AND price < bb_price"
        )
        assert plain.answer(text) == webbase.query(text)

    def test_optimized_plans_record_rewrites(self, webbase):
        plan = webbase.plan(
            "SELECT make, model, price, bb_price "
            "WHERE make = 'jaguar' AND condition = 'good' AND price < bb_price"
        )
        assert any(obj.rewrites for obj in plan.feasible_objects)
