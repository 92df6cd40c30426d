"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — run one registered scenario and print per-run rows + aggregate
  (``--timing`` overrides the timing grid, ``--record-payloads`` captures
  full traces);
* ``sweep`` — run one or more scenario grids (optionally in parallel) and
  print aggregate tables (JSON with ``--json``, flat per-cell CSV rows
  with ``--csv``);
* ``scenarios`` — list the scenario registry (``--json`` for specs, each
  augmented with its run mode and supported deviation profiles);
* ``audit`` — robustness audits: ``audit list`` shows the canonical
  audits, ``audit run`` searches one (k,t) cell for profitable deviations,
  ``audit frontier`` sweeps the (k,t,ε) frontier (both take ``--json`` /
  ``--csv``);
* ``games`` — the game library: ``games list`` shows registered games and
  parameterized families (``--json`` mirrors ``scenarios --json`` with
  player counts, type-space sizes, and punishment availability);
  ``games show <name>`` prints one game's detail, including its
  declarative ``GameDef`` JSON when the game is defined as data
  (``consensus@n5``, ``random@n4s123``, ``file:my_game.json`` all work);
* ``lint`` — run the repo's AST-based static analyzer (determinism,
  protocol-contract, and multiprocessing-safety rules) over source
  trees; ``--list-rules`` documents the rules, ``--diff <ref>`` restricts
  findings to lines changed since a git ref, ``--json`` / ``--out``
  emit the machine-readable report (exit 1 on any active finding);
* ``check`` — run the exact ideal-mediator robustness checker on a game;
* ``store`` — inspect a result store: ``summary`` aggregates, ``query``
  filters stored run records, ``path`` prints the resolved location.

Store path precedence everywhere: ``--store PATH`` beats the
``REPRO_STORE`` environment variable, which beats the command's default
(no store for one-shot commands; ``~/.repro-store/store.sqlite`` for
``store`` inspection).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from repro.analysis.reporting import format_solution_report, format_table
from repro.errors import ExperimentError, GameError
from repro.games.registry import GAME_REGISTRY, iter_games, make_game

# Back-compat alias: the game registry used to live here as a private dict.
GAMES = GAME_REGISTRY


def _spec(args):
    try:
        return make_game(args.game, args.n)
    except GameError as exc:
        sys.exit(str(exc))


def _game_entry(name: str, spec) -> dict:
    """The JSON summary of one built game (``games list/show --json``)."""
    game = spec.game
    definition = spec.definition
    return {
        "name": name,
        "game": game.name,
        "players": game.n,
        "type_profiles": len(game.type_space.profiles()),
        "type_space_sizes": [
            len(game.type_space.player_types(i)) for i in range(game.n)
        ],
        "action_set_sizes": [len(a) for a in game.action_sets],
        "has_punishment": spec.punishment is not None,
        "punishment_strength": spec.punishment_strength,
        "has_default_moves": spec.default_moves is not None,
        "mediator_rule": (
            definition.mediator.get("rule") if definition is not None else None
        ),
        "has_definition": definition is not None,
        "notes": spec.notes,
    }


def cmd_games_list(args) -> None:
    from repro.games.families import iter_families

    entries = []
    for name, maker in iter_games():
        try:
            spec = maker(args.n)
        except Exception as exc:  # some games pin their own n
            entries.append({"name": name, "error": f"n={args.n}: {exc}"})
            continue
        entries.append(_game_entry(name, spec))
    families = [
        {
            "family": name,
            "params": params,
            "example": f"{name}@" + "".join(
                f"{k}{v}" for k, v in params.items()
            ),
        }
        for name, params in iter_families()
    ]
    if getattr(args, "json", False):
        print(json.dumps(
            {"games": entries, "families": families},
            indent=2,
            sort_keys=True,
        ))
        return
    rows = []
    for e in entries:
        if "error" in e:
            rows.append((e["name"], "-", "-", "-", "-", f"({e['error']})"))
            continue
        rows.append((
            e["name"],
            e["players"],
            "x".join(str(s) for s in e["type_space_sizes"]),
            "x".join(str(s) for s in e["action_set_sizes"]),
            "yes" if e["has_punishment"] else "no",
            e["notes"],
        ))
    print(format_table(
        ["game", "n", "types", "actions", "punish", "notes"], rows
    ))
    print("\nparameterized families (use as game names, e.g. "
          "`repro games show consensus@n5`):")
    print(format_table(
        ["family", "example"],
        [(f["family"], f["example"]) for f in families],
    ))


def cmd_games_show(args) -> None:
    try:
        spec = make_game(args.name, args.n)
    except GameError as exc:
        sys.exit(str(exc))
    entry = _game_entry(args.name, spec)
    definition = spec.definition
    if getattr(args, "json", False):
        entry["definition"] = (
            definition.to_dict() if definition is not None else None
        )
        print(json.dumps(entry, indent=2, sort_keys=True))
        return
    for key in (
        "name", "game", "players", "type_profiles", "type_space_sizes",
        "action_set_sizes", "has_punishment", "punishment_strength",
        "has_default_moves", "mediator_rule", "notes",
    ):
        print(f"{key:20} {entry[key]}")
    if definition is not None:
        print("\nGameDef JSON:")
        print(definition.to_json(indent=2))


def cmd_scenarios(args) -> None:
    from repro.experiments import (
        MODE_FOR_THEOREM,
        deviations_for_mode,
        iter_scenarios,
    )

    if getattr(args, "json", False):
        entries = []
        for spec in iter_scenarios():
            mode = MODE_FOR_THEOREM[spec.theorem]
            entries.append({
                **spec.to_dict(),
                # Derived, audit-facing metadata (ScenarioSpec.from_dict
                # drops these on parse, so the entries still round-trip):
                "mode": mode,
                "supported_deviations": deviations_for_mode(mode),
            })
        print(json.dumps(entries, indent=2, sort_keys=True))
        return
    rows = [
        (
            spec.name,
            spec.game,
            spec.theorem,
            spec.n,
            f"({spec.k},{spec.t})",
            ",".join(spec.timings),
            spec.grid_size(),
            spec.description,
        )
        for spec in iter_scenarios()
    ]
    print(format_table(
        ["scenario", "game", "theorem", "n", "(k,t)", "timing", "runs",
         "description"],
        rows,
    ))


def _resolve_scenarios(args):
    from repro.experiments import get_scenario

    specs = []
    for name in args.scenarios:
        try:
            spec = get_scenario(name)
            if args.seeds is not None:
                spec = spec.replace(seed_count=args.seeds)
            if getattr(args, "timing", None):
                spec = spec.replace(timings=(args.timing,))
            if getattr(args, "game", None):
                spec = spec.replace(game=args.game, games=())
            if getattr(args, "record_payloads", False):
                spec = spec.replace(record_payloads=True)
            runtime = getattr(args, "runtime", None)
            latency = getattr(args, "latency", None)
            if runtime or latency is not None:
                # One combined replace: setting runtime and latency
                # separately would trip the spec's cross-field validation
                # mid-way (e.g. a latency model on a still-sim spec).
                changes = {}
                if runtime:
                    changes["runtime"] = runtime
                    if runtime == "sim" and latency is None:
                        changes["latency"] = "zero"
                if latency is not None:
                    changes["latency"] = latency
                spec = spec.replace(**changes)
            if getattr(args, "faults", None):
                spec = spec.replace(
                    faults=tuple(args.faults.split(","))
                )
            if getattr(args, "seed", None) is not None:
                spec = spec.replace(seed_start=args.seed)
        except ExperimentError as exc:
            sys.exit(str(exc))
        specs.append(spec)
    return specs


def _write_csv(path: str, results) -> None:
    """Write results (ExperimentResult or AuditResult) as flat CSV rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(type(results[0]).CSV_FIELDS)
        for result in results:
            writer.writerows(result.csv_rows())


def _print_json(results) -> None:
    if len(results) == 1:
        print(results[0].to_json(indent=2))
    else:
        print(json.dumps([r.to_dict() for r in results], indent=2,
                         sort_keys=True))


def _print_result(result, per_run: bool) -> None:
    from repro.experiments import ExperimentResult

    spec = result.spec
    mode = "parallel" if result.parallel else "serial"
    print(
        f"\n== {spec.name} — {spec.game} via {spec.theorem} "
        f"(n={spec.n}, k={spec.k}, t={spec.t}) "
        f"[{len(result.records)} runs, {mode}, {result.elapsed_s:.1f}s] =="
    )
    if per_run:
        rows = [
            (
                r.game or spec.game,
                r.timing,
                r.scheduler,
                r.deviation,
                r.seed,
                "" if r.ok else (r.error or "?"),
                r.actions if r.ok else "-",
                f"{r.mean_payoff():.3f}" if r.ok else "-",
                r.messages_sent,
            )
            for r in result.records
        ]
        print(format_table(
            ["game", "timing", "scheduler", "deviation", "seed", "error",
             "actions", "payoff", "messages"],
            rows,
        ))
        print()
    print(format_table(ExperimentResult.SUMMARY_HEADERS, result.summary_rows()))
    agg = result.aggregate()
    print(
        f"agreement={agg['agreement_rate']:.2f} "
        f"messages(mean)={agg['messages']['mean']:.0f} "
        f"steps(mean)={agg['steps']['mean']:.0f} "
        f"payoff(mean)={agg['payoff']['mean']:.3f} "
        f"errors={agg['errors']} timeouts={agg['timeouts']}"
    )


def _print_profile(result, store_hit: bool, spans) -> None:
    """The ``--profile`` breakdown: prepare vs run vs payoff, cache, pool.

    The phase times are summed from ``spans``, the spans recorded while
    this scenario ran (worker spans merged in). A whole-result store hit
    simulated nothing, so it reports only that.
    """
    print(f"\nprofile — {result.spec.name}:")
    if store_hit:
        print("whole result answered from the store; nothing simulated")
        return
    stats = result.stats
    cache = stats.get("cache", {})
    pool = stats.get("pool", {})
    seconds = {"prepare": 0.0, "run": 0.0, "payoff": 0.0}
    for record in spans:
        if record.name in seconds:
            seconds[record.name] += record.dur_us / 1e6
    accounted = sum(seconds.values())
    rows = [
        (phase, f"{seconds[name]:.3f}s",
         f"{seconds[name] / accounted * 100:.0f}%" if accounted else "-")
        for name, phase in (
            ("prepare", "prepare (game+compile+deviations)"),
            ("run", "run (simulation)"),
            ("payoff", "payoff"),
        )
    ]
    print(format_table(["phase", "time", "share"], rows))
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    rate = f"{hits / (hits + misses) * 100:.0f}%" if hits + misses else "-"
    print(
        f"artifact cache: {hits} hits / {misses} misses ({rate} hit rate); "
        f"pool: {'reused' if pool.get('reused') else 'fresh' if pool.get('used') else 'serial'}"
        f" ({pool.get('processes', 1)} process(es))"
    )
    if "store" in stats:
        entry = stats["store"]
        print(
            f"result store: {entry.get('hits', 0)} cell(s) answered from "
            f"the store, {entry.get('misses', 0)} simulated, "
            f"{entry.get('stored', 0)} newly stored"
        )


def _open_store(args, default=None):
    """The command's store per the documented precedence, or ``None``."""
    from repro.errors import StoreError
    from repro.store import open_store

    try:
        return open_store(getattr(args, "store", None), default=default)
    except StoreError as exc:
        sys.exit(str(exc))


@contextmanager
def _trace_scope(args):
    """Activate one tracer when ``--trace-out`` or ``--profile`` was given.

    ``--profile`` sums the tracer's spans. On exit, with ``--trace-out``,
    the collected spans — including the ones merged back from pool
    workers — are written as a Chrome trace-event file, loadable in
    ``chrome://tracing`` / Perfetto.
    """
    path = getattr(args, "trace_out", None)
    if not path and not getattr(args, "profile", False):
        yield None
        return
    from repro.obs import Tracer, activate, deactivate

    tracer = Tracer()
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()
        if path:
            events = tracer.write_chrome_trace(path)
            print(
                f"wrote {events} span(s) to {path} "
                "(open in chrome://tracing or ui.perfetto.dev)",
                file=sys.stderr,
            )


def _run_and_report(args, per_run: bool) -> None:
    from repro.experiments import ExperimentRunner

    specs = _resolve_scenarios(args)
    store = _open_store(args)
    runs = []  # (result, whole-result store hit, spans while it ran)
    try:
        with _trace_scope(args) as tracer, ExperimentRunner(
            parallel=args.parallel,
            processes=args.processes,
            timeout_s=args.timeout,
            store=store,
        ) as runner:
            for spec in specs:
                mark = len(tracer) if tracer is not None else 0
                if store is not None:
                    # Result-level dedup: a spec already answered by this
                    # store comes back as the stored document (byte-stable
                    # across invocations), not a fresh simulation.
                    outcome = store.get_or_run(spec, runner=runner)
                    result, hit = outcome.result, outcome.hit
                else:
                    result, hit = runner.run(spec), False
                spans = tracer.spans()[mark:] if tracer is not None else []
                runs.append((result, hit, spans))
    except ExperimentError as exc:
        sys.exit(str(exc))
    finally:
        if store is not None:
            store.close()
    results = [result for result, _, _ in runs]
    if getattr(args, "csv", None):
        _write_csv(args.csv, results)
        total = sum(len(r.records) for r in results)
        print(f"wrote {total} rows to {args.csv}", file=sys.stderr)
    if args.json:
        _print_json(results)
        return
    for result, hit, spans in runs:
        _print_result(result, per_run=per_run)
        if args.profile:
            _print_profile(result, hit, spans)


def cmd_run(args) -> None:
    _run_and_report(args, per_run=True)


def cmd_sweep(args) -> None:
    _run_and_report(args, per_run=False)


def cmd_check(args) -> None:
    from repro.mediator import check_ideal_mediator_robustness

    spec = _spec(args)
    report = check_ideal_mediator_robustness(spec, args.k, args.t)
    print(format_solution_report(report))


def _resolve_audits(args):
    from repro.audit import get_audit

    overrides = {}
    if getattr(args, "seeds", None) is not None:
        overrides["seed_count"] = args.seeds
    if getattr(args, "budget", None) is not None:
        overrides["budget"] = args.budget
    if getattr(args, "method", None):
        overrides["method"] = args.method
    if getattr(args, "game", None):
        overrides["game"] = args.game
    specs = []
    for name in args.audits:
        try:
            specs.append(get_audit(name).replace(**overrides))
        except ExperimentError as exc:
            sys.exit(str(exc))
    return specs


def _print_audit(result, per_candidate: bool) -> None:
    from repro.audit import AuditResult

    spec = result.spec
    mode = "parallel" if result.parallel else "serial"
    print(
        f"\n== audit {spec.name} — scenario {spec.scenario} "
        f"[{len(result.cells)} cell(s), {result.evaluations()} evaluations, "
        f"{mode}, {result.elapsed_s:.1f}s] =="
    )
    print(format_table(AuditResult.SUMMARY_HEADERS, result.summary_rows()))
    if per_candidate:
        for cell in result.cells:
            if not cell.top:
                continue
            print(f"\ntop deviations at (k={cell.k}, t={cell.t}):")
            rows = [
                (
                    f"{score.gain:+.4f}",
                    f"{score.outsider_harm:+.4f}",
                    f"{score.failures}/{score.runs}",
                    score.label,
                )
                for score in cell.top
            ]
            print(format_table(
                ["coalition gain", "outsider harm", "failed", "deviation"],
                rows,
            ))
    agg = result.aggregate()
    verdict = "ROBUST" if agg["robust"] else "NOT ROBUST"
    print(
        f"\nverdict: {verdict} — max observed coalition gain "
        f"{agg['max_gain']:+.4f} over {agg['evaluations']} evaluated "
        f"deviations"
    )


def _audit_and_report(args, results) -> None:
    if getattr(args, "csv", None):
        _write_csv(args.csv, results)
        total = sum(len(r.cells) for r in results)
        print(f"wrote {total} cell rows to {args.csv}", file=sys.stderr)
    if args.json:
        _print_json(results)
        return
    for result in results:
        _print_audit(result, per_candidate=True)


def cmd_audit_list(args) -> None:
    from repro.audit import iter_audits

    if getattr(args, "json", False):
        print(json.dumps(
            [spec.to_dict() for spec in iter_audits()],
            indent=2,
            sort_keys=True,
        ))
        return
    rows = [
        (
            spec.name,
            spec.scenario,
            spec.method,
            spec.budget,
            ",".join(spec.atoms) if spec.atoms else "(all)",
            spec.description,
        )
        for spec in iter_audits()
    ]
    print(format_table(
        ["audit", "scenario", "method", "budget", "atoms", "description"],
        rows,
    ))


def _audit_runner(args):
    """One shared runner for every audit of an invocation: the worker pool
    and artifact caches stay warm across specs and across search batches."""
    from repro.experiments import ExperimentRunner

    return ExperimentRunner(
        parallel=args.parallel,
        processes=args.processes,
        timeout_s=args.timeout,
    )


def cmd_audit_run(args) -> None:
    from repro.audit import run_audit

    specs = _resolve_audits(args)
    store = _open_store(args)
    try:
        with _trace_scope(args), _audit_runner(args) as runner:
            results = [
                run_audit(spec, runner=runner, store=store) for spec in specs
            ]
    except (ExperimentError, GameError) as exc:
        sys.exit(str(exc))
    finally:
        if store is not None:
            store.close()
    _audit_and_report(args, results)


def cmd_audit_fuzz(args) -> None:
    from repro.audit import fuzz_summary, run_fuzz

    store = _open_store(args)
    try:
        with _audit_runner(args) as runner:
            results = run_fuzz(
                count=args.count,
                seed=args.seed,
                n=args.n,
                actions=args.actions,
                types=args.types,
                k=args.k,
                t=args.t,
                budget=args.budget if args.budget is not None else 32,
                seed_count=args.seeds if args.seeds is not None else 3,
                method=args.method or "auto",
                games=args.games or None,
                runner=runner,
                store=store,
            )
    except (ExperimentError, GameError) as exc:
        sys.exit(str(exc))
    finally:
        if store is not None:
            store.close()
    if getattr(args, "csv", None):
        _write_csv(args.csv, results)
        total = sum(len(r.cells) for r in results)
        print(f"wrote {total} cell rows to {args.csv}", file=sys.stderr)
    if args.json:
        _print_json(results)
        return
    rows = []
    for result in results:
        agg = result.aggregate()
        cell = result.cells[0]
        rows.append((
            result.spec.game,
            cell.method,
            f"{cell.evaluated}/{cell.space_size}",
            f"{agg['max_gain']:+.4f}",
            "yes" if agg["robust"] else "NO",
            cell.best.label if cell.best is not None else "-",
        ))
    print(format_table(
        ["game", "method", "searched", "max gain", "robust",
         "best deviation"],
        rows,
    ))
    summary = fuzz_summary(results)
    print(
        f"\nfuzzed {summary['games']} generated game(s): "
        f"{summary['robust']} robust, worst gain {summary['max_gain']:+.4f} "
        f"({summary['worst_game']}) over {summary['evaluations']} evaluations"
    )


def cmd_lint(args) -> None:
    from repro.errors import LintError
    from repro.lint import (
        changed_lines,
        lint_paths,
        rule_descriptions,
    )

    if args.list_rules:
        descriptions = rule_descriptions()
        if args.json:
            print(json.dumps(descriptions, indent=2, sort_keys=True))
            return
        for name in sorted(descriptions):
            print(f"{name}\n    {descriptions[name]}")
        return
    paths = args.paths or ["src"]
    rules = (
        [name for group in args.rules for name in group.split(",") if name]
        if args.rules is not None else None
    )
    try:
        report = lint_paths(paths, rules=rules)
        if args.diff:
            report = report.restrict_to_lines(changed_lines(args.diff, paths))
    except LintError as exc:
        sys.exit(str(exc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json(indent=2))
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.format_text(show_suppressed=args.show_suppressed))
    if report.exit_code:
        raise SystemExit(report.exit_code)


def cmd_faults_list(args) -> None:
    from repro.faults.masking import BREAKING_PLANS, crash_budget
    from repro.faults.plan import _KNOWN_FORMS, fault_names
    from repro.experiments.registry import get_scenario

    if args.json:
        print(json.dumps({
            "registered": fault_names(),
            "forms": list(_KNOWN_FORMS),
            "faultcheck": {
                name: {
                    "budget": crash_budget(get_scenario(name)),
                    "masking": [
                        p for p in get_scenario(name).faults if p != "none"
                    ],
                    "breaking": list(plans),
                }
                for name, plans in sorted(BREAKING_PLANS.items())
            },
        }, indent=2, sort_keys=True))
        return
    print("registered plans:", ", ".join(fault_names()))
    print("parameterized forms:")
    for form in _KNOWN_FORMS:
        print(f"  {form}")
    print()
    print("faultcheck scenarios (repro faults check):")
    for name, plans in sorted(BREAKING_PLANS.items()):
        spec = get_scenario(name)
        masking = [p for p in spec.faults if p != "none"]
        print(f"  {name} (crash budget {crash_budget(spec)})")
        print(f"    must mask:  {', '.join(masking)}")
        print(f"    must break: {', '.join(plans)}")


def cmd_faults_check(args) -> None:
    from repro.errors import ReproError
    from repro.faults.masking import run_faultcheck

    names = args.scenarios or None
    try:
        results = run_faultcheck(names)
    except ReproError as exc:
        sys.exit(str(exc))
    failed = 0
    for result in results:
        for report in result.reports:
            print(report.describe())
            if not report.ok:
                failed += 1
                for mismatch in report.mismatches[:5]:
                    print(f"    {mismatch.describe()}")
    total = sum(len(result.reports) for result in results)
    verdict = "ok" if failed == 0 else "FAILED"
    print(f"masking oracle: {total - failed}/{total} plans behaved "
          f"as claimed [{verdict}]")
    if failed:
        raise SystemExit(1)


def cmd_audit_frontier(args) -> None:
    from repro.audit import run_frontier

    specs = _resolve_audits(args)
    store = _open_store(args)
    try:
        with _trace_scope(args), _audit_runner(args) as runner:
            results = [
                run_frontier(
                    spec,
                    ks=(range(1, args.k_max + 1)
                        if args.k_max is not None else None),
                    ts=(range(0, args.t_max + 1)
                        if args.t_max is not None else None),
                    runner=runner,
                    store=store,
                )
                for spec in specs
            ]
    except (ExperimentError, GameError) as exc:
        sys.exit(str(exc))
    finally:
        if store is not None:
            store.close()
    _audit_and_report(args, results)


def cmd_store_path(args) -> None:
    from repro.store import default_store_path, resolve_store_path

    print(resolve_store_path(args.store, default_store_path()))


def _open_inspect_store(args):
    from repro.errors import StoreError
    from repro.store import ResultStore, default_store_path, resolve_store_path

    path = resolve_store_path(getattr(args, "store", None), default_store_path())
    if path != ":memory:" and not os.path.exists(path):
        sys.exit(f"no store at {path}")
    try:
        return ResultStore(path)
    except StoreError as exc:
        sys.exit(str(exc))


def cmd_store_summary(args) -> None:
    store = _open_inspect_store(args)
    try:
        summary = store.summary()
    finally:
        store.close()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    print(f"store {summary['path']} (schema v{summary['schema_version']})")
    print(
        f"{summary['runs']} run record(s), "
        f"{summary['results']} result document(s)"
    )
    if summary["by_scenario"]:
        print(format_table(
            ["scenario", "runs"], sorted(summary["by_scenario"].items())
        ))
    if summary["by_kind"]:
        print(format_table(
            ["result kind", "documents"], sorted(summary["by_kind"].items())
        ))


def cmd_store_query(args) -> None:
    store = _open_inspect_store(args)
    try:
        records = store.query_records(
            scenario=args.scenario,
            game=args.game,
            theorem=args.theorem,
            timing=args.timing,
            scheduler=args.scheduler,
            deviation=args.deviation,
            seed_min=args.seed_min,
            seed_max=args.seed_max,
            limit=args.limit,
        )
    finally:
        store.close()
    if args.json:
        print(json.dumps(
            [r.to_dict() for r in records], indent=2, sort_keys=True
        ))
        return
    rows = [
        (
            r.scenario,
            r.game,
            r.timing,
            r.scheduler,
            r.deviation,
            r.seed,
            "ok" if r.ok else (r.error or "?"),
            f"{r.mean_payoff():.3f}" if r.ok else "-",
        )
        for r in records
    ]
    print(format_table(
        ["scenario", "game", "timing", "scheduler", "deviation", "seed",
         "status", "payoff"],
        rows,
    ))
    print(f"\n{len(records)} stored record(s) matched", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Implementing Mediators with Asynchronous Cheap Talk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment_options(p):
        p.add_argument("scenarios", nargs="+", metavar="scenario",
                       help="registered scenario name(s); see `scenarios`")
        p.add_argument("--parallel", action="store_true",
                       help="fan runs out over a process pool")
        p.add_argument("--processes", type=int, default=None)
        p.add_argument("--timeout", type=float, default=None,
                       help="per-run timeout in seconds")
        p.add_argument("--seeds", type=int, default=None,
                       help="override the scenario's seed count")
        p.add_argument("--timing", default=None, metavar="MODEL",
                       help="override the scenario's timing grid with one "
                            "model: async, lockstep, bounded-<d>[@<gst>]")
        p.add_argument("--game", default=None, metavar="NAME",
                       help="override the scenario's game (registry name, "
                            "family@params like consensus@n5, or "
                            "file:<path> to a GameDef JSON file)")
        p.add_argument("--record-payloads", action="store_true",
                       help="capture full traces (with payloads) into the "
                            "run records")
        p.add_argument("--runtime", default=None,
                       choices=("sim", "net", "net-tcp"),
                       help="override the execution substrate: the "
                            "simulated kernel under the scenario's "
                            "schedulers (sim), the same kernel delivering "
                            "in seeded latency order (net), or real "
                            "localhost TCP sockets (net-tcp)")
        p.add_argument("--latency", default=None, metavar="MODEL",
                       help="latency model for net runtimes: zero, "
                            "fixed-<d>, lognormal@m<median>s<sigma>, "
                            "gst-<pre>-<post>@<t>")
        p.add_argument("--faults", default=None, metavar="PLANS",
                       help="override the scenario's fault axis with a "
                            "comma-separated list of fault-plan names "
                            "(none, crash@p<pid>s<step>, drop-<p>, "
                            "dup-<p>, partition@{<pids>}t<s>h<h>, "
                            "crash-restart@p<pid>s<s>r<r>, "
                            "corrupt-tcp-<p>, +-joined compounds); "
                            "see `repro faults list`")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's first seed "
                            "(seed_start)")
        p.add_argument("--profile", action="store_true",
                       help="print the prepare/run/payoff time summed from "
                            "the cell spans, plus cache and pool statistics "
                            "per scenario")
        p.add_argument("--json", action="store_true",
                       help="emit ExperimentResult JSON instead of tables")
        p.add_argument("--store", default=None, metavar="PATH",
                       help="answer already-simulated cells from this "
                            "result store and persist fresh ones "
                            "(precedence: --store > REPRO_STORE > off)")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace-event file of the run's "
                            "spans (open in chrome://tracing)")

    p_games = sub.add_parser(
        "games", help="the game library (list / show subcommands)"
    )
    p_games.add_argument("-n", type=int, default=9)
    p_games.add_argument("--json", action="store_true",
                         help="emit game metadata as JSON")
    # Bare `repro games` keeps its historical behaviour: list.
    p_games.set_defaults(func=cmd_games_list)
    games_sub = p_games.add_subparsers(dest="games_command")

    # SUPPRESS keeps the parent parser's already-parsed values
    # (`repro games -n 5 list` and `repro games list -n 5` both work).
    p_games_list = games_sub.add_parser(
        "list", help="list registered games and parameterized families"
    )
    p_games_list.add_argument("-n", type=int, default=argparse.SUPPRESS)
    p_games_list.add_argument("--json", action="store_true",
                              default=argparse.SUPPRESS,
                              help="emit game metadata as JSON")
    p_games_list.set_defaults(func=cmd_games_list)

    p_games_show = games_sub.add_parser(
        "show", help="show one game (registry name, family@params, or "
                     "file:<path>)"
    )
    p_games_show.add_argument("name")
    p_games_show.add_argument("-n", type=int, default=argparse.SUPPRESS)
    p_games_show.add_argument("--json", action="store_true",
                              default=argparse.SUPPRESS,
                              help="emit metadata plus the GameDef JSON")
    p_games_show.set_defaults(func=cmd_games_show)

    p_scen = sub.add_parser("scenarios", help="list the scenario registry")
    p_scen.add_argument("--json", action="store_true",
                        help="emit the registry as ScenarioSpec JSON")
    p_scen.set_defaults(func=cmd_scenarios)

    p_run = sub.add_parser("run", help="run one scenario with per-run rows")
    experiment_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run scenario grids (aggregates)")
    experiment_options(p_sweep)
    p_sweep.add_argument("--csv", default=None, metavar="PATH",
                         help="also write per-cell summary rows as CSV")
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser(
        "audit", help="search for profitable deviations (robustness audits)"
    )
    audit_sub = p_audit.add_subparsers(dest="audit_command", required=True)

    def audit_options(p):
        p.add_argument("audits", nargs="+", metavar="audit",
                       help="registered audit name(s); see `audit list`")
        p.add_argument("--parallel", action="store_true",
                       help="fan candidate evaluation out over a process pool")
        p.add_argument("--processes", type=int, default=None)
        p.add_argument("--timeout", type=float, default=None,
                       help="per-run timeout in seconds")
        p.add_argument("--seeds", type=int, default=None,
                       help="override the audit's seed count")
        p.add_argument("--budget", type=int, default=None,
                       help="override the audit's evaluation budget")
        p.add_argument("--method", default=None,
                       choices=("auto", "exhaustive", "random", "greedy"),
                       help="override the audit's search method")
        p.add_argument("--game", default=None, metavar="NAME",
                       help="override the audited game (family@params or "
                            "file:<path>)")
        p.add_argument("--json", action="store_true",
                       help="emit AuditResult JSON instead of tables")
        p.add_argument("--csv", default=None, metavar="PATH",
                       help="also write per-cell frontier rows as CSV")
        p.add_argument("--store", default=None, metavar="PATH",
                       help="dedup identical audits through this result "
                            "store (precedence: --store > REPRO_STORE > off)")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace-event file of the "
                            "audit's spans (open in chrome://tracing)")

    p_audit_list = audit_sub.add_parser("list", help="list registered audits")
    p_audit_list.add_argument("--json", action="store_true",
                              help="emit the registry as AuditSpec JSON")
    p_audit_list.set_defaults(func=cmd_audit_list)

    p_audit_run = audit_sub.add_parser(
        "run", help="audit one (k,t) cell with top-deviation rows"
    )
    audit_options(p_audit_run)
    p_audit_run.set_defaults(func=cmd_audit_run)

    p_audit_fuzz = audit_sub.add_parser(
        "fuzz", help="audit seeded random games nobody hand-wrote"
    )
    p_audit_fuzz.add_argument("--count", type=int, default=4,
                              help="how many generated games to audit")
    p_audit_fuzz.add_argument("--seed", type=int, default=0,
                              help="first generation seed (games use "
                                   "seed..seed+count-1)")
    p_audit_fuzz.add_argument("-n", type=int, default=4,
                              help="players per generated game")
    p_audit_fuzz.add_argument("--actions", type=int, default=2,
                              help="actions per player")
    p_audit_fuzz.add_argument("--types", type=int, default=1,
                              help="type values per player (1: complete "
                                   "information)")
    p_audit_fuzz.add_argument("-k", type=int, default=1)
    p_audit_fuzz.add_argument("-t", type=int, default=0)
    p_audit_fuzz.add_argument("--games", nargs="*", default=None,
                              metavar="NAME",
                              help="fuzz exactly these game names instead "
                                   "of generating them")
    p_audit_fuzz.add_argument("--parallel", action="store_true",
                              help="fan candidate evaluation out over a "
                                   "process pool")
    p_audit_fuzz.add_argument("--processes", type=int, default=None)
    p_audit_fuzz.add_argument("--timeout", type=float, default=None,
                              help="per-run timeout in seconds")
    p_audit_fuzz.add_argument("--seeds", type=int, default=None,
                              help="run seeds per evaluation (default 3)")
    p_audit_fuzz.add_argument("--budget", type=int, default=None,
                              help="evaluation budget per game (default 32)")
    p_audit_fuzz.add_argument("--method", default=None,
                              choices=("auto", "exhaustive", "random",
                                       "greedy"),
                              help="search method (default auto)")
    p_audit_fuzz.add_argument("--json", action="store_true",
                              help="emit the AuditResult list as JSON")
    p_audit_fuzz.add_argument("--csv", default=None, metavar="PATH",
                              help="also write per-game frontier rows as CSV")
    p_audit_fuzz.add_argument("--store", default=None, metavar="PATH",
                              help="dedup identical fuzz targets through "
                                   "this result store")
    p_audit_fuzz.set_defaults(func=cmd_audit_fuzz)

    p_audit_frontier = audit_sub.add_parser(
        "frontier", help="sweep the (k,t,ε) robustness frontier"
    )
    audit_options(p_audit_frontier)
    p_audit_frontier.add_argument("--k-max", type=int, default=None,
                                  help="sweep k from 1 to K (default: the "
                                       "audit's k)")
    p_audit_frontier.add_argument("--t-max", type=int, default=None,
                                  help="sweep t from 0 to T (default: the "
                                       "audit's t)")
    p_audit_frontier.set_defaults(func=cmd_audit_frontier)

    p_lint = sub.add_parser(
        "lint",
        help="AST determinism & protocol-contract linter (the CI gate)",
    )
    p_lint.add_argument("paths", nargs="*", metavar="path",
                        help="files/directories to lint (default: src)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the LintReport JSON instead of text")
    p_lint.add_argument("--rules", action="append", default=None,
                        metavar="RULE[,RULE]",
                        help="run only these rules (repeatable, "
                             "comma-separable; see --list-rules)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules with descriptions")
    p_lint.add_argument("--diff", default=None, metavar="REF",
                        help="report only findings on lines changed since "
                             "the git ref (fast incremental mode)")
    p_lint.add_argument("--out", default=None, metavar="PATH",
                        help="also write the LintReport JSON to PATH")
    p_lint.add_argument("--show-suppressed", action="store_true",
                        help="include suppressed findings in text output")
    p_lint.set_defaults(func=cmd_lint)

    p_faults = sub.add_parser(
        "faults",
        help="fault-injection plans and the masking oracle",
    )
    p_faults.set_defaults(func=cmd_faults_list, json=False)
    faults_sub = p_faults.add_subparsers(dest="faults_command")

    p_faults_list = faults_sub.add_parser(
        "list",
        help="registered fault plans, name grammar, and oracle scenarios",
    )
    p_faults_list.add_argument("--json", action="store_true",
                               help="emit the listing as JSON")
    p_faults_list.set_defaults(func=cmd_faults_list)

    p_faults_check = faults_sub.add_parser(
        "check",
        help="run the masking oracle: within-budget plans must leave "
             "honest records identical, over-budget plans must break",
    )
    p_faults_check.add_argument(
        "scenarios", nargs="*", metavar="scenario",
        help="faultcheck scenarios to run (default: all registered)")
    p_faults_check.set_defaults(func=cmd_faults_check)

    p_check = sub.add_parser("check", help="exact ideal robustness check")
    p_check.add_argument("--game", default="consensus")
    p_check.add_argument("-n", type=int, default=9)
    p_check.add_argument("-k", type=int, default=1)
    p_check.add_argument("-t", type=int, default=1)
    p_check.set_defaults(func=cmd_check)

    p_store = sub.add_parser(
        "store", help="inspect a result store (summary / query / path)"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    def store_common(p):
        p.add_argument("--store", default=None, metavar="PATH",
                       help="store path (precedence: --store > REPRO_STORE "
                            "> ~/.repro-store/store.sqlite)")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    p_store_summary = store_sub.add_parser(
        "summary", help="counts per scenario and result kind"
    )
    store_common(p_store_summary)
    p_store_summary.set_defaults(func=cmd_store_summary)

    p_store_query = store_sub.add_parser(
        "query", help="filter stored run records"
    )
    store_common(p_store_query)
    p_store_query.add_argument("--scenario", default=None)
    p_store_query.add_argument("--game", default=None)
    p_store_query.add_argument("--theorem", default=None)
    p_store_query.add_argument("--timing", default=None)
    p_store_query.add_argument("--scheduler", default=None)
    p_store_query.add_argument("--deviation", default=None)
    p_store_query.add_argument("--seed-min", type=int, default=None)
    p_store_query.add_argument("--seed-max", type=int, default=None)
    p_store_query.add_argument("--limit", type=int, default=None)
    p_store_query.set_defaults(func=cmd_store_query)

    p_store_path = store_sub.add_parser(
        "path", help="print the resolved store path"
    )
    p_store_path.add_argument("--store", default=None, metavar="PATH")
    p_store_path.set_defaults(func=cmd_store_path)

    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":  # pragma: no cover
    main()
