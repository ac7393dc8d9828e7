"""Command-line front-end for the tool-chain.

Mirrors the pinball2elf distribution's command-line surface so shell
workflows read like the paper's:

    python -m repro.core.cli pinball2elf --pinball DIR/NAME --out x.elfie \\
        --roi-start sniper:0x42 --perf-exit
    python -m repro.core.cli pinball2elf --pinball DIR/NAME --object
    python -m repro.core.cli sysstate   --pinball DIR/NAME --out-dir SYS
    python -m repro.core.cli replay     --pinball DIR/NAME [--injection 0]
    python -m repro.core.cli logger     --binary prog.elf --start N \\
        --length M [--warmup W] [--fat/--no-fat] --out DIR --name NAME

The differential replay-fidelity verifier:

    python -m repro.core.cli verify run  --pinball DIR/NAME --binary prog.elf
    python -m repro.core.cli verify fuzz --time-budget 60
    python -m repro.core.cli verify corpus --corpus tests/corpus

The checkpoint farm (store-memoized, parallel PinPoints campaigns):

    python -m repro.core.cli farm run   --store .farm --app 502.gcc_r \\
        --app 505.mcf_r --jobs 4 --manifest run.jsonl
    python -m repro.core.cli farm stats --store .farm
    python -m repro.core.cli farm gc    --store .farm [--dry-run]

Global ``--trace FILE`` / ``--metrics FILE`` (before the subcommand)
export a Chrome trace-event JSON and a metrics snapshot of the run:

    python -m repro.core.cli --trace run.json --metrics run-metrics.json \\
        farm run --store .farm --app 505.mcf_r --manifest run.jsonl

Binaries are PX ELF executables (build them with
``repro.workloads.build_executable`` or the assembler).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.markers import MarkerSpec
from repro.core.pinball2elf import Pinball2Elf, Pinball2ElfOptions
from repro.core.elfie import run_elfie
from repro.machine.cpu import DISPATCH_TIERS
from repro.observe import hooks
from repro.pinplay.logger import LogOptions, log_region
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec
from repro.pinplay.replayer import replay
from repro.pinplay.sysstate import extract_sysstate


def _load_pinball(spec: str) -> Pinball:
    """Load DIR/NAME (the pinball file prefix, as in PinPlay)."""
    if "/" in spec:
        directory, _, name = spec.rpartition("/")
    else:
        directory, name = ".", spec
    return Pinball.load(directory, name)


def _cmd_pinball2elf(args: argparse.Namespace) -> int:
    pinball = _load_pinball(args.pinball)
    options = Pinball2ElfOptions(
        output="object" if args.object else "executable",
        marker=MarkerSpec.parse(args.roi_start) if args.roi_start else None,
        perf_exit=args.perf_exit,
        monitor=args.monitor,
        dump_contexts=args.dump_contexts,
        stack_fix=not args.no_stack_fix,
        sysstate=extract_sysstate(pinball) if args.sysstate else None,
    )
    artifact = Pinball2Elf(pinball, options).convert()
    artifact.save(args.out)
    print("wrote %s (%d bytes, entry 0x%x)"
          % (args.out, len(artifact.image), artifact.entry))
    if artifact.linker_script is not None:
        print("wrote %s.lds" % args.out)
    if artifact.context_listing is not None:
        print("wrote %s.ctx.s" % args.out)
    return 0


def _cmd_sysstate(args: argparse.Namespace) -> int:
    pinball = _load_pinball(args.pinball)
    state = extract_sysstate(pinball)
    report = {
        "pinball": pinball.name,
        "fd_files": [
            {"name": proxy.name, "fd": proxy.restore_fd,
             "bytes": len(proxy.data)}
            for proxy in state.fd_files
        ],
        "named_files": [
            {"name": proxy.name, "bytes": len(proxy.data)}
            for proxy in state.named_files
        ],
        "first_brk": "0x%x" % state.first_brk,
        "last_brk": "0x%x" % state.last_brk,
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    pinball = _load_pinball(args.pinball)
    result = replay(pinball, injection=bool(args.injection))
    print("status: %s %s" % (result.status.kind, result.status.detail))
    print("instructions: %d (recorded %d)"
          % (result.total_icount, pinball.region_icount))
    if args.injection:
        print("injected syscalls: %d" % result.injected_syscalls)
        print("matches recording: %s" % result.matches_recording)
    # A structured divergence is a hard failure in either mode: scripts
    # must be able to gate on the exit status, not parse stdout.
    if result.diverged:
        print("divergence: %s" % result.diverged)
        return 1
    return 0 if result.status.kind in ("exit", "stopped") else 1


def _cmd_logger(args: argparse.Namespace) -> int:
    with open(args.binary, "rb") as handle:
        image = handle.read()
    region = RegionSpec(start=args.start, length=args.length,
                        warmup=args.warmup, name=args.name)
    pinball = log_region(image, region,
                         LogOptions(name=args.name, fat=args.fat))
    prefix = pinball.save(args.out)
    print("wrote pinball %s.* (%d pages, %d threads, %d instructions)"
          % (prefix, len(pinball.pages), pinball.num_threads,
             pinball.region_icount))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.elfie, "rb") as handle:
        image = handle.read()
    run = run_elfie(image, seed=args.seed)
    print("status: %s %s" % (run.status.kind, run.status.detail))
    if run.stderr:
        sys.stderr.write(run.stderr.decode("ascii", "replace"))
    if run.stdout:
        sys.stdout.write(run.stdout.decode("ascii", "replace"))
    if run.app_icounts:
        print("application instructions: %s" % run.app_icounts)
    return run.status.code if run.status.kind == "exit" else 128


def _cmd_verify_run(args: argparse.Namespace) -> int:
    from repro.verify import verify_pinball

    pinball = _load_pinball(args.pinball)
    with open(args.binary, "rb") as handle:
        image = handle.read()
    previous = None
    if args.dispatch is not None:
        from repro.machine.cpu import set_default_dispatch
        previous = set_default_dispatch(args.dispatch)
    try:
        report = verify_pinball(image, pinball, seed=args.seed,
                                epochs=args.epochs,
                                bisect=not args.no_bisect)
    finally:
        if previous is not None:
            from repro.machine.cpu import set_default_dispatch
            set_default_dispatch(previous)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
    if report.divergence is not None and not args.no_bisect:
        print(report.divergence.diff)
    return 0 if report.ok else 1


def _cmd_verify_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import fuzz, save_corpus_case
    from repro.verify.corpus import default_corpus_dir

    summary = fuzz(time_budget=args.time_budget, start_seed=args.start_seed,
                   max_cases=args.max_cases, seed=args.seed,
                   minimize=not args.no_minimize,
                   checkpoint_path=args.checkpoint,
                   dispatch=args.dispatch)
    print("cases run: %d  invalid: %d  divergences: %d"
          % (summary.cases_run, summary.invalid, len(summary.failures)))
    for outcome in summary.failures:
        print("FAIL stage=%s case=%s" % (outcome.stage, outcome.case.name))
        print("  detail: %s" % outcome.detail)
        print("  minimized seed: %s"
              % json.dumps(outcome.case.to_json(), sort_keys=True))
        if args.save_failures:
            directory = args.corpus or default_corpus_dir()
            path = save_corpus_case(directory, outcome.case,
                                    name="fuzz-%s" % outcome.case.name,
                                    bug="found by verify fuzz (stage %s)"
                                        % outcome.stage)
            print("  saved: %s" % path)
    return 1 if summary.failures else 0


def _cmd_verify_corpus(args: argparse.Namespace) -> int:
    from repro.verify import failing, format_failure, replay_corpus
    from repro.verify.corpus import default_corpus_dir

    directory = args.corpus or default_corpus_dir()
    results = replay_corpus(directory, seed=args.seed)
    if not results:
        print("no corpus cases under %s" % directory)
        return 0
    bad = failing(results)
    print("corpus: %d cases, %d failing" % (len(results), len(bad)))
    for entry, outcome in bad:
        print(format_failure(entry, outcome))
    return 1 if bad else 0


def _cmd_verify_lockstep(args: argparse.Namespace) -> int:
    from repro.verify import lockstep_corpus
    from repro.verify.corpus import default_corpus_dir

    directory = args.corpus or default_corpus_dir()
    sweep = lockstep_corpus(directory, seed=args.seed, hops=args.hops,
                            hop_seed=args.hop_seed,
                            mt_count=args.mt_cases, epochs=args.epochs)
    for name, outcome in sweep.outcomes:
        print(outcome.summary())
    print("lockstep: %d workloads, %d failing"
          % (len(sweep.outcomes), len(sweep.failures)))
    return 1 if sweep.failures else 0


def _cmd_verify_aslr(args: argparse.Namespace) -> int:
    from repro.verify import FuzzCase, aslr_invariance

    recipes = (
        ("arith", "mmap"),
        ("arith", "futex"),
        ("arith", "futex", "signals"),
        ("arith", "futex", "pipes"),
        ("arith", "shm"),
        ("arith", "files"),
    )
    failures = 0
    for index in range(args.cases):
        features = recipes[index % len(recipes)]
        case = FuzzCase(seed=args.start_seed + index,
                        threads=2 if "futex" in features else 1,
                        iterations=2, features=features,
                        region_pos=30, region_len_pct=60)
        outcome = aslr_invariance(case, args.aslr_seed + index,
                                  seed=args.seed)
        print("%s %s features=%s" % ("ok  " if outcome.ok else "FAIL",
                                     case.name, ",".join(features)))
        if not outcome.ok:
            failures += 1
            print("  stage=%s detail=%s" % (outcome.stage, outcome.detail))
    print("aslr invariance: %d cases, %d failing" % (args.cases, failures))
    return 1 if failures else 0


def _campaign_images(args: argparse.Namespace) -> dict:
    from repro.workloads import get_app

    return {name: get_app(name).build(args.input) for name in args.app}


def _looppoint_image(args: argparse.Namespace):
    """(image, name) from --binary PATH or --app SUITE_NAME."""
    if args.binary:
        with open(args.binary, "rb") as handle:
            return handle.read(), args.binary.rpartition("/")[2]
    from repro.workloads import get_app

    return get_app(args.app).build(args.input), args.app


def _cmd_looppoint_profile(args: argparse.Namespace) -> int:
    from repro.looppoint import collect_looppoint, harvest_markers

    image, name = _looppoint_image(args)
    marker_map = harvest_markers(image)
    print("%s: module %s, %d work markers, %d sync markers (excluded)"
          % (name, marker_map.module, len(marker_map.work_markers),
             len(marker_map.sync_markers)))
    for marker in marker_map.markers:
        print("  +0x%-6x %-6s %s" % (marker.offset, marker.kind,
                                     marker.symbol or "?"))
    if args.markers_out:
        with open(args.markers_out, "w") as handle:
            json.dump(marker_map.to_json(), handle, indent=2)
            handle.write("\n")
        print("marker map -> %s" % args.markers_out)
    profile = collect_looppoint(image, slice_markers=args.slice_markers,
                                seed=args.seed, marker_map=marker_map)
    print("%d slices of %d work-marker crossings; %d work / %d sync "
          "crossings; %d instructions, CPI %.3f"
          % (len(profile.slices), args.slice_markers,
             profile.work_crossings, profile.sync_crossings,
             profile.total_icount, profile.whole_program_cpi))
    return 0


def _run_looppoint(args: argparse.Namespace, capture: bool):
    """(result, name): ``run_looppoint`` on the selection flags."""
    from repro.looppoint import run_looppoint

    image, name = _looppoint_image(args)
    return run_looppoint(image, name, slice_markers=args.slice_markers,
                         warmup_slices=args.warmup_slices,
                         max_k=args.max_k, seed=args.seed,
                         max_alternates=args.alternates,
                         cluster_seed=args.cluster_seed,
                         capture=capture), name


def _cmd_looppoint_select(args: argparse.Namespace) -> int:
    from repro.looppoint import REGION_SELECTOR

    result, name = _run_looppoint(args, capture=False)
    regions, primaries = result.regions, result.primary_regions
    print("%s: %d clusters -> %d regions (+%d alternates)"
          % (name, len(result.selection.clusters), len(primaries),
             len(regions) - len(primaries)))
    for region in primaries:
        start, end = result.marker_window(region.name)
        window = "?"
        if start and end:
            window = "+0x%x:%d .. +0x%x:%d" % (start.offset, start.count,
                                               end.offset, end.count)
        print("  %-14s weight %.3f  icount [%d, %d)  markers %s"
              % (region.name, region.weight, region.start,
                 region.start + region.length, window))
    if args.json:
        def _region_json(r):
            window = result.marker_windows[r.name]
            return {"name": r.name, "start": r.start, "length": r.length,
                    "warmup": r.warmup, "weight": r.weight,
                    "skip": window["skip"], "measure": window["measure"],
                    "markers": {side: window[side]
                                for side in ("start", "end")}}

        payload = {
            "app": name,
            "selector": REGION_SELECTOR,
            "regions": [_region_json(r) for r in regions],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0


def _cmd_looppoint_validate(args: argparse.Namespace) -> int:
    from repro.looppoint import validate_looppoint

    result, name = _run_looppoint(args, capture=True)
    validation = validate_looppoint(result, seed=args.validate_seed,
                                    trials=args.trials)
    print("%s: %d regions, %d ELFies" % (name, len(result.primary_regions),
                                         len(result.elfies)))
    print("whole-program CPI %.4f, predicted %.4f, |error| %.2f%%, "
          "coverage %.0f%%"
          % (validation.whole_program_cpi, validation.predicted_cpi,
             validation.abs_error_percent, 100 * validation.covered_weight))
    return 0 if validation.abs_error_percent <= args.max_error else 1


def _campaign_validations(args: argparse.Namespace) -> list:
    from repro.simpoint import elfie_validation, fidelity_validation

    if getattr(args, "selector", "bbv-simpoint") == "looppoint":
        from repro.looppoint import looppoint_validation

        validations = [looppoint_validation("elfie", seed=args.validate_seed,
                                            trials=args.trials)]
    else:
        validations = [elfie_validation("elfie", seed=args.validate_seed,
                                        trials=args.trials)]
    if args.verify_fidelity:
        validations.append(fidelity_validation(
            "fidelity", seed=args.validate_seed,
            max_regions=args.fidelity_regions))
    return validations


def _cmd_farm_run(args: argparse.Namespace) -> int:
    import signal

    from repro.farm import FarmRunner, open_store

    if args.shards:
        from repro.service import ShardedStore
        store = ShardedStore(args.store, shards=args.shards)
    else:
        store = open_store(args.store)
    images = _campaign_images(args)
    validations = _campaign_validations(args)
    if not args.preemptible:
        return _farm_campaign(args, store, images, validations, None)
    from repro.snapshot import preempt

    preempt.reset()
    runner = FarmRunner(store, jobs=args.jobs,
                        manifest_path=args.manifest, preemptible=True)

    def _drain(signum, frame):
        sys.stderr.write("SIGTERM: draining — checkpointing the "
                         "in-flight job\n")
        preempt.request()

    # The handler is process-wide, and pool workers forked later in
    # this process would inherit it: restore the previous one after.
    previous = signal.signal(signal.SIGTERM, _drain)
    try:
        return _farm_campaign(args, store, images, validations, runner)
    finally:
        signal.signal(signal.SIGTERM,
                      signal.SIG_DFL if previous is None else previous)


def _farm_campaign(args: argparse.Namespace, store, images: dict,
                   validations: list, runner) -> int:
    """Run ``farm run``'s campaign and report it (exit code)."""
    common = dict(
        jobs=args.jobs,
        manifest_path=args.manifest,
        runner=runner,
        max_k=args.max_k,
        max_alternates=args.alternates,
        seed=args.seed,
        validations=validations,
        preemptible=args.preemptible,
    )
    if args.selector == "looppoint":
        from repro.looppoint import run_looppoint_campaign

        outcomes = run_looppoint_campaign(
            images, store, slice_markers=args.slice_markers,
            warmup_slices=args.warmup_slices, **common)
    else:
        from repro.simpoint import run_pinpoints_campaign

        outcomes = run_pinpoints_campaign(
            images, store, slice_size=args.slice_size,
            warmup=args.warmup, **common)
    code = _report_campaign(outcomes, args.manifest)
    if runner is not None:
        interrupted = sorted(
            name for name, state in runner.report.states.items()
            if state in ("preempted", "deferred"))
        if interrupted:
            sys.stderr.write(
                "campaign preempted (%d jobs deferred); re-run the same "
                "command to resume from the store\n" % len(interrupted))
            return 75  # EX_TEMPFAIL: partial, resumable
    return code


def _report_campaign(outcomes: dict, manifest_path: Optional[str]) -> int:
    from repro.farm import read_manifest, summarize_manifest

    failed_fidelity = False
    for name, outcome in outcomes.items():
        validation = outcome.validations.get("elfie")
        if validation is None:
            print("%s: %d regions, %d ELFies (validation deferred)"
                  % (name, len(outcome.result.primary_regions),
                     len(outcome.result.elfies)))
            continue
        print("%s: %d regions, %d ELFies, |error| %.2f%%, coverage %.0f%%"
              % (name, len(outcome.result.primary_regions),
                 len(outcome.result.elfies),
                 validation.abs_error_percent,
                 100 * validation.covered_weight))
        fidelity = outcome.validations.get("fidelity")
        if fidelity is not None:
            print("%s: fidelity %s (%d regions verified%s)"
                  % (name, "OK" if fidelity["ok"] else "FAIL",
                     fidelity["checked"],
                     ", %d skipped" % fidelity["skipped"]
                     if fidelity["skipped"] else ""))
            for region, report in sorted(fidelity["regions"].items()):
                if not report["ok"] and report["divergence"]:
                    print("  %s diverges at epoch %s, instruction %s"
                          % (region, report["divergence"]["epoch"],
                             report["divergence"]["icount"]))
            failed_fidelity = failed_fidelity or not fidelity["ok"]
    if manifest_path:
        summary = summarize_manifest(read_manifest(manifest_path))
        print("jobs: %d  cache hits: %d  misses: %d  retries: %d  "
              "workers: %d" % (summary["jobs"], summary["cache_hits"],
                               summary["cache_misses"], summary["retries"],
                               len(summary["workers"])))
        lookups = summary["cache_hits"] + summary["cache_misses"]
        hit_rate = 100.0 * summary["cache_hits"] / lookups if lookups else 0.0
        stage_walls = "  ".join(
            "%s %.2fs" % (stage, info["wall_s"])
            for stage, info in summary["stages"].items() if info["wall_s"])
        print("cache-hit rate: %.1f%%  stage wall: %s"
              % (hit_rate, stage_walls or "all cached"))
        if summary["executed_icount"]:
            stage_mips = "  ".join(
                "%s %.2f" % (stage, info["mips"])
                for stage, info in summary["stages"].items()
                if info["mips"])
            print("interpreter MIPS: %.2f aggregate (%.1fM instrs / %.2fs)"
                  "  by stage: %s"
                  % (summary["mips"], summary["executed_icount"] / 1e6,
                     summary["interp_wall_s"], stage_mips or "n/a"))
    return 1 if failed_fidelity else 0


def _cmd_farm_stats(args: argparse.Namespace) -> int:
    from repro.farm import open_store

    stats = open_store(args.store).stats()
    print(json.dumps(stats.to_json(), indent=2))
    if args.json:
        return 0  # stdout stays pure JSON (pipe to jq)
    # the human summary goes to stderr, per-shard breakdown included
    sys.stderr.write(
        "block pool: %d raw -> %d compressed bytes (%.2fx), dedup %.2fx\n"
        % (stats.unique_bytes, stats.compressed_bytes,
           stats.compression_ratio, stats.dedup_ratio))
    for shard, info in sorted(getattr(stats, "shards", {}).items()):
        sys.stderr.write(
            "  %s: %d objects, %d blocks, %d bytes, hit rate %.1f%%, "
            "%d repairs\n"
            % (shard, info["objects"], info["blocks"], info["stored_bytes"],
               100.0 * info["hit_rate"], info["repairs"]))
    return 0


def _cmd_farm_gc(args: argparse.Namespace) -> int:
    from repro.farm import open_store

    result = open_store(args.store).gc(
        dry_run=args.dry_run,
        prune_snapshots=args.prune_snapshots,
        snapshot_roots=args.snapshot_root or ())
    verb = "would remove" if args.dry_run else "removed"
    print("%s %d blocks (%d bytes), %d live"
          % (verb, result.removed_blocks, result.freed_bytes,
             result.live_blocks))
    if args.prune_snapshots:
        print("%s %d snapshot checkpoints (%d roots kept)"
              % (verb, result.removed_snapshots,
                 len(args.snapshot_root or ())))
    return 0


def _cmd_farm_rebalance(args: argparse.Namespace) -> int:
    from repro.service import ShardedStore

    store = ShardedStore(args.store)
    moved = store.rebalance(shards=args.shards, dry_run=args.dry_run)
    verb = "would move" if args.dry_run else "moved"
    print("%s %d blocks (%d bytes), %d records across %d shards"
          % (verb, moved.moved_blocks, moved.moved_bytes,
             moved.moved_records, len(store.shards)))
    return 0


def _cmd_farm_scrub(args: argparse.Namespace) -> int:
    from repro.service import ShardedStore

    report = ShardedStore(args.store).scrub()
    print("scrubbed %d objects (%d blocks): %d block repairs, "
          "%d record repairs, %d lost"
          % (report.objects, report.blocks_checked, report.repaired_blocks,
             report.repaired_records, len(report.lost_keys)))
    for key in report.lost_keys:
        print("  LOST %s" % key)
    return 1 if report.lost_keys else 0


def _cmd_service_start(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import serve

    try:
        asyncio.run(serve(args.store, shards=args.shards, host=args.host,
                          port=args.port, lease_timeout=args.lease_timeout,
                          max_queued=args.max_queued, retries=args.retries))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_service_worker(args: argparse.Namespace) -> int:
    from repro.service import worker_main

    done = worker_main(args.host, args.port, name=args.name,
                       poll_s=args.poll, idle_exit_s=args.idle_exit,
                       drain_timeout_s=args.drain_timeout)
    sys.stderr.write("worker exiting after %d jobs\n" % done)
    return 0


def _cmd_service_submit(args: argparse.Namespace) -> int:
    from repro.service import connect, run_service_campaign

    images = _campaign_images(args)
    validations = _campaign_validations(args)
    with connect(args.host, args.port, client_id=args.client) as client:
        outcomes = run_service_campaign(
            images, client,
            manifest_path=args.manifest,
            priority=args.priority,
            slice_size=args.slice_size,
            warmup=args.warmup,
            max_k=args.max_k,
            max_alternates=args.alternates,
            seed=args.seed,
            validations=validations,
        )
    return _report_campaign(outcomes, args.manifest)


def _cmd_service_status(args: argparse.Namespace) -> int:
    from repro.service import connect

    with connect(args.host, args.port) as client:
        stats = client.stats(store=args.store)
    stats.pop("ok", None)
    stats.pop("id", None)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    from repro.farm import open_store
    from repro.machine.loader import load_elf
    from repro.machine.machine import Machine
    from repro.snapshot import capture, snapshot_info

    with open(args.binary, "rb") as handle:
        image = handle.read()
    machine = Machine(seed=args.seed)
    load_elf(machine, image, argv=args.argv or None)
    status = machine.run(max_instructions=args.at)
    if status.kind != "stopped":
        sys.stderr.write("workload finished (%s %s) before %d instructions; "
                         "nothing to suspend\n"
                         % (status.kind, status.detail, args.at))
        return 1
    snapshot = capture(machine, extra={"kind": "cli",
                                       "binary": args.binary,
                                       "seed": args.seed})
    store = open_store(args.store)
    store.put(args.key, snapshot, kind="snapshot")
    info = snapshot_info(snapshot)
    print("saved %s at %d instructions (%d pages, %d bytes, digest %s)"
          % (args.key, info["executed_total"], info["pages"],
             info["memory_bytes"], info["digest"][:16]))
    return 0


def _cmd_snapshot_resume(args: argparse.Namespace) -> int:
    from repro.farm import open_store
    from repro.snapshot import restore, snapshot_info

    store = open_store(args.store)
    if not store.contains(args.key):
        sys.stderr.write("no snapshot %r in %s\n" % (args.key, args.store))
        return 1
    snapshot = store.get(args.key)
    info = snapshot_info(snapshot)
    machine = restore(snapshot)
    before = machine.executed_total
    if args.steps:
        status = machine.run(max_instructions=before + args.steps)
    else:
        status = machine.run()
    print("resumed %s from %d instructions (digest %s)"
          % (args.key, before, info["digest"][:16]))
    print("status: %s %s" % (status.kind, status.detail))
    print("instructions: %d (+%d since resume)"
          % (machine.executed_total, machine.executed_total - before))
    if status.kind == "exit":
        return status.code
    return 0 if status.kind == "stopped" else 128


def _cmd_snapshot_info(args: argparse.Namespace) -> int:
    from repro.farm import open_store
    from repro.snapshot import snapshot_info

    store = open_store(args.store)
    if not store.contains(args.key):
        sys.stderr.write("no snapshot %r in %s\n" % (args.key, args.store))
        return 1
    print(json.dumps(snapshot_info(store.get(args.key)), indent=2,
                     sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.core.cli",
        description="pinball2elf tool-chain command line",
    )
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the run "
                             "(load in chrome://tracing or Perfetto)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write a JSON metrics snapshot of the run")
    sub = parser.add_subparsers(dest="command", required=True)

    p2e = sub.add_parser("pinball2elf", help="convert a pinball to an ELFie")
    p2e.add_argument("--pinball", required=True, help="DIR/NAME prefix")
    p2e.add_argument("--out", required=True, help="output file")
    p2e.add_argument("--object", action="store_true",
                     help="emit a relocatable object + linker script")
    p2e.add_argument("--roi-start", metavar="[TYPE:]TAG",
                     help="insert a ROI marker (sniper|ssc|simics)")
    p2e.add_argument("--perf-exit", action="store_true",
                     help="arm graceful-exit hardware counters (-t/-p)")
    p2e.add_argument("--monitor", action="store_true",
                     help="create a monitor thread (-e elfie_on_exit)")
    p2e.add_argument("--sysstate", action="store_true",
                     help="embed FD_n preopens and brk restore")
    p2e.add_argument("--dump-contexts", action="store_true",
                     help="also write a .ctx.s context listing")
    p2e.add_argument("--no-stack-fix", action="store_true",
                     help="ablation: allocatable stack sections (Fig. 4)")
    p2e.set_defaults(func=_cmd_pinball2elf)

    sysstate = sub.add_parser("sysstate",
                              help="pinball_sysstate analysis report")
    sysstate.add_argument("--pinball", required=True)
    sysstate.set_defaults(func=_cmd_sysstate)

    rep = sub.add_parser("replay", help="replay a pinball")
    rep.add_argument("--pinball", required=True)
    rep.add_argument("--injection", type=int, default=1,
                     help="0 mimics an ELFie run (-replay:injection 0)")
    rep.set_defaults(func=_cmd_replay)

    logger = sub.add_parser("logger", help="capture a region as a pinball")
    logger.add_argument("--binary", required=True, help="PX ELF executable")
    logger.add_argument("--start", type=int, required=True)
    logger.add_argument("--length", type=int, required=True)
    logger.add_argument("--warmup", type=int, default=0)
    logger.add_argument("--name", default="pinball")
    logger.add_argument("--out", default=".")
    logger.add_argument("--fat", action="store_true", default=True)
    logger.add_argument("--no-fat", dest="fat", action="store_false")
    logger.set_defaults(func=_cmd_logger)

    runner = sub.add_parser("run", help="run an ELFie natively")
    runner.add_argument("elfie")
    runner.add_argument("--seed", type=int, default=0)
    runner.set_defaults(func=_cmd_run)

    verify = sub.add_parser(
        "verify", help="differential replay-fidelity verification")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)

    verify_run = verify_sub.add_parser(
        "run", help="epoch-digest native vs replay; bisect divergence")
    verify_run.add_argument("--pinball", required=True, help="DIR/NAME prefix")
    verify_run.add_argument("--binary", required=True,
                            help="the original PX ELF the pinball came from")
    verify_run.add_argument("--seed", type=int, default=0)
    verify_run.add_argument("--epochs", type=int, default=16)
    verify_run.add_argument("--no-bisect", action="store_true",
                            help="stop at the first bad epoch without "
                                 "localizing the divergent instruction")
    verify_run.add_argument("--json", metavar="FILE", default=None,
                            help="write the fidelity report as JSON")
    verify_run.add_argument("--dispatch", default=None,
                            choices=DISPATCH_TIERS,
                            help="pin the interpreter dispatch tier for "
                                 "every machine in the verification")
    verify_run.set_defaults(func=_cmd_verify_run)

    verify_fuzz = verify_sub.add_parser(
        "fuzz", help="randomized record->replay->elfie round-trips")
    verify_fuzz.add_argument("--time-budget", type=float, default=30.0,
                             metavar="SECONDS")
    verify_fuzz.add_argument("--start-seed", type=int, default=0)
    verify_fuzz.add_argument("--max-cases", type=int, default=None)
    verify_fuzz.add_argument("--seed", type=int, default=0,
                             help="machine seed for the round-trips")
    verify_fuzz.add_argument("--no-minimize", action="store_true")
    verify_fuzz.add_argument("--save-failures", action="store_true",
                             help="pin minimized failing seeds to the corpus")
    verify_fuzz.add_argument("--corpus", default=None,
                             help="corpus directory (default tests/corpus)")
    verify_fuzz.add_argument("--checkpoint", metavar="FILE", default=None,
                             help="persist fuzz progress here; a preempted "
                                  "run resumes from the last finished case")
    verify_fuzz.add_argument("--dispatch", default=None,
                             choices=DISPATCH_TIERS,
                             help="pin the dispatch tier for every machine "
                                  "and cross-check it against the slow "
                                  "loop per case")
    verify_fuzz.set_defaults(func=_cmd_verify_fuzz)

    verify_lockstep = verify_sub.add_parser(
        "lockstep", help="straight vs suspend/resume digest lockstep over "
                         "the corpus + MT fuzzer cases")
    verify_lockstep.add_argument("--corpus", default=None,
                                 help="corpus directory "
                                      "(default tests/corpus)")
    verify_lockstep.add_argument("--seed", type=int, default=0)
    verify_lockstep.add_argument("--hops", type=int, default=2,
                                 help="suspend/resume round-trips per "
                                      "workload")
    verify_lockstep.add_argument("--hop-seed", type=int, default=0,
                                 help="seed for the pseudo-random suspend "
                                      "points")
    verify_lockstep.add_argument("--mt-cases", type=int, default=2,
                                 help="generated multithreaded workloads to "
                                      "include")
    verify_lockstep.add_argument("--epochs", type=int, default=16)
    verify_lockstep.set_defaults(func=_cmd_verify_lockstep)

    verify_corpus = verify_sub.add_parser(
        "corpus", help="deterministically replay the regression corpus")
    verify_corpus.add_argument("--corpus", default=None,
                               help="corpus directory (default tests/corpus)")
    verify_corpus.add_argument("--seed", type=int, default=0)
    verify_corpus.set_defaults(func=_cmd_verify_corpus)

    verify_aslr = verify_sub.add_parser(
        "aslr", help="base-invariance gate: select a region at the link "
                     "base, capture and replay it at a slid base, and "
                     "require identical architectural work")
    verify_aslr.add_argument("--cases", type=int, default=4,
                             help="generated workloads to push through the "
                                  "two-base check")
    verify_aslr.add_argument("--start-seed", type=int, default=0)
    verify_aslr.add_argument("--aslr-seed", type=int, default=7,
                             help="slide seed for the slid capture")
    verify_aslr.add_argument("--seed", type=int, default=0,
                             help="machine seed for the round-trips")
    verify_aslr.set_defaults(func=_cmd_verify_aslr)

    looppoint = sub.add_parser(
        "looppoint",
        help="loop-marker region selection for multi-threaded workloads")
    looppoint_sub = looppoint.add_subparsers(dest="looppoint_command",
                                             required=True)

    def _looppoint_common(parser: argparse.ArgumentParser) -> None:
        target = parser.add_mutually_exclusive_group(required=True)
        target.add_argument("--binary", help="PX ELF executable to analyse")
        target.add_argument("--app", help="suite app name, e.g. mt.prodcons")
        parser.add_argument("--input", default="train",
                            choices=("test", "train", "ref"))
        parser.add_argument("--slice-markers", type=int, default=64,
                            help="work-marker crossings per slice")
        parser.add_argument("--seed", type=int, default=0)

    def _selection_flags(parser: argparse.ArgumentParser) -> None:
        """The clustering flags ``looppoint select`` and ``validate``
        share."""
        parser.add_argument("--max-k", type=int, default=12)
        parser.add_argument("--cluster-seed", type=int, default=42)
        parser.add_argument("--warmup-slices", type=int, default=1,
                            help="warmup depth in whole marker slices")
        parser.add_argument("--alternates", type=int, default=2)

    def _campaign_flags(parser: argparse.ArgumentParser) -> None:
        """The campaign flags ``farm run`` and ``service submit`` share."""
        parser.add_argument("--app", action="append", required=True,
                            help="suite app name (repeatable), e.g. "
                                 "502.gcc_r")
        parser.add_argument("--input", default="train",
                            choices=("test", "train", "ref"))
        parser.add_argument("--slice-size", type=int, default=20_000,
                            help="instructions per slice (bbv-simpoint)")
        parser.add_argument("--warmup", type=int, default=80_000,
                            help="warmup icount before each region "
                                 "(bbv-simpoint)")
        parser.add_argument("--max-k", type=int, default=12)
        parser.add_argument("--alternates", type=int, default=2)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--validate-seed", type=int, default=0)
        parser.add_argument("--trials", type=int, default=1)
        parser.add_argument("--manifest", default=None,
                            help="write a JSON-lines run manifest here")
        parser.add_argument("--verify-fidelity", action="store_true",
                            help="also run the differential replay-fidelity "
                                 "verifier over each captured region")
        parser.add_argument("--fidelity-regions", type=int, default=None,
                            metavar="N",
                            help="verify at most N regions per app")

    lp_profile = looppoint_sub.add_parser(
        "profile", help="harvest loop markers and profile marker slices")
    _looppoint_common(lp_profile)
    lp_profile.add_argument("--markers-out", default=None,
                            help="write the module+offset marker map JSON")
    lp_profile.set_defaults(func=_cmd_looppoint_profile)

    lp_select = looppoint_sub.add_parser(
        "select", help="cluster marker slices and pick representatives")
    _looppoint_common(lp_select)
    _selection_flags(lp_select)
    lp_select.add_argument("--json", default=None,
                           help="write the region list (with marker "
                                "windows) as JSON")
    lp_select.set_defaults(func=_cmd_looppoint_select)

    lp_validate = looppoint_sub.add_parser(
        "validate", help="capture marker-delimited ELFies and check the "
                         "predicted-vs-true CPI error")
    _looppoint_common(lp_validate)
    _selection_flags(lp_validate)
    lp_validate.add_argument("--validate-seed", type=int, default=0)
    lp_validate.add_argument("--trials", type=int, default=1)
    lp_validate.add_argument("--max-error", type=float, default=100.0,
                             help="exit nonzero if |error%%| exceeds this")
    lp_validate.set_defaults(func=_cmd_looppoint_validate)

    farm = sub.add_parser(
        "farm", help="checkpoint farm: cached, parallel PinPoints campaigns")
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)

    farm_run = farm_sub.add_parser(
        "run", help="run PinPoints campaigns through the artifact store")
    farm_run.add_argument("--store", default=".farm",
                          help="artifact store directory (default .farm)")
    _campaign_flags(farm_run)
    farm_run.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: cpu count)")
    farm_run.add_argument("--selector", default="bbv-simpoint",
                          choices=("bbv-simpoint", "looppoint"),
                          help="region-selection strategy: BBV SimPoint "
                               "slices or loop-marker LoopPoint regions")
    farm_run.add_argument("--slice-markers", type=int, default=64,
                          help="work-marker crossings per slice (looppoint)")
    farm_run.add_argument("--warmup-slices", type=int, default=1,
                          help="warmup depth in whole marker slices "
                               "(looppoint)")
    farm_run.add_argument("--shards", type=int, default=0, metavar="N",
                          help="create/open the store sharded across N "
                               "roots (default: plain single-root store)")
    farm_run.add_argument("--preemptible", action="store_true",
                          help="checkpoint running jobs on SIGTERM and exit "
                               "75; rerun the same command to resume")
    farm_run.set_defaults(func=_cmd_farm_run)

    farm_stats = farm_sub.add_parser("stats",
                                     help="artifact store statistics")
    farm_stats.add_argument("--store", default=".farm")
    farm_stats.add_argument("--json", action="store_true",
                            help="pure JSON output (no stderr summary)")
    farm_stats.set_defaults(func=_cmd_farm_stats)

    farm_gc = farm_sub.add_parser(
        "gc", help="sweep unreferenced blocks from the store")
    farm_gc.add_argument("--store", default=".farm")
    farm_gc.add_argument("--dry-run", action="store_true",
                         help="report what would be swept without deleting")
    farm_gc.add_argument("--prune-snapshots", action="store_true",
                         help="also drop checkpoint artifacts not named "
                              "by --snapshot-root")
    farm_gc.add_argument("--snapshot-root", action="append", default=None,
                         metavar="KEY",
                         help="snapshot key to keep (repeatable); resumable "
                              "jobs' checkpoints are roots")
    farm_gc.set_defaults(func=_cmd_farm_gc)

    farm_rebalance = farm_sub.add_parser(
        "rebalance", help="re-ring a sharded store (grow/shrink/heal)")
    farm_rebalance.add_argument("--store", default=".farm")
    farm_rebalance.add_argument("--shards", type=int, default=None,
                                metavar="N", help="new shard count "
                                "(default: canonicalize the current ring)")
    farm_rebalance.add_argument("--dry-run", action="store_true",
                                help="report what would move")
    farm_rebalance.set_defaults(func=_cmd_farm_rebalance)

    farm_scrub = farm_sub.add_parser(
        "scrub", help="verify + read-repair every artifact across shards")
    farm_scrub.add_argument("--store", default=".farm")
    farm_scrub.set_defaults(func=_cmd_farm_scrub)

    service = sub.add_parser(
        "service", help="networked checkpoint farm: server, workers, "
                        "campaign submission")
    service_sub = service.add_subparsers(dest="service_command",
                                         required=True)

    service_start = service_sub.add_parser(
        "start", help="run the checkpoint service in the foreground")
    service_start.add_argument("--store", default=".farm")
    service_start.add_argument("--shards", type=int, default=0, metavar="N",
                               help="shard the store across N roots")
    service_start.add_argument("--host", default="127.0.0.1")
    service_start.add_argument("--port", type=int, default=7461)
    service_start.add_argument("--lease-timeout", type=float, default=30.0,
                               help="seconds before a silent worker's "
                                    "lease is re-queued")
    service_start.add_argument("--max-queued", type=int, default=1024)
    service_start.add_argument("--retries", type=int, default=2)
    service_start.set_defaults(func=_cmd_service_start)

    service_worker = service_sub.add_parser(
        "worker", help="run one pull-based service worker")
    service_worker.add_argument("--host", default="127.0.0.1")
    service_worker.add_argument("--port", type=int, default=7461)
    service_worker.add_argument("--name", default="")
    service_worker.add_argument("--poll", type=float, default=2.0,
                                help="lease long-poll seconds")
    service_worker.add_argument("--idle-exit", type=float, default=0.0,
                                help="exit after this many idle seconds "
                                     "(0 = run forever)")
    service_worker.add_argument("--drain-timeout", type=float, default=30.0,
                                help="seconds after SIGTERM before the "
                                     "in-flight lease is abandoned and the "
                                     "worker force-exits (0 = wait forever)")
    service_worker.set_defaults(func=_cmd_service_worker)

    service_submit = service_sub.add_parser(
        "submit", help="run a PinPoints campaign through the service")
    service_submit.add_argument("--host", default="127.0.0.1")
    service_submit.add_argument("--port", type=int, default=7461)
    service_submit.add_argument("--client", default="",
                                help="client id for fair-share accounting")
    service_submit.add_argument("--priority", type=int, default=0)
    _campaign_flags(service_submit)
    service_submit.set_defaults(func=_cmd_service_submit)

    service_status = service_sub.add_parser(
        "status", help="print scheduler (and optionally store) stats")
    service_status.add_argument("--host", default="127.0.0.1")
    service_status.add_argument("--port", type=int, default=7461)
    service_status.add_argument("--store", action="store_true",
                                help="include per-shard store statistics")
    service_status.set_defaults(func=_cmd_service_status)

    snapshot = sub.add_parser(
        "snapshot", help="suspend, resume, and inspect machine checkpoints")
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command",
                                           required=True)

    snapshot_save = snapshot_sub.add_parser(
        "save", help="run a PX ELF to an instruction count and checkpoint")
    snapshot_save.add_argument("--binary", required=True,
                               help="PX ELF executable")
    snapshot_save.add_argument("--at", type=int, required=True,
                               help="suspend after this many instructions")
    snapshot_save.add_argument("--key", required=True,
                               help="store key for the checkpoint")
    snapshot_save.add_argument("--store", default=".farm")
    snapshot_save.add_argument("--seed", type=int, default=0)
    snapshot_save.add_argument("--argv", action="append", default=None,
                               help="guest argv entry (repeatable)")
    snapshot_save.set_defaults(func=_cmd_snapshot_save)

    snapshot_resume = snapshot_sub.add_parser(
        "resume", help="restore a checkpoint and continue running")
    snapshot_resume.add_argument("--key", required=True)
    snapshot_resume.add_argument("--store", default=".farm")
    snapshot_resume.add_argument("--steps", type=int, default=0,
                                 help="run at most this many more "
                                      "instructions (0 = to completion)")
    snapshot_resume.set_defaults(func=_cmd_snapshot_resume)

    snapshot_info = snapshot_sub.add_parser(
        "info", help="print a checkpoint's JSON summary")
    snapshot_info.add_argument("--key", required=True)
    snapshot_info.add_argument("--store", default=".farm")
    snapshot_info.set_defaults(func=_cmd_snapshot_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics):
        return args.func(args)
    obs = hooks.enable()
    try:
        return args.func(args)
    finally:
        hooks.disable()
        if args.trace:
            obs.tracer.export(args.trace)
            sys.stderr.write("wrote trace %s\n" % args.trace)
        if args.metrics:
            obs.metrics.export(args.metrics)
            sys.stderr.write("wrote metrics %s\n" % args.metrics)


if __name__ == "__main__":
    sys.exit(main())
