"""Command-line surface.

Commands: stable-sets, toric-ideal, groebner, hilbert, gorenstein, qgb,
koszul, classify, enumerate, analyze (full pipeline), paper-suite (the
reproduction suite).  Exit codes: 0 success, 1 input error, 2 explicit
resource-cap failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .betti import DEFAULT_BETTI_BOUNDS, KoszulConfig, koszul_verdict
from .cache import ResultCache, cache_key, default_cache_dir, source_digest
from .errors import InputError, ResourceCapError, check_cap
from .graphs import classify, enumerate_graphs, parse_graph, stable_sets
from .groebner import DEFAULT_SPAIR_CAP, reduced_gb
from .hilbert import gorenstein_certificate, hilbert_series
from .polyring import TermOrder
from .qgb import DEFAULT_MARKING_CAP, decide_quadratic_gb
from .reports import SCHEMA, analyze, render_text
from .toric import ToricIdeal, monomial_map, toric_ideal


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszul-forge",
        description="Toric rings of stable set polytopes: exact certificates "
                    "for quadraticity, Gorensteinness and Koszulness.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *groups):
        """Give a subcommand --format, --out and the flag groups it honours."""
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", default=None, help="write output to a file")
        if "ideal" in groups:
            p.add_argument("--spair-cap", type=int, default=DEFAULT_SPAIR_CAP)
        if "order" in groups:
            p.add_argument("--order", choices=["grevlex", "lex"],
                           default="grevlex")
            p.add_argument("--var-order", default=None,
                           help="comma-separated labels, least variable first")
        if "cache" in groups:
            p.add_argument("--cache-dir", default=default_cache_dir())
            p.add_argument("--no-cache", action="store_true")
        if "marking" in groups:
            p.add_argument("--marking-cap", type=int,
                           default=DEFAULT_MARKING_CAP)
        if "betti" in groups:
            p.add_argument("--char", type=int, default=0,
                           help="coefficient characteristic for Betti "
                                "linear algebra")
            p.add_argument("--imax", type=int, default=DEFAULT_BETTI_BOUNDS[0])
            p.add_argument("--jmax", type=int, default=DEFAULT_BETTI_BOUNDS[1])

    for name, groups in (("stable-sets", ()),
                         ("classify", ()),
                         ("toric-ideal", ("ideal",)),
                         ("groebner", ("ideal", "order", "cache")),
                         ("hilbert", ("ideal",)),
                         ("gorenstein", ("ideal",)),
                         ("qgb", ("ideal", "cache", "marking")),
                         ("koszul", ("ideal", "marking", "betti")),
                         ("analyze", ("ideal", "marking", "betti"))):
        p = sub.add_parser(name)
        p.add_argument("graph", help="graph spec: DSL term, JSON, or edge list")
        flags(p, *groups)
    enum = sub.add_parser("enumerate")
    enum.add_argument("n", type=int)
    flags(enum)
    suite = sub.add_parser("paper-suite")
    suite.add_argument("--cases", default=None,
                       help="comma-separated case ids (default: all)")
    flags(suite)
    return parser


def _split_labels(text: str) -> list[str]:
    """Split a comma-separated label list; commas inside braces belong to
    the label (e.g. y_{1,2})."""
    out = []
    depth = 0
    current = []
    for ch in text:
        if ch == "," and depth == 0:
            out.append("".join(current).strip())
            current = []
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        current.append(ch)
    if current:
        out.append("".join(current).strip())
    return [s for s in out if s]


def _resolve_order(args, labels) -> TermOrder:
    ranking = None
    if args.var_order is not None:
        wanted = _split_labels(args.var_order)
        if sorted(wanted) != sorted(labels):
            raise InputError("--var-order must list every variable label once")
        pos = {lab: i for i, lab in enumerate(labels)}
        ranking = tuple(pos[lab] for lab in wanted)
    build = {"grevlex": TermOrder.grevlex, "lex": TermOrder.lex}[args.order]
    return build(len(labels), ranking)


def _emit(args, payload: dict | list, text: str | None = None) -> None:
    if args.format == "text" and text is not None:
        body = text
    else:
        # sorted keys keep emitted JSON byte-stable across cache round-trips
        body = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: "
                             f"{exc.strerror}") from None
        return
    try:
        print(body)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``); what is still buffered goes
        # to the null device, so that the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cache(args) -> ResultCache:
    return ResultCache(None if args.no_cache else args.cache_dir)


def _cached_or(args, request: dict, compute):
    """The payload of a request, read from the cache or computed and
    stored.  The request names the graph, not its toric ideal, so that a
    hit skips the elimination: ``compute`` builds the ideal on a miss only.
    """
    cache = _cache(args)
    if not cache.enabled:
        return compute()
    # the spair cap is in the key, so that a capped request still fails on a
    # miss; the digest of the sources is too, so that results do not outlive
    # the code that computed them
    key = cache_key({**request, "spair_cap": args.spair_cap,
                     "source": source_digest()})
    value = cache.get_value(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value


def _koszul_config(args) -> KoszulConfig:
    """The bounds and caps that ``koszul`` and ``analyze`` share."""
    return KoszulConfig(i_max=args.imax, j_max=args.jmax,
                        characteristic=args.char, spair_cap=args.spair_cap,
                        marking_cap=args.marking_cap)


def _toric_ideal(args) -> ToricIdeal:
    """The toric ideal of the graph named on the command line."""
    return toric_ideal(monomial_map(parse_graph(args.graph)),
                       spair_cap=args.spair_cap)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    # a negative cap is malformed input, refused before any work
    for flag in ("spair_cap", "marking_cap"):
        if flag in vars(args):
            check_cap("--" + flag.replace("_", "-"), vars(args)[flag])

    if cmd == "stable-sets":
        g = parse_graph(args.graph)
        fam = stable_sets(g)
        payload = {"count": len(fam.sets), "alpha": fam.alpha,
                   "sets": [list(s) for s in fam.sets]}
        _emit(args, payload,
              text=f"{len(fam.sets)} stable sets, alpha={fam.alpha}")
        return 0

    if cmd == "classify":
        g = parse_graph(args.graph)
        payload = classify(g).to_json()
        _emit(args, payload,
              text="\n".join(f"{k}: {v}" for k, v in payload.items()))
        return 0

    if cmd == "enumerate":
        graphs_n = enumerate_graphs(args.n)
        payload = [g.to_json() for g in graphs_n]
        _emit(args, payload, text=f"{len(graphs_n)} isomorphism classes")
        return 0

    if cmd == "toric-ideal":
        ideal = _toric_ideal(args)
        _emit(args, ideal.to_json(),
              text=f"{len(ideal.presentation.generators)} generators "
                   f"({ideal.provenance})")
        return 0

    if cmd == "groebner":
        g = parse_graph(args.graph)
        mp = monomial_map(g)
        # a bad --var-order is refused before the cache is read
        order = _resolve_order(args, mp.source_labels)
        payload = _cached_or(
            args, {"op": "groebner", "graph": g.to_json(),
                   "order": order.descriptor()},
            lambda: reduced_gb(
                toric_ideal(mp, spair_cap=args.spair_cap).presentation,
                order, spair_cap=args.spair_cap).to_json())
        _emit(args, payload,
              text=f"{len(payload['elements'])} basis elements, "
                   f"max degree {payload['flags']['max_degree']}")
        return 0

    if cmd == "hilbert":
        ideal = _toric_ideal(args)
        hd = hilbert_series(ideal.presentation, spair_cap=args.spair_cap)
        _emit(args, hd.to_json(), text=hd.series_str())
        return 0

    if cmd == "gorenstein":
        ideal = _toric_ideal(args)
        cert = gorenstein_certificate(ideal, spair_cap=args.spair_cap)
        _emit(args, cert.to_json(), text=f"{cert.verdict}: {cert.reason}")
        return 0

    if cmd == "qgb":
        g = parse_graph(args.graph)
        decision = _cached_or(
            args, {"op": "qgb", "graph": g.to_json(),
                   "marking_cap": args.marking_cap},
            lambda: decide_quadratic_gb(
                toric_ideal(monomial_map(g), spair_cap=args.spair_cap),
                marking_cap=args.marking_cap,
                spair_cap=args.spair_cap).to_json())
        _emit(args, decision,
              text=f"exists={decision['exists']} markings={decision['markings']}")
        return 0

    if cmd == "koszul":
        verdict = koszul_verdict(_toric_ideal(args), _koszul_config(args))
        _emit(args, verdict.to_json(),
              text=f"{verdict.status}"
                   + (f" at {verdict.witness}" if verdict.witness else ""))
        return 0

    if cmd == "analyze":
        report = analyze(args.graph, _koszul_config(args))
        _emit(args, report, text=render_text(report))
        return 0

    if cmd == "paper-suite":
        from .paper_suite import run_cases
        ids = None
        if args.cases is not None:
            try:
                ids = [int(x) for x in args.cases.split(",")]
            except ValueError:
                raise InputError("--cases takes comma-separated case ids") from None
        results = run_cases(ids)
        payload = {"schema": SCHEMA,
                   "suite": [r.to_json() for r in results],
                   "all_passed": all(r.passed for r in results),
                   "timings": {r.case_id: round(r.elapsed_seconds, 3)
                               for r in results}}
        text = "\n".join(
            f"case {r.case_id:2d} [{'PASS' if r.passed else 'FAIL'}] {r.name}"
            for r in results)
        _emit(args, payload, text=text)
        return 0 if payload["all_passed"] else 1

    raise InputError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
