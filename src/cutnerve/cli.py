"""Command line interface.

Subcommands:

  verify    run one scenario or a whole size class
  build     emit graph or complex JSON for a named family
  homology  reduced homology profile of a complex JSON file
  morse     sequential element matching summary for a complex JSON file
  collapse  greedy collapse witness for a complex JSON file, or replay one

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or guard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions as cons
from . import graphs as gr
from . import morse
from .complexes import SimplicialComplex
from .errors import InvalidParameterError, ResourceLimitError
from .homology import reduced_homology
from .verify import SIZE_CLASSES, SCENARIOS, run_all, run_scenario, summary_table

GRAPH_FAMILIES = {
    "cycle": (gr.cycle, ("n",)),
    "complete": (gr.complete, ("n",)),
    "star": (gr.star, ("n",)),
    "squared-cycle": (gr.squared_cycle, ("n",)),
    "prism": (gr.prism, ("n",)),
    "circular-ladder": (gr.circular_ladder, ("n",)),
    "kneser": (gr.kneser, ("n", "k")),
    "stable-kneser": (gr.stable_kneser, ("n", "k")),
}


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise InvalidParameterError(f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name in params:
            raise InvalidParameterError(f"--param {name} given twice")
        try:
            params[name] = int(value)
        except ValueError:
            raise InvalidParameterError(f"parameter {name!r} must be an integer, got {value!r}") from None
    return params


def _cmd_verify(args) -> int:
    if not args.all and args.size_class is not None:
        raise InvalidParameterError("--class applies only to --all")
    if args.timings and not args.json:
        raise InvalidParameterError("--timings applies only to --json")
    if args.all:
        if args.scenario or args.param:
            raise InvalidParameterError("--all runs a whole size class; give no scenario id or --param")
        reports = run_all(args.size_class or "desk")
    else:
        if not args.scenario:
            raise InvalidParameterError("give a scenario id or --all")
        reports = [run_scenario(args.scenario, _parse_params(args.param))]
    print(summary_table(reports))
    if args.json:
        doc = [r.to_dict(args.timings) for r in reports]
        with open(args.json, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        print(f"wrote {args.json}")
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def _build_graph(args) -> gr.Graph:
    if args.family not in GRAPH_FAMILIES:
        raise InvalidParameterError(
            f"unknown graph family {args.family!r}; known: {', '.join(sorted(GRAPH_FAMILIES))}"
        )
    fn, names = GRAPH_FAMILIES[args.family]
    values = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise InvalidParameterError(f"family {args.family!r} needs --{name}")
        values.append(v)
    if args.k is not None and "k" not in names and args.construction != "total-cut":
        raise InvalidParameterError(
            f"--k applies only to total-cut and the kneser families, not {args.construction} {args.family}")
    return fn(*values)


def _cmd_build(args) -> int:
    if args.construction not in ("graph", "total-cut", "neighborhood"):
        raise InvalidParameterError(
            f"unknown construction {args.construction!r}; known: graph, total-cut, neighborhood"
        )
    if args.independent_k is not None and args.construction != "neighborhood":
        raise InvalidParameterError("--independent-k applies only to neighborhood")
    g = _build_graph(args)
    if args.construction == "graph":
        text = g.to_json()
    elif args.construction == "total-cut":
        if args.k is None:
            raise InvalidParameterError("total-cut needs --k")
        text = cons.total_cut_complex(g, args.k).to_json()
    else:
        if args.independent_k is not None:
            g = gr.induced_k_independent(g, args.independent_k)
        text = cons.neighborhood_complex(g).to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _parse_file(path: str, parse, what: str):
    """Parse a JSON input file; undecodable or malformed content is a usage
    error."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(f"{path}: {what} file is not UTF-8: {exc}") from None
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidParameterError(f"{path}: invalid {what} JSON: {exc}") from None


def _load_complex(path: str) -> SimplicialComplex:
    return _parse_file(path, SimplicialComplex.from_json, "complex")


def _cmd_homology(args) -> int:
    profile = reduced_homology(_load_complex(args.file))
    print(profile.to_json())
    return 0


def _cmd_morse(args) -> int:
    cx = _load_complex(args.file)
    vertices = [v.strip() for v in args.vertices.split(",") if v.strip()]
    pairs = morse.element_matching_sequence(cx, vertices)
    critical = morse.critical_cells(cx, pairs)
    critical = None if critical is None else [list(cx.labels_of_face(f)) for f in critical]
    doc = {"pairs": len(pairs), "acyclic": critical is not None, "critical": critical}
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_collapse(args) -> int:
    if args.replay and args.out:
        raise InvalidParameterError("--out applies only without --replay")
    cx = _load_complex(args.file)
    if args.replay:
        witness = _parse_file(
            args.replay, lambda text: morse.CollapseWitness.from_json(cx, text), "witness"
        )
        ok = morse.replay_collapse(cx, witness)
        print(json.dumps({"replay": "valid" if ok else "invalid"}))
        return 0 if ok else 1
    witness = morse.greedy_collapse(cx)
    text = witness.to_json(cx)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({witness.verdict})")
    else:
        print(text)
    return 0 if witness.is_collapsible() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutnerve",
        description="verify homotopy-type claims about graph complexes at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run scenario checks")
    p_verify.add_argument("scenario", nargs="?", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    p_verify.add_argument("--param", action="append", help="name=value, repeatable")
    p_verify.add_argument("--all", action="store_true", help="run every scenario in a size class")
    p_verify.add_argument("--class", dest="size_class", choices=SIZE_CLASSES, help="default desk")
    p_verify.add_argument("--json", help="write report JSON to this path")
    p_verify.add_argument("--timings", action="store_true", help="include wall times in the JSON")
    p_verify.set_defaults(fn=_cmd_verify)

    p_build = sub.add_parser("build", help="emit graph or complex JSON")
    p_build.add_argument("construction", help="graph | total-cut | neighborhood")
    p_build.add_argument("family", help=f"one of: {', '.join(sorted(GRAPH_FAMILIES))}")
    p_build.add_argument("--n", type=int)
    p_build.add_argument("--k", type=int, help="subset size for kneser/total-cut")
    p_build.add_argument(
        "--independent-k",
        type=int,
        dest="independent_k",
        help="build the neighborhood complex of the induced k-independent graph",
    )
    p_build.add_argument("--out")
    p_build.set_defaults(fn=_cmd_build)

    p_hom = sub.add_parser("homology", help="reduced homology of a complex JSON file")
    p_hom.add_argument("file")
    p_hom.set_defaults(fn=_cmd_homology)

    p_morse = sub.add_parser("morse", help="sequential element matching summary")
    p_morse.add_argument("file")
    p_morse.add_argument("--vertices", required=True, help="comma separated vertex labels")
    p_morse.set_defaults(fn=_cmd_morse)

    p_col = sub.add_parser("collapse", help="greedy collapse witness or replay")
    p_col.add_argument("file")
    p_col.add_argument("--out")
    p_col.add_argument("--replay", help="witness JSON to replay against the complex")
    p_col.set_defaults(fn=_cmd_collapse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (InvalidParameterError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
