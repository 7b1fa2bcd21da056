"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed or
inconsistent input (shot counts above sampling.MAX_SHOTS and a file that
cannot be read or written included), 3 out
of memory or a solver failure (a RuntimeError from the staged solver or a
scenario builder). States on the command line are either diag:p1,p2,...
(diagonal weights), vec:a,b,... (vector amplitudes, a trailing i marking
the imaginary part), or a path to a state JSON file.

The demo handlers import scenarios when they run, so verify, dilate and
sample never load algebra, uhf, gns or scenarios.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import serialize
from .dilation import instrument_of, kraus_rank, realize_instrument
from .instruments import instrument_distance, verify_axioms
from .report import Report
from .sampling import Histogram, normalize_weights, sample_histogram
from .states import State, diagonal_state, vector_state


def _parse_state(text: str, expected_dim: int | None = None) -> State:
    try:
        if text.startswith("diag:"):
            vals = [float(x) for x in text[5:].split(",") if x.strip()]
            st = diagonal_state(vals)
        elif text.startswith("vec:"):
            # i only as the imaginary suffix, so inf and nan read as themselves
            vals = [complex(x[:-1] + "j" if x.endswith("i") else x)
                    for x in map(str.strip, text[4:].split(",")) if x]
            st = vector_state(np.array(vals, dtype=complex))
        else:
            st = serialize.state_from_json(serialize.read_json(text))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse state {text!r}: {exc}") from exc
    if expected_dim is not None and st.dim != expected_dim:
        raise ValueError(f"state has dimension {st.dim}, expected {expected_dim}")
    return st


def _seed(text: str) -> int:
    """The --seed type: an integer in [0, 2**128), the Philox key range, so
    argparse refuses any other before work starts."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**128:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**128), got {text!r}")
    return seed


def _check_tol(tol: float) -> float:
    # a NaN fails both comparisons
    if not 0.0 < tol < float("inf"):
        raise ValueError(f"--tol must be finite and positive, got {tol}")
    return tol


def _finish(rep: Report, out_path: str | None) -> int:
    for c in rep.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: residual={c.residual:.3e} "
              f"tol={c.tolerance:.1e}")
    for note in rep.notes:
        print(f"note: {note}")
    if out_path:
        serialize.write_json(out_path, serialize.report_to_json(rep))
        print(f"report written to {out_path}")
    return 0 if rep.all_pass else 1


def _cmd_verify(args) -> int:
    payload = serialize.read_json(args.instrument)
    E = serialize.instrument_from_json(payload, validate=False)
    rep = verify_axioms(E, probes=args.probes, tol=_check_tol(args.tol),
                        seed=args.seed)
    return _finish(rep, args.out)


def _claim(*paths) -> None:
    """Open every output path before any is written, appending so nothing
    is truncated: a path that cannot be written leaves the others as they
    were, and a file this call made is removed again."""
    made = []
    try:
        for path in paths:
            fresh = not os.path.lexists(path)
            open(path, "a").close()
            if fresh:
                made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise


def _cmd_projective(args) -> int:
    from .scenarios import build_projective_scenario, run_projective_check
    if args.hist and args.shots <= 0:
        raise ValueError("shot count must be positive")
    p = build_projective_scenario(args.k, args.levels, flavor=args.flavor,
                                  identity_interaction=args.identity_u)
    state = _parse_state(args.state, args.k) if args.state else None
    rep = run_projective_check(p, state=state, shots=args.shots,
                               seed=args.seed)
    if args.hist:
        # the counts the report's sampling check drew, not a second draw
        hist = Histogram(counts=rep.derived["histogram"]["counts"],
                         probabilities=normalize_weights(rep.derived["weights"]))
        _claim(*filter(None, (args.hist, args.out)))
        serialize.write_histogram_csv(args.hist, hist)
        print(f"histogram written to {args.hist}")
    return _finish(rep, args.out)


def _cmd_chi(args) -> int:
    from .scenarios import chi_ladder_report
    return _finish(chi_ladder_report(args.k, levels=args.levels), args.out)


def _cmd_tensor_power(args) -> int:
    from .scenarios import tensor_power_report
    return _finish(tensor_power_report(args.k, n=args.levels, copies=args.copies), args.out)


def _cmd_dilate(args) -> int:
    payload = serialize.read_json(args.instrument)
    E = serialize.instrument_from_json(payload, validate=False)
    dil = realize_instrument(E, psd_tol=_check_tol(args.tol))
    dist = instrument_distance(E, instrument_of(dil))
    print(f"probe_dim={dil.probe_dim} kraus_rank={kraus_rank(dil)} "
          f"round_trip_distance={dist:.3e}")
    if args.out:
        serialize.write_json(args.out, serialize.dilation_to_json(dil))
        print(f"dilation written to {args.out}")
    return 0 if dist <= args.tol else 1


def _cmd_sample(args) -> int:
    payload = serialize.read_json(args.instrument)
    E = serialize.instrument_from_json(payload, validate=True)
    state = _parse_state(args.state, E.observed_dim)
    hist = sample_histogram(E.outcome_weights(state), args.shots, args.seed)
    if args.out:
        serialize.write_histogram_csv(args.out, hist)
        print(f"histogram written to {args.out}")
    else:
        sys.stdout.write(serialize.histogram_csv(hist))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="measurelab",
        description="Finite-truncation laboratory for instrument "
                    "measurement models")
    sub = ap.add_subparsers(dest="command", required=True)

    p_ver = sub.add_parser("verify", help="check instrument axioms")
    p_ver.add_argument("instrument", help="instrument JSON file")
    p_ver.add_argument("--probes", type=int,
                       help="number of probe states (default: all of them, "
                            "at most 16)")
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.add_argument("--seed", type=_seed, default=42)
    p_ver.add_argument("--out", help="write the report JSON here")
    p_ver.set_defaults(func=_cmd_verify)

    p_demo = sub.add_parser("demo", help="run a built-in scenario")
    scenarios = p_demo.add_subparsers(dest="scenario", required=True)
    demo = {}
    for name, func in (("projective", _cmd_projective), ("chi", _cmd_chi),
                       ("tensor-power", _cmd_tensor_power)):
        p = demo[name] = scenarios.add_parser(name)
        p.add_argument("--k", type=int, default=2,
                       help="site size / observed dimension")
        p.add_argument("--levels", type=int, default=2,
                       help="truncation level (chi: top ladder level)")
        p.set_defaults(func=func)
    p_proj = demo["projective"]
    p_proj.add_argument("--flavor", choices=["natural", "generic"],
                        default="natural")
    p_proj.add_argument("--state", help="observed-system state literal or file")
    p_proj.add_argument("--shots", type=int, default=100_000)
    p_proj.add_argument("--seed", type=_seed, default=42)
    p_proj.add_argument("--identity-U", dest="identity_u", action="store_true",
                        help="disable the interaction")
    demo["tensor-power"].add_argument("--copies", type=int, default=2,
                                      help="tensor-power copies")
    for p in demo.values():
        p.add_argument("--out", help="write the report JSON here")
    p_proj.add_argument("--hist", help="write sampled counts CSV here")

    p_dil = sub.add_parser("dilate", help="realize an instrument by a "
                                          "probe-space measurement")
    p_dil.add_argument("instrument", help="instrument JSON file")
    p_dil.add_argument("--tol", type=float, default=1e-8,
                       help="PSD tolerance for the Choi blocks")
    p_dil.add_argument("--out", help="write the dilation JSON here")
    p_dil.set_defaults(func=_cmd_dilate)

    p_sam = sub.add_parser("sample", help="draw outcome counts")
    p_sam.add_argument("instrument", help="instrument JSON file")
    p_sam.add_argument("--state", required=True,
                       help="state literal (diag:/vec:) or JSON file")
    p_sam.add_argument("--shots", type=int, default=100_000)
    p_sam.add_argument("--seed", type=_seed, default=42)
    p_sam.add_argument("--out", help="write counts CSV here")
    p_sam.set_defaults(func=_cmd_sample)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"resource error: out of memory{detail}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
