"""Command line driver: fan file in, deterministic report out.

    qdm <cohomology|ifunction|operators|loop-model> fan.json [options]

Exit status: 0 when every requested verification passed, 1 when a
verification failed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import sys

from . import dmodule, ifunction, loop_model, serialize, toric
from .cohomology import build_ring

# A --modes range lists at most this many cutoffs: the report repeats each
# one per degree, and the range is refused before any list is built.
MAX_MODE_CUTOFFS = 1000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdm",
        description="Exact quantum cohomology D-module computations for "
                    "smooth complete toric varieties.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("cohomology", "ring dimensions, bases and pairing matrices"),
            ("ifunction", "the Euler-ratio series and its components"),
            ("operators", "annihilating operators and quantum relations"),
            ("loop-model", "finite-mode critical data and stabilization")):
        # each subcommand registers only the options its handler reads
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("fan", help="path to a fan JSON file")
        if name != "cohomology":
            cmd.add_argument("--max-degree", default="6", metavar="B",
                             help="truncate at anticanonical degree B (default 6)")
            cmd.add_argument("--allow-general-sign", action="store_true",
                             help="accepted and ignored: general signs are always used")
        if name == "operators":
            cmd.add_argument("--theta-order", default=None, metavar="T",
                             help="ansatz bound on theta order (default dim+1)")
            cmd.add_argument("--q-degree", default="1", metavar="Q",
                             help="ansatz bound on q degree (default 1)")
        if name in ("operators", "loop-model"):
            cmd.add_argument("--degree", action="append", default=None,
                             metavar="d1,d2,...", help="curve degree (repeatable)")
        if name == "loop-model":
            cmd.add_argument("--modes", default=None, metavar="N0..N1",
                             help="mode cutoff range for the loop model, at most "
                                  "%d cutoffs" % MAX_MODE_CUTOFFS)
        if name == "ifunction":
            cmd.add_argument("--components", default=None, metavar="b1,b2,...",
                             help="basis indices of series components to expand")
            cmd.add_argument("--log-order", default=None, metavar="L",
                             help="log-monomial order kept in components (default dim)")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        cmd.add_argument("--out", default=None, metavar="PATH",
                         help="write the report to PATH instead of stdout")
    return parser


def _load(args):
    with open(args.fan, "r", encoding="utf-8") as fh:
        fan = toric.parse_fan(fh.read())
    sys.set_int_max_str_digits(0)  # exact rationals past 4300 digits; main restores it
    cm = toric.charge_matrix(fan)
    # mori_generators alone judges a supplied nef basis, before any ring work
    cone = toric.mori_generators(fan, cm)
    return fan, cm, build_ring(fan, cm), cone


def _int_field(part, option, raw):
    """One integer field of an option value: a string toric.parse_frac
    accepts, without a denominator, of size at most sys.maxsize (a range's
    limit).  int() alone would also take '_', '+' and spaces."""
    if "/" not in part:
        try:
            value = toric.parse_frac(part)
        except ValueError:
            pass
        else:
            if abs(value) > sys.maxsize:
                raise ValueError("%s value %r is too large" % (option, raw))
            return value
    raise ValueError("bad %s value %r" % (option, raw))


def _parse_int_options(args):
    """Turn the integer options this subcommand has into ints >= 0, in place."""
    for option in ("--max-degree", "--theta-order", "--q-degree", "--log-order"):
        name = option[2:].replace("-", "_")
        raw = getattr(args, name, None)
        if raw is not None:
            value = _int_field(raw, option, raw)
            if value < 0:
                raise ValueError("%s must be nonnegative, got %r" % (option, raw))
            setattr(args, name, value)


def _parse_degrees(args, cm):
    if args.degree is None:
        return None
    out = []
    for raw in args.degree:
        d = tuple(_int_field(p, "--degree", raw) for p in raw.split(","))
        if len(d) != cm.l:
            raise ValueError("--degree needs %d comma-separated integers" % cm.l)
        out.append(d)
    return out


def _parse_components(raw, size):
    out = []
    for part in raw.split(","):
        beta = _int_field(part, "--components", raw)
        if not 0 <= beta < size:
            raise ValueError("--components index %d is outside the basis 0..%d"
                             % (beta, size - 1))
        if beta in out:
            raise ValueError("--components index %d is repeated" % beta)
        out.append(beta)
    return out


def _parse_modes(raw):
    if raw is None:
        return None
    lo, sep, hi = raw.partition("..")
    lo = _int_field(lo, "--modes", raw)
    hi = _int_field(hi, "--modes", raw) if sep else lo
    if hi < lo:
        raise ValueError("--modes range is empty")
    if lo < 0:
        raise ValueError("--modes cutoffs must be nonnegative, got %r" % raw)
    if hi - lo >= MAX_MODE_CUTOFFS:
        raise ValueError("--modes range %r lists %d cutoffs, more than %d"
                         % (raw, hi - lo + 1, MAX_MODE_CUTOFFS))
    return list(range(lo, hi + 1))


def cmd_cohomology(args) -> tuple[dict, bool]:
    fan, cm, ring, cone = _load(args)
    pairing_blocks = {}
    for deg in range(ring.top + 1):
        rows, den = ring.pairing(deg)
        pairing_blocks["%d,%d" % (deg, ring.top - deg)] = [
            [serialize.frac_str(r, den) for r in row] for row in rows]
    report = {
        "rays": [list(r) for r in fan.rays],
        "charge_matrix": [list(r) for r in cm.m],
        "mori_generators": [list(g) for g in cone.generators],
        "dimensions": list(ring.dims),
        "total_dimension": sum(ring.dims),
        "basis": {str(d): [serialize.mono_str(m) for m in ring.basis_by_degree[d]]
                  for d in range(ring.top + 1)},
        "dual_basis": [serialize.class_json(c) for c in ring.dual_basis()[1]],
        "pairing": pairing_blocks,
    }
    return report, True


def cmd_ifunction(args) -> tuple[dict, bool]:
    _fan, cm, ring, cone = _load(args)
    components = None
    if args.components is not None:
        components = _parse_components(args.components, len(ring.basis))
    series = ifunction.build_f(ring, cone, args.max_degree)
    # reported as "homogeneous": a value at hbar = 1 is homogeneous by
    # construction, so what is checked is the identity defining each R_d
    homogeneous = all(ifunction.check_ratio(ring, d, series.coefficients[d])
                      for d in series.degrees)
    report = {
        "charge_matrix": [list(r) for r in cm.m],
        "max_degree": args.max_degree,
        "prefactor": "exp((t.omega)/hbar), kept symbolic",
        "series": serialize.series_json(series),
        "homogeneous": homogeneous,
    }
    if components is not None:
        log_order = ring.top if args.log_order is None else args.log_order
        comps = {}
        for beta in components:
            comp = ifunction.component(series, beta, log_order)
            comps[str(beta)] = serialize.component_json(comp)
        report["components"] = comps
    return report, homogeneous


def cmd_operators(args) -> tuple[dict, bool]:
    _fan, cm, ring, cone = _load(args)
    series = ifunction.build_f(ring, cone, args.max_degree)
    theta_order = (ring.top + 1) if args.theta_order is None else args.theta_order
    degrees = _parse_degrees(args, cm)
    if degrees is None:
        degrees = cone.generators
    ok = True
    gkz_entries = []
    for d in degrees:
        dmodule._window_cap(series, [d])
        op = dmodule.gkz_operator(cm, d)
        applied = dmodule.apply(op, series)
        annihilates = applied.is_zero()
        ok = ok and annihilates
        rel = dmodule.semiclassical(op)
        classical = rel.classical_value(ring)
        gkz_entries.append({
            "degree": list(d),
            "operator": serialize.op_json(op),
            "text": serialize.op_str(op),
            "annihilates_series": annihilates,
            "relation": serialize.relation_str(rel),
            "relation_classical_at_q0": serialize.class_json(classical),
            "classical_check": classical.is_zero(),
        })
        ok = ok and classical.is_zero()
    anns = dmodule.find_annihilators(series, theta_order, args.q_degree)
    ann_entries = []
    for op in anns:
        # the exact nullspace already kills D.F on the window apply would read
        rel = dmodule.semiclassical(op)
        entry = {"operator": serialize.op_json(op), "text": serialize.op_str(op)}
        if not rel.is_zero():
            entry["relation"] = serialize.relation_str(rel)
            classical = rel.classical_value(ring)
            entry["classical_check"] = classical.is_zero()
            ok = ok and classical.is_zero()
        ann_entries.append(entry)
    report = {
        "charge_matrix": [list(r) for r in cm.m],
        "max_degree": args.max_degree,
        "ansatz": {"theta_order": theta_order, "q_degree": args.q_degree},
        "gkz": gkz_entries,
        "annihilators": ann_entries,
    }
    return report, ok


def cmd_loop_model(args) -> tuple[dict, bool]:
    _fan, cm, ring, cone = _load(args)
    degrees = _parse_degrees(args, cm)
    if degrees is None:
        degrees = [d for d in ifunction.build_f(ring, cone, args.max_degree).degrees if any(d)]
    else:
        for d in degrees:
            if not toric.in_cone(d, cone):
                raise ValueError("--degree %s is outside the Mori cone"
                                 % ",".join(map(str, d)))
    modes = _parse_modes(args.modes)
    reports = [loop_model.check_stabilization(ring, d, modes) for d in degrees]
    ok = all(rep["stable"] for rep in reports)
    return {"charge_matrix": [list(r) for r in cm.m], "reports": reports}, ok


_COMMANDS = {
    "cohomology": cmd_cohomology,
    "ifunction": cmd_ifunction,
    "operators": cmd_operators,
    "loop-model": cmd_loop_model,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits()
    try:
        _parse_int_options(args)
        report, ok = _COMMANDS[args.command](args)
        report["ok"] = ok  # the last key of every report
        render = serialize.render_json if args.format == "json" else serialize.render_text
        text = render(report) + "\n"
    except (ValueError, OverflowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: cannot write the report: %s" % exc, file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
