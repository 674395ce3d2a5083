"""Command-line front end; every subcommand emits text, JSON, or CSV with
numbers rendered as decimal strings or "p/q" so nothing is lost downstream.

Exit status: 0 for success and verified equalities, 1 for any mismatch or
a non-simple scan result (status "reducible-consistent"), 2 for usage, cap,
or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from . import branching, characters, fock, modealg, qseries, rootsys, weylchar


def fmt_rat(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _poly_terms(poly: weylchar.LaurentPoly) -> list[dict]:
    return [
        {"exponent": rootsys.format_weight(rootsys.Weight(e)), "coeff": str(c)}
        for e, c in sorted(poly.terms.items())
    ]


class _Report:
    """Accumulates lines (text), a payload (json), and rows (csv)."""

    def __init__(self):
        self.lines: list[str] = []
        self.payload: dict = {}
        self.csv_header: list[str] = []
        self.csv_rows: list[list[str]] = []

    def text(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, fmt: str, stream) -> None:
        if fmt == "json":
            json.dump(self.payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        elif fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(self.csv_header)
            writer.writerows(self.csv_rows)
        else:
            for line in self.lines:
                stream.write(line + "\n")


def _coeffs_line(label: str, series: qseries.TruncSeries) -> str:
    return f"{label}: " + ",".join(str(c) for c in series.coeffs)


def _series_table(rep: _Report, header: list[str], columns: list[qseries.TruncSeries]) -> None:
    """CSV of coefficients by power, one column per series."""
    rep.csv_header = ["power", *header]
    rep.csv_rows = [
        [str(k)] + [str(s.coeffs[k]) for s in columns] for k in range(columns[0].trunc + 1)
    ]


def _compare_report(results: dict[str, qseries.TruncSeries]) -> tuple[int, _Report]:
    """Series that must agree: a text line and a JSON record per series,
    ``equal``, and on a mismatch the differing powers (exit 1).  The CSV
    table holds the first series."""
    rep = _Report()
    rep.lines = [_coeffs_line(label, s) for label, s in results.items()]
    first = next(iter(results.values()))
    diff = [
        k for k in range(first.trunc + 1) if len({s.coeffs[k] for s in results.values()}) > 1
    ]
    equal = not diff
    rep.text(f"equal: {str(equal).lower()}")
    rep.payload = {label: s.to_record() for label, s in results.items()}
    rep.payload["equal"] = equal
    if diff:
        rep.payload["diff_powers"] = diff
        rep.text("diff at powers: " + ",".join(map(str, diff)))
    _series_table(rep, ["coefficient"], [first])
    return (0 if equal else 1), rep


def _cmd_branching(args) -> tuple[int, _Report]:
    lam = rootsys.parse_weight(args.lam)
    return _compare_report(
        {
            "product": branching.branching_product(lam, args.n, args.trunc),
            "weylsum": branching.branching_weylsum(lam, args.n, args.trunc, args.weyl_cap),
        }
    )


def _cmd_tensor(args) -> tuple[int, _Report]:
    lams = [rootsys.parse_weight(t) for t in args.weights.split(";") if t.strip()]
    for lam in lams:
        if lam.n != args.n:
            raise ValueError(
                f"weight {rootsys.format_weight(lam)} has rank {lam.n}, but --n is {args.n}"
            )
    state = weylchar.tensor_decompose(lams, args.weyl_cap)
    rep = _Report()
    rep.csv_header = ["mu", "multiplicity"]
    for mu in sorted(state, key=lambda w: (rootsys.conformal_h(w), w.coords2)):
        rep.csv_rows.append([rootsys.format_weight(mu), str(state[mu])])
    rep.lines = [f"{mu}: {m}" for mu, m in rep.csv_rows]
    rep.payload = {"multiplicities": [{"mu": mu, "m": m} for mu, m in rep.csv_rows]}
    return 0, rep


def _char_by_method(method: str, args) -> qseries.TruncSeries:
    if method == "theorem2":
        return characters.theorem2_character(args.n, args.d, args.trunc, args.weyl_cap)
    if method == "oracle":
        return characters.invariant_series_oracle(args.n, args.d, args.trunc, args.weyl_cap)
    dims = [
        fock.invariant_subspace(args.n, args.d, lvl, args.basis_cap)[0]
        for lvl in range(args.trunc + 1)
    ]
    return qseries.TruncSeries(args.trunc, dims)


def _cmd_char(args) -> tuple[int, _Report]:
    if args.method != "all":
        series = _char_by_method(args.method, args)
        rep = _Report()
        rep.text(_coeffs_line(args.method, series))
        rep.payload = {"series": series.to_record()}
        _series_table(rep, ["coefficient"], [series])
        return 0, rep
    results = {m: _char_by_method(m, args) for m in ("theorem2", "oracle", "fock")}
    code, rep = _compare_report(results)
    _series_table(rep, list(results), list(results.values()))
    return code, rep


def _cmd_denom_check(args) -> tuple[int, _Report]:
    lhs, rhs = branching.denominator_identity_check(args.n, args.weyl_cap)
    rep = _Report()
    rep.text(f"terms: {len(lhs.terms)}")
    rep.payload = {"lhs": _poly_terms(lhs), "rhs": _poly_terms(rhs), "equal": True}
    rep.csv_header = ["side", "exponent", "coeff"]
    for side in ("lhs", "rhs"):
        for item in rep.payload[side]:
            rep.text(f"{side} {item['coeff']} * e^({item['exponent']})")
            rep.csv_rows.append([side, item["exponent"], item["coeff"]])
    rep.text("equal: true")
    return 0, rep


def _parse_matrix(text: str) -> modealg.SymMatrix:
    entries = [Fraction(t.strip()) for t in text.split(",")]
    d = math.isqrt(len(entries))
    if d * d != len(entries):
        raise ValueError("matrix entries must form a square (row-major)")
    return modealg.sym_matrix([entries[i * d : (i + 1) * d] for i in range(d)])


def _matrix_rows(mat: modealg.SymMatrix) -> list[str]:
    return [",".join(fmt_rat(x) for x in row) for row in mat]


def _cmd_griess(args) -> tuple[int, _Report]:
    x = _parse_matrix(args.x)
    y = _parse_matrix(args.y)
    if len(x) != len(y):
        raise ValueError("matrices must have equal size")
    g = modealg.griess_product(x, y, Fraction(args.r))
    j = modealg.jordan_product(x, y)
    equal = g == j
    rep = _Report()
    rep.payload = {"griess": _matrix_rows(g), "jordan": _matrix_rows(j), "equal": equal}
    rep.csv_header = ["product", "rows"]
    for name in ("griess", "jordan"):
        rep.text(f"{name}: " + "; ".join(rep.payload[name]))
        rep.csv_rows.append([name, ";".join(rep.payload[name])])
    rep.text(f"equal: {str(equal).lower()}")
    return (0 if equal else 1), rep


def _cmd_bracket(args) -> tuple[int, _Report]:
    x = modealg.parse_genkey(args.x)
    y = modealg.parse_genkey(args.y)
    out = modealg.bracket(x, y, Fraction(args.r))
    rep = _Report()
    rep.csv_header = ["generator", "coeff"]
    terms = sorted(out.terms.items())
    rep.csv_rows = [[modealg.format_genkey(k), fmt_rat(c)] for k, c in terms]
    rep.lines = [f"{c} * {key}" for key, c in rep.csv_rows]
    rep.payload = {
        "terms": [{"generator": key, "coeff": c} for key, c in rep.csv_rows],
        "central": fmt_rat(out.central),
    }
    rep.text(f"central: {fmt_rat(out.central)}")
    rep.csv_rows.append(["central", fmt_rat(out.central)])
    return 0, rep


def _cmd_simplicity(args) -> tuple[int, _Report]:
    violations = modealg.simplicity_scan(Fraction(args.r), args.d, args.N)
    status = "simple-consistent" if not violations else "reducible-consistent"
    rep = _Report()
    rep.text("violations: " + (" ".join(f"({k},{l})" for k, l in violations) or "none"))
    rep.text(f"status: {status}")
    rep.payload = {"violations": [[k, l] for k, l in violations], "status": status}
    rep.csv_header = ["k", "l"]
    rep.csv_rows = [[str(k), str(l)] for k, l in violations]
    return (0 if not violations else 1), rep


def _cmd_fock_invariants(args) -> tuple[int, _Report]:
    return _compare_report({m: _char_by_method(m, args) for m in ("fock", "theorem2")})


def _cmd_virasoro(args) -> tuple[int, _Report]:
    c_value, grading_ok = fock.virasoro_check(args.n, args.d, cap=args.basis_cap)
    rep = _Report()
    rep.csv_header = ["field", "value"]
    rep.csv_rows = [
        ["central_charge", fmt_rat(c_value)],
        ["expected", str(-2 * args.d * args.n)],
        ["grading_ok", str(grading_ok).lower()],
    ]
    rep.lines = [f"{field}: {value}" for field, value in rep.csv_rows]
    rep.payload = dict(rep.csv_rows)
    rep.payload["grading_ok"] = grading_ok
    return 0, rep


def _cmd_generation(args) -> tuple[int, _Report]:
    results = fock.generation_check(args.n, args.d, args.maxlevel, args.basis_cap)
    ok = all(results.values())
    rep = _Report()
    for lvl in sorted(results):
        rep.text(f"level {lvl}: {'ok' if results[lvl] else 'DEFICIENT'}")
    rep.text(f"generated: {str(ok).lower()}")
    rep.payload = {
        "levels": {str(k): v for k, v in results.items()},
        "generated": ok,
    }
    rep.csv_header = ["level", "generated"]
    rep.csv_rows = [[str(k), str(v).lower()] for k, v in sorted(results.items())]
    return (0 if ok else 1), rep


def _int_at_least(low: int):
    """argparse type for an integer >= low; argparse names the option."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # non-integers still read "invalid int value"
    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voachar",
        description="Exact graded characters, branching functions, and "
        "mode-algebra checks for symplectic-fermion invariant vertex algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weyl=False, basis=False):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if weyl:
            p.add_argument("--weyl-cap", type=int, default=rootsys.DEFAULT_WEYL_CAP)
        if basis:
            p.add_argument("--basis-cap", type=int, default=fock.DEFAULT_BASIS_CAP)

    p = sub.add_parser("branching", help="branching function by both formulas")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--lam", required=True, help='weight, e.g. "0,1"')
    p.add_argument("--trunc", type=_non_negative, required=True)
    common(p, weyl=True)
    p.set_defaults(func=_cmd_branching)

    p = sub.add_parser("tensor", help="tensor-product multiplicity table")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--weights", required=True, help='semicolon-separated, e.g. "1;1"')
    common(p, weyl=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("char", help="invariant-subalgebra graded character")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--trunc", type=_non_negative, required=True)
    p.add_argument(
        "--method", choices=("theorem2", "oracle", "fock", "all"), default="theorem2"
    )
    common(p, weyl=True, basis=True)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("denom-check", help="so(2n+1) denominator identity")
    p.add_argument("--n", type=_positive, required=True)
    common(p, weyl=True)
    p.set_defaults(func=_cmd_denom_check)

    p = sub.add_parser("griess", help="degree-2 product vs the Jordan product")
    p.add_argument("--r", required=True, help='level, rational like "5/2"')
    p.add_argument("--x", required=True, help="row-major entries, comma-separated")
    p.add_argument("--y", required=True)
    common(p)
    p.set_defaults(func=_cmd_griess)

    p = sub.add_parser("bracket", help="commutator of two generators")
    p.add_argument("--r", required=True)
    p.add_argument("--x", required=True, help='generator, e.g. "L[1,2](3,-1)"')
    p.add_argument("--y", required=True)
    common(p)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("simplicity", help="scan the irreducibility criterion")
    p.add_argument("--r", required=True)
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--N", type=_positive, required=True)
    common(p)
    p.set_defaults(func=_cmd_simplicity)

    p = sub.add_parser("fock-invariants", help="invariant dimensions by level")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--d", type=_positive, required=True)
    # dest "trunc": the Fock and theorem routes of ``char`` run to this level
    p.add_argument("--maxlevel", dest="trunc", type=_non_negative, required=True)
    common(p, weyl=True, basis=True)
    p.set_defaults(func=_cmd_fock_invariants)

    p = sub.add_parser("virasoro", help="central charge and grading check")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--d", type=_positive, required=True)
    common(p, basis=True)
    p.set_defaults(func=_cmd_virasoro)

    p = sub.add_parser("generation", help="degree-2 generation check")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--maxlevel", type=_non_negative, required=True)
    common(p, basis=True)
    p.set_defaults(func=_cmd_generation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, rep = args.func(args)
    except (ValueError, ArithmeticError) as exc:  # CapExceededError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep.emit(args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
