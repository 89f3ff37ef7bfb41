"""Command-line front end.

Subcommands: ``fresnel``, ``modes eval``, ``greens eval``, ``kernel verify``,
``energy shift``, ``energy sweep``, ``verify``.  Tables are emitted as CSV
(UTF-8, LF), verification results as JSON/CSV check reports; all files are
written atomically.  Only the commands that run the quadrature engine take
``--config``, and only ``verify`` samples, so only it takes ``--seed``.
``verify`` and ``kernel verify`` exit 0 iff every check passes and 1 if one
fails; an integral that misses its tolerance (``QuadratureError``) exits 1
with ``error: ...``; bad input of any command exits 2.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, load_config, spec_from_config
from .fresnel import fresnel_coefficients
from .greens import GreenVariant, PointPair, grad_grad_green_tensor
from .kernels import KernelKind
from .medium import Medium, Polarization, Side, SpectralPoint, label_wavenumbers
from .modes import carniglia_mandel_mode
from .energy import second_order_shift
from .report import all_passed, to_csv, to_json, write_atomic
from .spectral import QuadratureError
from .verification import SUITE_NAMES, kernel_verify_checks, run_suite

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _checked(kind, ok, expected: str):
    """An argparse type: ``kind(text)`` when ``ok`` accepts it, else a usage
    error (exit 2) that names the flag."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_finite = _checked(float, np.isfinite, "a finite number")
_finite_complex = _checked(complex, np.isfinite, "a finite complex number")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _parse_grid(text: str) -> np.ndarray:
    """'start:stop:count' inclusive grid, or a comma list of finite values."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([_finite(v) for v in text.split(",")])
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    return np.linspace(_finite(parts[0]), _finite(parts[1]), _count(parts[2]))


_parse_vec3 = _checked(lambda text: np.array([float(v) for v in text.split(",")]),
                       lambda v: v.shape == (3,) and np.isfinite(v).all(), "finite x,y,z")


def _spec(args: argparse.Namespace):
    return spec_from_config(load_config(args.config) if args.config else {})


_POINTS_HEADER = ["x", "y", "z", "xp", "yp", "zp"]


def _read_pairs(path: str, upper: bool = False) -> list[PointPair]:
    """The point pairs of a CSV file with header x,y,z,xp,yp,zp, with
    ``upper`` their field points at z >= 0 too; a bad line raises a
    ValueError that names the file and the line."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = [v.strip() for v in line.split(",")]
            if lineno == 1:
                if fields != _POINTS_HEADER:
                    raise ValueError(f"{path}:1: expected header {','.join(_POINTS_HEADER)}, "
                                     f"got {line.strip()!r}")
            elif line.strip():
                try:
                    if len(fields) != 6:
                        raise ValueError(f"expected 6 values, got {len(fields)}")
                    vals = [float(v) for v in fields]
                    pairs.append(PointPair(np.array(vals[:3]), np.array(vals[3:])))
                    if upper and vals[2] < 0.0:
                        raise ValueError(f"the perfect-reflector kernel lives in z >= 0, "
                                         f"got z = {vals[2]!r}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not pairs:
        raise ValueError(f"{path}: no point pairs")
    return pairs


def cmd_fresnel(args: argparse.Namespace) -> int:
    med = Medium(args.n)
    pols = [Polarization.TE, Polarization.TM] if args.pol == "both" else [Polarization(args.pol)]
    lines = ["pol,kpar,kz_re,kz_im,kzd_re,kzd_im,rR_re,rR_im,tR_re,tR_im,rL_re,rL_im,tL_re,tL_im"]
    for pol in pols:
        for kpar in args.kpar:
            for kz_val in args.kz:
                c = fresnel_coefficients(med, pol, float(kpar), kz_val)
                row = [pol.value, _fmt(kpar), _fmt(c.kz.real), _fmt(c.kz.imag),
                       _fmt(c.kzd.real), _fmt(c.kzd.imag)]
                for val in (c.rR, c.tR, c.rL, c.tL):
                    row += [_fmt(val.real), _fmt(val.imag)]
                lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_modes_eval(args: argparse.Namespace) -> int:
    med = Medium(args.n)
    side = Side.LEFT if args.side == "L" else Side.RIGHT
    point = SpectralPoint((args.kpar, 0.0), args.klong, side, Polarization(args.pol))
    try:
        label_wavenumbers(med, side, point.kpar_mag, point.kz)
    except ValueError as exc:
        raise ValueError(f"argument --klong: {exc}") from None
    lines = ["z,fx_re,fx_im,fy_re,fy_im,fz_re,fz_im"]
    for z in np.linspace(args.zmin, args.zmax, args.steps):
        f = carniglia_mandel_mode(med, point, np.array([args.x, args.y, z]))
        row = [_fmt(z)] + [_fmt(x) for comp in f for x in (comp.real, comp.imag)]
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_greens_eval(args: argparse.Namespace) -> int:
    from .greens import electrostatic_green

    med = Medium(args.n)
    variant = GreenVariant(args.variant)
    source = args.source
    comps = ["xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz"]
    lines = ["x,y,z,G," + ",".join(f"T_{c}" for c in comps)]
    for lam in np.linspace(0.0, 1.0, args.steps):
        r = args.start + lam * (args.stop - args.start)
        pair = PointPair(r, source)
        g = electrostatic_green(med, variant, pair)
        t = grad_grad_green_tensor(med, variant, pair)
        row = [_fmt(r[0]), _fmt(r[1]), _fmt(r[2]), _fmt(g)]
        row += [_fmt(t[i, j]) for i in range(3) for j in range(3)]
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_kernel_verify(args: argparse.Namespace) -> int:
    spec = _spec(args)
    med = Medium(args.n)
    kind = KernelKind(args.kind.replace("-", "_"))
    pairs = _read_pairs(args.points, upper=kind is KernelKind.PERFECT_REFLECTOR)
    reports = kernel_verify_checks(med, kind, pairs, spec)
    text = to_csv(reports) if args.format == "csv" else to_json(reports)
    _emit(text, args.out)
    return 0 if all_passed(reports) else 1


def cmd_energy_shift(args: argparse.Namespace) -> int:
    shift = second_order_shift(args.q, Medium(args.n), args.z0, _spec(args))
    fields = [
        ("delta_e", shift.delta_e), ("v_es", shift.v_es), ("ratio", shift.ratio),
        ("expected_ratio", shift.expected_ratio), ("left_part", shift.left_part),
        ("right_part", shift.right_part), ("n", shift.n), ("z0", shift.z0), ("q", shift.q),
    ]
    body = ",\n  ".join(f'"{k}": {_fmt(v)}' for k, v in fields)
    _emit("{\n  " + body + "\n}\n", args.out)
    return 0


def cmd_energy_sweep(args: argparse.Namespace) -> int:
    spec = _spec(args)
    lines = ["n,z0,q,delta_e,v_es,ratio,expected_ratio,left_part,right_part"]
    for n in args.n_grid:
        for z0 in args.z0_grid:
            s = second_order_shift(args.q, Medium(float(n)), float(z0), spec)
            lines.append(",".join(_fmt(v) for v in (
                s.n, s.z0, s.q, s.delta_e, s.v_es, s.ratio, s.expected_ratio,
                s.left_part, s.right_part,
            )))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, _spec(args), args.seed)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        err = r.abs_err if r.params.get("mode") == "abs" else r.rel_err
        print(f"{status} {r.check_name}: err={err:.3e} tol={r.tol:.1e} ({r.runtime_ms} ms)")
    text = to_csv(reports) if args.format == "csv" else to_json(reports)
    if args.out:
        write_atomic(args.out, text)
    ok = all_passed(reports)
    print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if ok else 1


def _add_common(parser: argparse.ArgumentParser, config: bool = False) -> None:
    if config:
        parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfspace-qed",
        description="Field modes, commutator kernels and electrostatic energy "
        "identities near a dielectric half-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fresnel", help="Fresnel coefficient table over a (kpar, kz) grid")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--pol", choices=["TE", "TM", "both"], default="both")
    p.add_argument("--kpar", type=_parse_grid, default="0.2:2:5",
                   help="grid start:stop:count or comma list")
    p.add_argument("--kz", type=_parse_grid, default="0.2:2:5")
    _add_common(p)
    p.set_defaults(func=cmd_fresnel)

    p_modes = sub.add_parser("modes", help="mode-function utilities")
    sub_modes = p_modes.add_subparsers(dest="modes_command", required=True)
    p = sub_modes.add_parser("eval", help="mode components on a z-grid as CSV")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--side", choices=["L", "R"], default="R")
    p.add_argument("--pol", choices=["TE", "TM"], default="TM")
    p.add_argument("--kpar", type=_finite, required=True)
    p.add_argument("--klong", type=_finite_complex, required=True,
                   help="kz for side R (complex like 0.5j for evanescent), kzd for side L")
    p.add_argument("--zmin", type=_finite, default=-2.0)
    p.add_argument("--zmax", type=_finite, default=2.0)
    p.add_argument("--steps", type=_count, default=81)
    p.add_argument("--x", type=_finite, default=0.0)
    p.add_argument("--y", type=_finite, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_modes_eval)

    p_greens = sub.add_parser("greens", help="electrostatic Green's function utilities")
    sub_greens = p_greens.add_subparsers(dest="greens_command", required=True)
    p = sub_greens.add_parser("eval", help="G and grad grad' G along a line segment as CSV")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--variant", choices=[v.value for v in GreenVariant], default="full")
    p.add_argument("--source", type=_parse_vec3, required=True, help="source point x,y,z (z>0)")
    p.add_argument("--start", type=_parse_vec3, required=True)
    p.add_argument("--stop", type=_parse_vec3, required=True)
    p.add_argument("--steps", type=_count, default=21)
    _add_common(p)
    p.set_defaults(func=cmd_greens_eval)

    p_kernel = sub.add_parser("kernel", help="commutator kernel utilities")
    sub_kernel = p_kernel.add_subparsers(dest="kernel_command", required=True)
    p = sub_kernel.add_parser("verify", help="verify assembled kernels against closed forms")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in KernelKind] + [k.value.replace("_", "-") for k in KernelKind])
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--points", required=True, help="CSV of point pairs with header x,y,z,xp,yp,zp")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p, config=True)
    p.set_defaults(func=cmd_kernel_verify)

    p_energy = sub.add_parser("energy", help="electrostatic energy identities")
    sub_energy = p_energy.add_subparsers(dest="energy_command", required=True)
    p = sub_energy.add_parser("shift", help="second-order shift and ratio as JSON")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--z0", type=float, required=True)
    p.add_argument("--q", type=float, default=1.0)
    _add_common(p, config=True)
    p.set_defaults(func=cmd_energy_shift)
    p = sub_energy.add_parser("sweep", help="shift results over (n, z0) grids as CSV")
    p.add_argument("--n-grid", type=_parse_grid, default="1.5:4:3")
    p.add_argument("--z0-grid", type=_parse_grid, default="0.5:2:3")
    p.add_argument("--q", type=float, default=1.0)
    _add_common(p, config=True)
    p.set_defaults(func=cmd_energy_sweep)

    p = sub.add_parser("verify", help="run a verification suite and export check reports")
    p.add_argument("--suite", choices=list(SUITE_NAMES), default="all")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=_seed, default=42,
                   help="RNG seed of the sampled checks (default 42)")
    _add_common(p, config=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow in an integrand reaches the user once, as the
        # QuadratureError of its non-finite panel, not as numpy warnings first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:  # an integral that missed its tolerance
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
