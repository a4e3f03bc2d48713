"""Command-line front end.

Subcommands: spectrum, scan, blocks, verify, thermo, gen-fixture.
Exit codes: 0 success / verification pass, 1 verification failure,
2 usage, model or limit errors and any unexpected internal error. All
output is deterministic for fixed arguments and seed (CSV: 12 significant
digits, LF endings).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import replace

from . import analysis
from .analysis import VerificationReport
from .basis import decompose_blocks, enumerate_sector
from .errors import FluxRingError
from .fixtures import FIXTURE_NAMES, base_seed, gen_fixture, reseed_hoppings
from .model import INFINITY, ModelSpec, load_model, parse_angle, save_model, with_flux
from .operators import build_hamiltonian, build_total_spin, flux_family
from .spectra import ground, log_partition_scan


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _load(args) -> ModelSpec:
    spec = load_model(args.model)
    if getattr(args, "phi", None) is not None:
        spec = with_flux(spec, parse_angle(args.phi))
    return spec


def cmd_spectrum(args) -> int:
    spec = _load(args)
    spec = replace(spec, N=args.nup + args.ndown,
                   U=(INFINITY,) * spec.L if args.hardcore else spec.U)
    basis = enumerate_sector(spec.L, spec.N, args.nup - args.ndown, spec.hardcore)
    method = "dense" if args.dense else ("lanczos" if args.lanczos else "auto")
    info = ground(build_hamiltonian(spec, basis), method=method)
    gap = info.gap if math.isfinite(info.gap) else None
    _emit(_json_text({
        "energy": info.energy,
        "degeneracy": info.degeneracy,
        "gap": gap,
        "spin_content": sorted(info.spins(build_total_spin(basis))),
    }), args.out)
    return 0


def cmd_scan(args) -> int:
    spec = _load(args)
    family = flux_family(spec, analysis.sector_basis_for(spec, args.two_sz))
    energies = analysis.scan_flux(family, grid_size=args.grid)
    lines = ["phi,energy"]
    lines += [f"{_fmt(p)},{_fmt(v)}" for p, v in zip(analysis.flux_grid(args.grid), energies)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_blocks(args) -> int:
    spec = _load(args)
    basis = enumerate_sector(spec.L, spec.N, args.two_sz if args.two_sz is not None
                             else spec.N % 2, hardcore=True)
    blocks = decompose_blocks(basis)
    _emit(_json_text([
        {"period": b.period, "dimension": b.dimension, "representative": b.representative}
        for b in blocks
    ]), args.out)
    return 0


_VERIFIERS = {
    "even": lambda spec, args: analysis.verify_even(spec, grid_size=args.grid),
    "odd": lambda spec, args: analysis.verify_odd(spec, grid_size=args.grid),
    "doubling": lambda spec, args: analysis.verify_doubling(spec, grid_size=args.grid),
    "singlet": lambda spec, args: analysis.verify_singlet(spec),
    "relation": lambda spec, args: analysis.verify_relation(spec),
    "spiral": lambda spec, args: analysis.spiral_state(spec)[1],
    "blocks": lambda spec, args: analysis.verify_block_lemma(spec, grid_size=args.grid),
    "thermo": lambda spec, args: analysis.thermal_scan(
        spec, betas=tuple(args.beta) if args.beta else (0.5, 1.0, 2.0),
        grid_size=args.grid),
}


def cmd_verify(args) -> int:
    spec = _load(args)
    runner = _VERIFIERS[args.claim]
    reports: list[VerificationReport] = [runner(spec, args)]
    seed0 = base_seed()
    for k in range(args.seeds):
        reports.append(runner(reseed_hoppings(spec, seed0 + k + 1), args))
    passed = all(r.passed for r in reports)
    payload = reports[0].to_dict() if len(reports) == 1 else {
        "claim": reports[0].claim,
        "passed": passed,
        "instances": [r.to_dict() for r in reports],
    }
    _emit(_json_text(payload), args.out)
    return 0 if passed else 1


def cmd_thermo(args) -> int:
    spec = _load(args)
    betas = tuple(args.beta) if args.beta else (0.5, 1.0, 2.0)
    grid = analysis.flux_grid(args.grid)
    family = flux_family(spec, analysis.sector_basis_for(spec, args.two_sz))
    log_p = log_partition_scan(family, grid, betas)
    lines = ["phi,beta,log_partition"]
    for beta, row in zip(betas, log_p):
        lines += [f"{_fmt(phi)},{_fmt(beta)},{_fmt(lp)}" for phi, lp in zip(grid, row)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen_fixture(args) -> int:
    spec = gen_fixture(args.name, seed=args.seed, L=args.L, N=args.N, t=args.t)
    if args.out:
        save_model(spec, args.out)
    else:
        from .model import dumps_model

        sys.stdout.write(dumps_model(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fluxring",
                                description="Exact diagonalization of flux-threaded Hubbard rings")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model(sp, phi=True):
        sp.add_argument("--model", required=True, help="model JSON file")
        if phi:
            sp.add_argument("--phi", help="override flux (radians or 'p/q pi')")

    sp = sub.add_parser("spectrum", help="ground data of one sector")
    add_model(sp)
    sp.add_argument("--nup", type=int, required=True)
    sp.add_argument("--ndown", type=int, required=True)
    sp.add_argument("--hardcore", action="store_true")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--dense", action="store_true")
    group.add_argument("--lanczos", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("scan", help="ground energy over a flux grid (CSV)")
    add_model(sp, phi=False)
    sp.add_argument("--grid", type=int, default=720)
    sp.add_argument("--two-sz", type=int, default=None, dest="two_sz")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("blocks", help="hard-core block decomposition (JSON)")
    add_model(sp, phi=False)
    sp.add_argument("--two-sz", type=int, default=None, dest="two_sz")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_blocks)

    sp = sub.add_parser("verify", help="run one claim verifier")
    sp.add_argument("claim", choices=sorted(_VERIFIERS))
    add_model(sp)
    sp.add_argument("--seeds", type=int, default=0,
                    help="additionally verify this many random-hopping variants")
    sp.add_argument("--grid", type=int, default=120)
    sp.add_argument("--beta", type=float, action="append")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("thermo", help="partition function over a flux grid (CSV)")
    add_model(sp, phi=False)
    sp.add_argument("--beta", type=float, action="append")
    sp.add_argument("--grid", type=int, default=90)
    sp.add_argument("--two-sz", type=int, default=None, dest="two_sz")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_thermo)

    sp = sub.add_parser("gen-fixture", help="write a deterministic model file")
    sp.add_argument("name", choices=FIXTURE_NAMES)
    sp.add_argument("--L", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--t", type=float, default=50.0)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen_fixture)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built once per process: building it
    costs about 1 ms, and in-process callers run many commands. Each parse
    starts from a fresh namespace, so no call sees another's options."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FluxRingError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"fluxring: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means the claim failed; a crash must not read as one
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"fluxring: internal error: {type(exc).__name__} at "
              f"{os.path.basename(where.filename)}:{where.lineno}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
