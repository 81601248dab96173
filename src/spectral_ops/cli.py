"""Command-line interface: verification suites, benchmark CSV sweeps, and
demo forward passes over FTNS inputs.

Exit codes: 0 success, 1 runtime/I-O failure (including failed verification),
2 usage error.  `SPECTRAL_OPS_SEED` overrides the default seed (42) used by
`init-model` and the benchmark data generators; a value that is not an
integer is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench, fit, verify
from .tensor import Rng, randn, read_tensor, write_tensor


def _default_seed() -> int:
    text = os.environ.get("SPECTRAL_OPS_SEED", "42")
    try:
        return int(text)
    except ValueError:
        message = f"SPECTRAL_OPS_SEED must be an integer, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    values = [_positive_int(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}")
    return values


def _seq_len_list(text: str) -> list[int]:
    values = _int_list(text)
    if min(values) < 32:  # bench_seq's gconv base kernel is 32 wide
        raise argparse.ArgumentTypeError(f"expected lengths >= 32, got {text!r}")
    return values


def cmd_verify(args) -> int:
    results = verify.run_suites([args.suite] if args.suite else None)
    width = max(len(f"{r.suite}/{r.check}") for r in results)
    for r in results:
        name = f"{r.suite}/{r.check}"
        status = "PASS" if r.passed else "FAIL"
        print(f"{name:<{width}}  max-err {r.max_err:9.3e}  tol {r.tol:9.3e}  {status}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_bench(args) -> int:
    seed = _default_seed()
    if args.bench_kind == "conv":
        rows = bench.bench_conv(args.image_sizes, args.kernel_sizes, repeats=args.repeats, seed=seed)
    elif args.bench_kind == "mixing":
        rows = bench.bench_mixing(args.seq_lens, args.dim, repeats=args.repeats, seed=seed)
    else:
        rows = bench.bench_seq(args.seq_lens, repeats=args.repeats, seed=seed)
    if args.out:
        with open(args.out, "w") as fh:
            bench.write_csv(rows, fh)
    else:
        bench.write_csv(rows, sys.stdout)
    return 0


def cmd_demo(args) -> int:
    model = fit.load_model(args.model)
    image = read_tensor(args.input)
    logits = fit.fit_forward(image, model)
    print("logits:", " ".join(f"{v:.6f}" for v in logits))
    print("argmax:", int(np.argmax(logits)))
    return 0


# init-model's int options: {FitConfig field: square}; the tuple fields are square sizes
_INIT_FIELDS = {f.name: isinstance(f.default, tuple) for f in fields(fit.FitConfig)
                if type(f.default) in (int, tuple)}


def cmd_init_model(args) -> int:
    config = fit.FitConfig(mixer=args.mixer, **{
        name: (getattr(args, name),) * 2 if square else getattr(args, name)
        for name, square in _INIT_FIELDS.items()
    })
    seed = args.seed if args.seed is not None else _default_seed()
    rng = Rng(seed)
    model = fit.init_fit_model(config, rng)
    fit.save_model(model, args.out)
    print(f"wrote model ({config.mixer} mixer, {fit.count_params(config)} params) to {args.out}")
    if args.sample_input:
        image = randn(rng, (config.in_chans, *config.img_size))
        write_tensor(image, args.sample_input)
        print(f"wrote sample input to {args.sample_input}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-ops",
        description="FFT-based numerical kernels: verification, benchmarks, demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run oracle-equivalence and invariant suites")
    p_verify.add_argument("--suite", choices=sorted(verify.SUITES), help="run one suite only")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="timing sweeps, CSV output")
    p_bench.set_defaults(func=cmd_bench)
    bench_sub = p_bench.add_subparsers(dest="bench_kind", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--repeats", type=_positive_int, default=5)
    common.add_argument("--out", type=Path, default=None)

    p_conv = bench_sub.add_parser("conv", parents=[common],
                                  help="direct vs FFT same-mode correlation")
    p_conv.add_argument("--image-sizes", type=_int_list, required=True)
    p_conv.add_argument("--kernel-sizes", type=_int_list, required=True)

    p_mix = bench_sub.add_parser("mixing", parents=[common],
                                 help="fourier vs attention token mixing")
    p_mix.add_argument("--seq-lens", type=_int_list, required=True)
    p_mix.add_argument("--dim", type=_positive_int, required=True)

    p_seq = bench_sub.add_parser("seq", parents=[common],
                                 help="ssm_kernel and bidirectional gconv_forward")
    p_seq.add_argument("--seq-lens", type=_seq_len_list, default=[1024, 4096, 16384, 65536],
                       help="lengths, each >= 32 (default: 1024,4096,16384,65536)")

    p_demo = sub.add_parser("demo", help="forward pass of a saved model on an FTNS input")
    p_demo.add_argument("--model", type=Path, required=True, help="model directory")
    p_demo.add_argument("--input", type=Path, required=True, help="FTNS image file")
    p_demo.set_defaults(func=cmd_demo)

    p_init = sub.add_parser("init-model", help="write a seeded model directory for demo")
    p_init.add_argument("--out", type=Path, required=True)
    defaults = fit.FitConfig()
    p_init.add_argument("--mixer", choices=fit.MIXERS, default=defaults.mixer)
    for name, square in _INIT_FIELDS.items():
        value = getattr(defaults, name)
        p_init.add_argument(f"--{name.replace('_', '-')}", type=int,
                            default=value[0] if square else value)
    p_init.add_argument("--seed", type=int, default=None, help="default: SPECTRAL_OPS_SEED or 42")
    p_init.add_argument("--sample-input", type=Path, default=None,
                        help="also write a seeded random input image here")
    p_init.set_defaults(func=cmd_init_model)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # a malformed SPECTRAL_OPS_SEED
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
