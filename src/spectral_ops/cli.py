"""Command-line interface: verification suites, benchmark CSV sweeps, and
demo forward passes over FTNS inputs.

Exit codes: 0 success, 1 runtime/I-O failure (including failed verification),
2 usage error.  `SPECTRAL_OPS_SEED` overrides the default seed (42) used by
`init-model` and the benchmark data generators.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import bench, fit, verify
from .tensor import Rng, randn, read_tensor, write_tensor


def _default_seed() -> int:
    return int(os.environ.get("SPECTRAL_OPS_SEED", "42"))


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"sizes must be positive integers, got {text!r}")
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


def cmd_init_model(args) -> int:
    config = fit.FitConfig(
        img_size=(args.img_size, args.img_size),
        patch_size=(args.patch_size, args.patch_size),
        in_chans=args.in_chans,
        embed_dim=args.embed_dim,
        dim_feedforward=args.dim_feedforward,
        depth=args.depth,
        num_classes=args.num_classes,
        num_heads=args.num_heads,
        mixer=args.mixer,
    )
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
    common.add_argument("--repeats", type=int, default=5)
    common.add_argument("--out", type=Path, default=None)

    p_conv = bench_sub.add_parser("conv", parents=[common],
                                  help="direct vs FFT same-mode correlation")
    p_conv.add_argument("--image-sizes", type=_int_list, required=True)
    p_conv.add_argument("--kernel-sizes", type=_int_list, required=True)

    p_mix = bench_sub.add_parser("mixing", parents=[common],
                                 help="fourier vs attention token mixing")
    p_mix.add_argument("--seq-lens", type=_int_list, required=True)
    p_mix.add_argument("--dim", type=int, required=True)

    p_seq = bench_sub.add_parser("seq", parents=[common],
                                 help="ssm_kernel and bidirectional gconv_forward")
    p_seq.add_argument("--seq-lens", type=_int_list, default=[1024, 4096, 16384, 65536],
                       help="lengths, each >= 32 (default: 1024,4096,16384,65536)")

    p_demo = sub.add_parser("demo", help="forward pass of a saved model on an FTNS input")
    p_demo.add_argument("--model", type=Path, required=True, help="model directory")
    p_demo.add_argument("--input", type=Path, required=True, help="FTNS image file")
    p_demo.set_defaults(func=cmd_demo)

    p_init = sub.add_parser("init-model", help="write a seeded model directory for demo")
    p_init.add_argument("--out", type=Path, required=True)
    p_init.add_argument("--mixer", choices=fit.MIXERS, default="fourier")
    p_init.add_argument("--img-size", type=int, default=32)
    p_init.add_argument("--patch-size", type=int, default=4)
    p_init.add_argument("--in-chans", type=int, default=3)
    p_init.add_argument("--embed-dim", type=int, default=64)
    p_init.add_argument("--dim-feedforward", type=int, default=128)
    p_init.add_argument("--depth", type=int, default=2)
    p_init.add_argument("--num-classes", type=int, default=10)
    p_init.add_argument("--num-heads", type=int, default=4)
    p_init.add_argument("--seed", type=int, default=None, help="default: SPECTRAL_OPS_SEED or 42")
    p_init.add_argument("--sample-input", type=Path, default=None,
                        help="also write a seeded random input image here")
    p_init.set_defaults(func=cmd_init_model)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
