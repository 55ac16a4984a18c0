"""The benchmark's workloads: fixed lists of idlaws CLI invocations.

Each call pairs the CLI arguments with the closed-form check of its
artifacts. The runner adds --out (and, for simulate, --cf-out and the
workload seed as --seed). README.md gives the reason for each workload.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from typing import Callable

import checks

CP_SYM = "bench/laws/cp-sym.json"
CP_SKEW = "bench/laws/cp-skew.json"


@dataclass(frozen=True)
class Call:
    args: str
    check: Callable

    @property
    def verb(self) -> str:
        return self.args.split()[0]

    @property
    def opts(self) -> dict:
        """Options as given, --t-max 81 -> {"t_max": "81"}."""
        words = shlex.split(self.args)[1:]
        return {k[2:].replace("-", "_"): v for k, v in zip(words[::2], words[1::2])}

    def argv(self, out_dir: str, index: int, seed: int) -> tuple:
        """Full CLI argv and the artifact paths it writes (--out first)."""
        ext = "csv" if self.verb in ("eval", "simulate") else "json"
        out = f"{out_dir}/{index:02d}-{self.verb}.{ext}"
        argv = shlex.split(self.args) + ["--out", out]
        artifacts = [out]
        if self.verb == "simulate":
            cf_out = f"{out_dir}/{index:02d}-simulate-cf.csv"
            argv += ["--cf-out", cf_out, "--seed", str(seed)]
            artifacts.append(cf_out)
        return argv, artifacts


def workloads() -> dict:
    """Workload name -> tuple of Calls, in the order they run.

    Calls marked "coverage" are not part of a workload's theme. They are
    small, and they make every verb and every traced function run on every
    workload, so each metric is defined and non-zero everywhere.
    """
    gauss, pois = checks.gaussian(0.0, 1.0), checks.poisson(1.0, 1.0)
    sym, skew = checks.law_file(CP_SYM), checks.law_file(CP_SKEW)
    return {
        "atomic-scale": (
            Call("invert --catalog poisson:1,1", checks.invert_atoms(pois)),
            Call("invert --catalog gaussian:0,1", checks.invert_atoms(gauss)),
            Call(f"invert --law {CP_SKEW}", checks.invert_atoms(skew)),
            Call("eval --catalog poisson:1,1 --t-max 81 --points 32401", checks.eval_grid(pois.log_cf, checks.EVAL_TOL)),
            Call(f"verify-id --law {CP_SKEW} --t-max 40 --points 8001", checks.verify_passes),
            Call(
                "simulate --catalog poisson:1,1 --epsilon 0.5 --horizon 10 --steps 1000 --paths 40",
                checks.simulate_invariants(integer_paths=True),
            ),
            # coverage
            Call(f"convert --law {CP_SKEW} --to kolmogorov", checks.convert_atoms(skew, "kolmogorov")),
            Call(f"convert --law {CP_SKEW} --to levy", checks.convert_atoms(skew, "levy")),
            Call(f"approx-cp --law {CP_SKEW} --epsilons 0.5,0.1", checks.approx_atoms(skew)),
        ),
        "heavy-tail": (
            Call("eval --catalog cauchy:1 --points 21", checks.eval_grid(checks.cauchy_log_cf(1.0), checks.CAUCHY_EVAL_TOL)),
            Call("approx-cp --catalog cauchy:1 --epsilons 0.5,0.1,0.02", checks.approx_cauchy(1.0)),
            Call(
                "simulate --catalog cauchy:1 --epsilon 0.02 --horizon 1 --steps 200 --paths 40",
                checks.simulate_invariants(integer_paths=False),
            ),
            Call("convert --catalog cauchy:1 --to lk", checks.convert_cauchy_lk(1.0)),
            # coverage; cauchy:1 has no Kolmogorov or Levy form the CLI can
            # write, and inverting it needs thousands of 0.3 s t points
            Call("verify-id --catalog cauchy:1 --t-max 6 --points 7", checks.verify_passes),
            Call("convert --catalog poisson:1,1 --to kolmogorov", checks.convert_atoms(pois, "kolmogorov")),
            Call(f"convert --law {CP_SYM} --to levy", checks.convert_atoms(sym, "levy")),
            Call("invert --catalog gaussian:0,1 --t-span 40 --t-step 0.01", checks.invert_atoms(gauss)),
        ),
    }
