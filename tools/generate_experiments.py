#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Every artifact is dispatched through the experiment registry
(`repro.eval.registry`), so this script benefits from the fleet engine:
point `REPRO_CACHE_DIR` at a directory and pass `--workers N` and the
multi-walk figures fan out over worker processes against a warm cache.

Run from the repository root:
    python tools/generate_experiments.py [--workers N] > EXPERIMENTS.md
"""

import argparse

import numpy as np

from repro.energy import gps_saving_factor
from repro.eval.registry import run_experiment
from repro.eval.setup import SCHEME_NAMES
from repro.world import EnvironmentType as Env


def stats(result, est):
    errors = result.errors(est)
    if not errors:
        return None
    return (
        float(np.mean(errors)),
        float(np.percentile(errors, 50)),
        float(np.percentile(errors, 90)),
    )


def fmt(x, digits=2):
    return "n/a" if x is None else f"{x:.{digits}f}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=1)
    workers = parser.parse_args().workers
    print("# EXPERIMENTS — paper vs. this reproduction\n")
    print(
        "Generated by `python tools/generate_experiments.py` (seed 0). "
        "Absolute numbers come from the simulated substrate; the paper's\n"
        "numbers come from real phones on a real campus, so only the "
        "*shape* — which system wins, by roughly what factor — is expected\n"
        "to transfer.  Every relation below is asserted by the "
        "corresponding file in `benchmarks/`.\n"
    )

    # ---- Fig 2 ----
    rows = run_experiment("fig2")
    segs = [Env.OFFICE, Env.CORRIDOR, Env.BASEMENT, Env.CAR_PARK, Env.OPEN_SPACE]
    print("## Figure 2 — motivation: scheme diversity along the daily path\n")
    print(
        "Paper: no scheme is stable across the 320 m path; Wi-Fi/GPS die in "
        "the basement where cellular helps; schemes complement each other.\n"
    )
    print("| scheme | " + " | ".join(e.value for e in segs) + " |")
    print("|---|" + "---|" * len(segs))
    for scheme in SCHEME_NAMES:
        cells = []
        for env in segs:
            vals = [r.errors[scheme] for r in rows if r.environment is env and scheme in r.errors]
            cells.append(fmt(float(np.mean(vals)) if vals else None, 1))
        print(f"| {scheme} | " + " | ".join(cells) + " |")
    winners = {min(r.errors, key=r.errors.get) for r in rows if r.errors}
    print(f"\nDistinct per-location winners along the path: {sorted(winners)}.\n")

    # ---- Table II ----
    print("## Table II — error-model fits\n")
    print(
        "Paper: >=2 significant factors per scheme (p<0.05); residual means "
        "~0; GPS outdoor model = 13.5 m +/- 9.4 m intercept-only.\n"
    )
    print("| scheme | ctx | beta | p | sigma_e | R2 | n |")
    print("|---|---|---|---|---|---|---|")
    for scheme, ctxs in run_experiment("table2").items():
        for ctx, s in ctxs.items():
            beta = ", ".join(f"{b:.3f}" for b in s.coefficients)
            pvals = ", ".join(f"{p:.3f}" for p in s.p_values)
            print(
                f"| {scheme} | {ctx} | {beta} | {pvals} | "
                f"{s.residual_std:.2f} | {s.r_squared:.2f} | {s.n_samples} |"
            )

    # ---- Table III ----
    print("\n## Table III — normalized RMSE of online error prediction\n")
    print("Paper: ~0.49 same place/device, degrading to ~0.76 in new places with a new device.\n")
    print("| condition | " + " | ".join(SCHEME_NAMES) + " | avg |")
    print("|---|" + "---|" * (len(SCHEME_NAMES) + 1))
    for cond, per in run_experiment("table3", workers=workers).items():
        cells = [fmt(per.get(s)) for s in SCHEME_NAMES]
        avg = fmt(float(np.mean(list(per.values()))) if per else None)
        print(f"| {cond} | " + " | ".join(cells) + f" | {avg} |")

    # ---- Fig 3/5/6 ----
    pooled = run_experiment("fig5", workers=workers)
    single = run_experiment("fig3")
    print("\n## Figures 3, 5, 6 — the daily path under UniLoc\n")
    print(
        "Paper (Fig. 6): fusion 4.0 m (best scheme), UniLoc1 3.7 m, "
        "UniLoc2 2.6 m (1.5-1.7x gain).  Measured (pooled over 3 walks):\n"
    )
    print("| system | mean | p50 | p90 |")
    print("|---|---|---|---|")
    for est in list(SCHEME_NAMES) + ["optsel", "uniloc1", "uniloc2"]:
        s = stats(pooled, est)
        if s:
            print(f"| {est} | {fmt(s[0])} | {fmt(s[1])} | {fmt(s[2])} |")
    best = min(s for s in (stats(pooled, e) for e in SCHEME_NAMES) if s)[0]
    fusion_mean = stats(pooled, "fusion")[0]
    u2 = stats(pooled, "uniloc2")[0]
    print(
        f"\nUniLoc2 vs the fusion scheme (the paper's comparison): "
        f"**{fusion_mean / u2:.2f}x** (paper: 1.5-1.7x); vs the best "
        f"individual scheme: **{best / u2:.2f}x**."
    )
    wins = sum(
        1
        for r in single.records
        if r.uniloc2_error is not None and r.oracle and r.uniloc2_error < r.oracle.error
    )
    print(
        f"UniLoc2 beats the OptSel oracle at {wins / len(single.records):.0%} of "
        "locations (paper Fig. 3: 'at many locations'); our oracle is stronger "
        "than the paper's because the simulator's per-location best scheme is "
        "better — see the deviation note below."
    )
    print("\nUniLoc1 scheme usage vs oracle (Fig. 5):\n")
    u1 = pooled.usage("uniloc1")
    opt = pooled.usage("optsel")
    print("| scheme | uniloc1 | optsel |")
    print("|---|---|---|")
    for s in SCHEME_NAMES:
        print(f"| {s} | {u1.get(s, 0):.0%} | {opt.get(s, 0):.0%} |")

    # ---- Fig 7 ----
    print("\n## Figure 7 — eight daily paths (2.78 km)\n")
    print(
        "Paper: UniLoc2 reduces fusion's median by 1.6x; p90 5.8 m vs "
        "RADAR 10.6 m and motion/fusion 15.3 m.\n"
    )
    r7 = run_experiment("fig7", workers=workers)
    print("| system | mean | p50 | p90 |")
    print("|---|---|---|---|")
    for est in list(SCHEME_NAMES) + ["uniloc1", "uniloc2"]:
        s = stats(r7, est)
        if s:
            print(f"| {est} | {fmt(s[0])} | {fmt(s[1])} | {fmt(s[2])} |")

    # ---- Fig 8 ----
    print("\n## Figure 8a-c — new places\n")
    print(
        "Paper: ~1.7x gain vs individual schemes in the mall and urban open "
        "space (error models trained elsewhere); office best overall; mall "
        "cellular crippled by its two audible towers.\n"
    )
    for name, place in (("fig8a", "mall"), ("fig8b", "urban-open-space"), ("fig8c", "office")):
        r8 = run_experiment(name, workers=workers)
        print(f"**{place}**\n")
        print("| system | mean | p50 | p90 |")
        print("|---|---|---|---|")
        for est in list(SCHEME_NAMES) + ["uniloc1", "uniloc2"]:
            s = stats(r8, est)
            if s:
                print(f"| {est} | {fmt(s[0])} | {fmt(s[1])} | {fmt(s[2])} |")
        print()

    # ---- Fig 8d ----
    print("## Figure 8d — heterogeneous devices\n")
    print(
        "Paper: online RSSI offset calibration recovers most of the accuracy "
        "lost by switching to an LG G3 (1.9x at p90 for large errors).\n"
    )
    het = run_experiment("fig8d")
    print("| condition | RADAR mean | RADAR p90 | UniLoc2 mean |")
    print("|---|---|---|---|")
    for label, result in het.items():
        wifi = stats(result, "wifi")
        u2s = stats(result, "uniloc2")
        print(f"| {label} | {fmt(wifi[0])} | {fmt(wifi[2])} | {fmt(u2s[0])} |")

    # ---- Table IV ----
    print("\n## Table IV — power and energy (daily path)\n")
    print(
        "Paper: motion-based PDR cheapest; UniLoc +14% over it; GPS duty "
        "cycling saves 2.1x outdoors; transmissions negligible.\n"
    )
    print("| system | power (mW) | energy (J) |")
    print("|---|---|---|")
    reports = {r.system: r for r in run_experiment("table4")}
    for name, rep in reports.items():
        print(f"| {name} | {rep.power_mw:.0f} | {rep.energy_j:.1f} |")
    overhead = reports["uniloc"].energy_j / reports["motion"].energy_j - 1
    saving = gps_saving_factor(run_experiment("fig3"))
    saving_txt = "unbounded (never powered)" if saving == float("inf") else f"{saving:.1f}x"
    print(f"\nUniLoc overhead over PDR: **{overhead:.1%}** (paper 14%). ")
    print(f"GPS duty-cycling saving: **{saving_txt}** (paper 2.1x).")

    # ---- Table V ----
    bt = run_experiment("table5")
    print("\n## Table V — response time\n")
    print(
        f"Modeled total **{bt.total_ms:.1f} ms** (paper ~120 ms), "
        f"transmissions **{bt.transmission_fraction:.0%}** (paper 73%), "
        f"UniLoc's own additions **{bt.uniloc_added_ms:.1f} ms** "
        "(paper 6.1 ms; measured in this implementation: ~1-2 ms, see "
        "benchmarks/test_table5_response_time.py)."
    )

    # ---- Deviations ----
    print(
        """
## Known deviations from the paper

1. **Substrate is a simulator** — every absolute error/energy value is a
   model output, calibrated to land in the paper's ranges.
2. **OptSel is stronger here** (mean ~1.7 m vs the paper's ~3.6 m on the
   daily path): our five simulated schemes are more dispersed per
   location, so the per-location minimum is lower.  Consequently UniLoc2
   beats OptSel only at a minority of locations rather than on average.
3. **GPS duty cycling never powers GPS on the campus paths**: the fusion
   scheme's predicted error stays below 13.5 m, so the §IV-C policy keeps
   the chip off — strictly more energy saving than the paper's 2.1x, but
   it means GPS contributes to accuracy only when duty cycling is
   disabled (as in the Fig. 2 motivation runs).
4. **UniLoc1 only ties the best individual scheme** on some runs rather
   than consistently edging it; its selections still track the oracle's
   distribution (Fig. 5 bench).
5. **Cellular fingerprinting** uses a temporal-continuity window (standard
   practice) — without it, errors in large places are unbounded and no
   ensemble weighting survives; the paper does not describe this detail.
"""
    )


if __name__ == "__main__":
    main()
