#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python twin.

Covers the two kernels: maximal-independent-set enumeration on conflict
graphs (the setup cost of every exact solve) and the greedy scheduling
rounds.  A greedy pipeline (conflict-graph build, rounds, decoding,
validation, schedule JSON) spends most of its time outside the kernel,
so these timings compare backends only; speed claims for the package
come from the end-to-end benchmark in perfbench/.  Inputs mirror the experiment
campaigns: random 6-node networks at edge probability 0.5, plus the
fully-connected 6-node worst case.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import time

from mtrsched import _kernels_py as pure
from mtrsched.conflict import build_conflict_graph
from mtrsched.kernels import HWF, MDF
from mtrsched.model import Instance, gen_complete, _random_demands, _random_network

try:
    from mtrsched import _ckernels as compiled
except ImportError:
    compiled = None


def bench(fn, args_list, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(count=200, seed=1):
    rng = random.Random(seed)
    mis_args = []
    greedy_args = []
    for _ in range(count):
        net = _random_network(6, 0.5, rng)
        if not net.links:
            continue
        inst = Instance(net, _random_demands(net, 1, 10, False, rng))
        masks = list(build_conflict_graph(net).masks)
        mis_args.append((masks,))
        greedy_args.append((list(inst.demands), masks, HWF))
        greedy_args.append((list(inst.demands), masks, MDF))
    k6 = gen_complete(6)
    k6_masks = list(build_conflict_graph(k6).masks)
    mis_args.extend([(k6_masks,)] * 10)
    return mis_args, greedy_args


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions; best of N is reported")
    args = parser.parse_args()

    mis_args, greedy_args = workloads()
    rows = []
    for name, fn_pure, fn_comp, work in [
        ("maximal independent sets", pure.maximal_independent_sets,
         compiled.maximal_independent_sets if compiled else None, mis_args),
        ("greedy scheduling rounds", pure.greedy_rounds,
         compiled.greedy_rounds if compiled else None, greedy_args),
    ]:
        t_pure = bench(fn_pure, work, args.repeat)
        if fn_comp is None:
            rows.append((name, len(work), t_pure, None))
        else:
            t_comp = bench(fn_comp, work, args.repeat)
            for a in work:  # backends must agree before timing means anything
                if sorted_if_mis(name, fn_pure(*a)) != sorted_if_mis(name, fn_comp(*a)):
                    raise AssertionError(f"backend mismatch on {name}")
            rows.append((name, len(work), t_pure, t_comp))

    print(f"{'kernel':<28} {'calls':>6} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    for name, calls, t_pure, t_comp in rows:
        if t_comp is None:
            print(f"{name:<28} {calls:>6} {t_pure * 1e3:>8.2f}ms {'n/a':>10} {'n/a':>8}")
        else:
            print(f"{name:<28} {calls:>6} {t_pure * 1e3:>8.2f}ms "
                  f"{t_comp * 1e3:>8.2f}ms {t_pure / t_comp:>7.1f}x")
    if compiled is None:
        print("\ncompiled kernels not built; install with the extension to compare")


def sorted_if_mis(name, result):
    return sorted(result) if name.startswith("maximal") else result


if __name__ == "__main__":
    main()
