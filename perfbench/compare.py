#!/usr/bin/env python3
"""Repeat, summarise and compare runs of the perfbench benchmark.

Run from the repository root:

  python3 perfbench/compare.py run --workload W --seeds 1-10 --out A.jsonl
      [--seconds S]
      Run perfbench/run.py once per seed; append one JSON record per run.

  python3 perfbench/compare.py spread A.jsonl
      Per metric: median and (Q3 - Q1) / median over the runs, next to the
      bound in BENCHMARK.json. This is the steadiness rule the bounds are
      set against: every spread but setup_s's must stay within its bound.

  python3 perfbench/compare.py diff A.jsonl B.jsonl
      Pair runs by seed and flag each metric that got worse: the median
      paired change must be worse than 2% and the
      bootstrap 95% interval of that median must exclude zero. Simulated
      metrics must match exactly per seed. Exit 1 when anything is flagged.
      A metric is marked GAIN only when B wins at least nine tenths of the
      pairs and the medians differ by more than A's own quartile spread.

  python3 perfbench/compare.py pair --a ROOT_A --b ROOT_B --workload W
      [--seeds 1-10] [--out PREFIX]
      A/B of two checkouts (e.g. parent and change). Builds each one's
      benchmark, then per seed runs the two in lockstep: one process's
      window, then the other's, so a shared host's drift hits both alike.
      Which side starts alternates by seed. Prints the diff of B against A.

  python3 perfbench/compare.py selfcheck --workload W [--seeds 1-8]
      Sensitivity self-check of this checkout. Per seed, a lockstep pair
      (A, B) with B busy-waiting 5% of every timed window, and a lockstep
      pair (A, A') of the same code. Passes when the diff flags B's
      host-time metrics and flags nothing between A and A'.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Smallest median paired change diff() flags, and the slowdown selfcheck
# injects (the benchmark must resolve a 5% slowdown).
MIN_CHANGE = 0.02
SELFCHECK_SLOWDOWN = 0.05
# Deterministic per seed: compared exactly, never by ratio.
SIMULATED = {"mnm_coverage_pct", "access_cycles_per_req"}
HOST_TIME = ("sim_instr_per_s", "window_ms_p10")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (done.returncode,
                                               " ".join(cmd)))
    result = json.loads(lines[-1])
    fingerprint = next((l for l in lines if l.startswith("fingerprint:")),
                       "")
    return {"workload": workload, "seed": seed,
            "fingerprint": fingerprint, "result": result}


def build_exe(root):
    """Build the benchmark of the checkout at @root; return its path."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree
    done = subprocess.run([sys.executable,
                           os.path.join(root, "perfbench", "run.py"),
                           "--build-only"], cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("build failed in " + root)
    return done.stdout.strip().splitlines()[-1]


def run_pair(exes, workload, seed, seconds, injects, first):
    """Run exes[0] and exes[1] in lockstep; return their two records."""
    token = [os.pipe(), os.pipe()]  # token[i] is read by side i
    procs = []
    for i in (0, 1):
        rfd, wfd = token[i][0], token[1 - i][1]
        cmd = [exes[i], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--lockstep-in", str(rfd), "--lockstep-out", str(wfd)]
        if injects[i]:
            cmd += ["--inject-slowdown", str(injects[i])]
        procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                      text=True, pass_fds=(rfd, wfd),
                                      cwd=ROOT))
    os.write(token[first][1], b"t")
    for rfd, wfd in token:
        os.close(rfd)
        os.close(wfd)
    recs = []
    for i, proc in enumerate(procs):
        out, _ = proc.communicate()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("lockstep run failed (exit %d): %s seed %d"
                     % (proc.returncode, exes[i], seed))
        recs.append({"workload": workload, "seed": seed,
                     "inject": injects[i], "result": json.loads(lines[-1])})
    return recs


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(records):
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(vals, n=4)
    return med, (q[2] - q[0]) / abs(med)


def cmd_spread(args):
    _, spec = load_spec()
    records = read_jsonl(args.file)
    ok = True
    print("%d runs of %s" % (len(records),
                             ",".join(sorted({r["workload"]
                                              for r in records}))))
    for name, vals in sorted(values(records).items()):
        med, sp = spread(vals)
        bound = spec.get(name, {}).get("bound")
        mark = ""
        if bound is not None and name != "setup_s":
            mark = "ok" if sp <= bound / 3 else (
                "within bound" if sp <= bound else "OVER BOUND")
            ok &= sp <= bound
        print("  %-30s median %-14.6g spread %.4f  bound %-5s %s"
              % (name, med, sp, bound, mark))
    return 0 if ok else 1


def worse_change(name, a, b, spec):
    """Relative change of b against a, positive when b is worse."""
    change = (b - a) / a if a else 0.0
    return -change if spec[name]["better"] == "higher" else change


def bootstrap_median_ci(xs, rounds=4000, seed=12345):
    rng = random.Random(seed)
    meds = sorted(statistics.median(rng.choices(xs, k=len(xs)))
                  for _ in range(rounds))
    return meds[int(0.025 * rounds)], meds[int(0.975 * rounds) - 1]


def diff(a_recs, b_recs):
    """Return the metrics flagged as worse in b than in a."""
    _, spec = load_spec()
    a_by = {r["seed"]: r["result"]["metrics"] for r in a_recs}
    b_by = {r["seed"]: r["result"]["metrics"] for r in b_recs}
    seeds = sorted(set(a_by) & set(b_by))
    if not seeds:
        sys.exit("no seed appears in both sets")
    flagged = []
    for name in sorted(a_by[seeds[0]]):
        if name not in spec or "better" not in spec[name]:
            continue
        pairs = [(a_by[s][name]["value"], b_by[s][name]["value"])
                 for s in seeds if name in b_by[s]]
        if name in SIMULATED:
            same = all(x == y for x, y in pairs)
            if not same:
                flagged.append(name)
            print("  %-30s %s" % (name, "identical per seed" if same
                                  else "DIFFERS"))
            continue
        changes = [worse_change(name, x, y, spec) for x, y in pairs]
        med = statistics.median(changes)
        lo, hi = bootstrap_median_ci(changes)
        worse = name != "setup_s" and med > MIN_CHANGE and lo > 0
        a_med, a_spread = spread([x for x, _ in pairs])
        b_med = statistics.median([y for _, y in pairs])
        gain = (sum(c < 0 for c in changes) >= 0.9 * len(changes)
                and abs(b_med - a_med) > a_spread * abs(a_med))
        if worse:
            flagged.append(name)
        print("  %-30s worse by %+7.2f%%  95%% CI [%+.2f%%, %+.2f%%]%s"
              % (name, 100 * med, 100 * lo, 100 * hi,
                 "  FLAGGED" if worse else "  GAIN" if gain else ""))
    return flagged


def cmd_run(args):
    with open(args.out, "a") as f:
        for seed in parse_seeds(args.seeds):
            rec = run_once(args.workload, seed, args.seconds)
            f.write(json.dumps(rec) + "\n")
            f.flush()
            print("seed %d done" % seed, file=sys.stderr)
    return 0


def cmd_diff(args):
    flagged = diff(read_jsonl(args.a), read_jsonl(args.b))
    print("flagged: %s" % (", ".join(flagged) or "nothing"))
    return 1 if flagged else 0


def write_jsonl(path, recs):
    with open(path, "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in recs)


def cmd_pair(args):
    exes = [build_exe(os.path.abspath(args.a)),
            build_exe(os.path.abspath(args.b))]
    a, b = [], []
    for n, seed in enumerate(parse_seeds(args.seeds)):
        ra, rb = run_pair(exes, args.workload, seed, args.seconds, (0, 0),
                          n % 2)
        a.append(ra)
        b.append(rb)
        print("seed %d done" % seed, file=sys.stderr)
    if args.out:
        write_jsonl(args.out + ".A.jsonl", a)
        write_jsonl(args.out + ".B.jsonl", b)
    flagged = diff(a, b)
    print("flagged: %s" % (", ".join(flagged) or "nothing"))
    return 1 if flagged else 0


def cmd_selfcheck(args):
    exe = build_exe(ROOT)
    sets = {"A": [], "B": [], "A1": [], "A2": []}
    for n, seed in enumerate(parse_seeds(args.seeds)):
        ra, rb = run_pair((exe, exe), args.workload, seed, args.seconds,
                          (0, SELFCHECK_SLOWDOWN), n % 2)
        r1, r2 = run_pair((exe, exe), args.workload, seed, args.seconds,
                          (0, 0), n % 2)
        for name, rec in zip(sets, (ra, rb, r1, r2)):
            sets[name].append(rec)
        print("seed %d done" % seed, file=sys.stderr)
    if args.out:
        for name, recs in sets.items():
            write_jsonl("%s.%s.jsonl" % (args.out, name), recs)
    print("A vs A' (same code, lockstep):")
    aa = diff(sets["A1"], sets["A2"])
    print("A vs B (%.0f%% injected slowdown, lockstep):"
          % (100 * SELFCHECK_SLOWDOWN))
    ab = diff(sets["A"], sets["B"])
    caught = [m for m in HOST_TIME if m in ab]
    print("A/A flagged: %s" % (", ".join(aa) or "nothing"))
    print("A/B flagged: %s" % (", ".join(ab) or "nothing"))
    passed = not aa and len(caught) == len(HOST_TIME)
    print("selfcheck: %s" % ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--seconds", type=int, default=None)
    r.add_argument("--out", required=True)

    s = sub.add_parser("spread")
    s.add_argument("file")

    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")

    p = sub.add_parser("pair")
    p.add_argument("--a", required=True, help="checkout root of side A")
    p.add_argument("--b", required=True, help="checkout root of side B")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="write the sides to <prefix>.{A,B}.jsonl")

    c = sub.add_parser("selfcheck")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-8")
    c.add_argument("--seconds", type=int, default=None)
    c.add_argument("--out", default=None,
                   help="write the four sets to <prefix>.{A,B,A1,A2}.jsonl")

    args = ap.parse_args()
    if getattr(args, "seconds", 0) is None:
        args.seconds = load_spec()[0]["run_seconds"]
    return {"run": cmd_run, "spread": cmd_spread, "diff": cmd_diff,
            "pair": cmd_pair, "selfcheck": cmd_selfcheck}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
