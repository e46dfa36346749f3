#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` under the working directory), runs the binary with
the same arguments and forwards its output; the last stdout line is the
JSON result. `--workload all` runs every workload in turn, prints a table
of every metric with its unit and writes `.bench_out/summary-*.json`.
See perfbench/NOTES.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["prove_gtf2_n4", "prove_gtf2_n4_par2", "synth_bakery3", "resume_chain"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no crates/ next to {HERE}: run from a full checkout of the repository")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's own output goes to stderr so stdout stays the result line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})", done.returncode or 2)
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary missing at {binary}")
    return binary


def run_one(binary, args):
    """Run the binary, forward stderr live, return its stdout lines."""
    proc = subprocess.Popen([binary, *args], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        fail(f"perfbench {' '.join(args)} exited {proc.returncode}", proc.returncode)
    return out.splitlines()


def run_all(binary, args):
    """`--workload all`: every workload in turn, then a table and a summary."""
    i = args.index("--workload")
    results = {}
    for w in WORKLOADS:
        lines = run_one(binary, args[:i + 1] + [w] + args[i + 2:])
        results[w] = json.loads(lines[-1])
    print(f"{'workload':<20} {'metric':<32} {'value':>18} unit")
    for w, r in results.items():
        share = r["failed"] / r["attempted"]
        print(f"{w:<20} {'fail_share':<32} {share:>18.6g} ratio")
        for name, m in r["metrics"].items():
            print(f"{w:<20} {name:<32} {m['value']:>18.6g} {m['unit']}")
    out_dir = os.environ.get("FT_BENCH_OUT", os.path.join(os.getcwd(), ".bench_out"))
    os.makedirs(out_dir, exist_ok=True)
    seed = args[args.index("--seed") + 1] if "--seed" in args else "?"
    trace = args[args.index("--trace") + 1] if "--trace" in args else "?"
    path = os.path.join(out_dir, f"summary-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"summary: {path}", file=sys.stderr)
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(merged))


def main():
    args = sys.argv[1:]
    binary = build()
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        run_all(binary, args)
        return
    lines = run_one(binary, args)
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
