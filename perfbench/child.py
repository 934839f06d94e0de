"""Child process of the benchmark: one CLI run or one query session.

    python3 perfbench/child.py cli [--trace FILE] -- ARGS...
    python3 perfbench/child.py session [--trace FILE] < queries.json

``cli`` runs ``hurwitz_toda.cli.main(ARGS)`` exactly as the console script
does; stdout is the program's own.  ``session`` reads a JSON list of
queries from stdin, answers them in a closed loop through the package's
default caches, and prints one JSON object with the answers (exact
rationals as strings) and per-call latencies.  With ``--trace`` the package
is wrapped by :class:`tracer.Tracer` before the run, and the spans are
written to FILE when it ends.  Each child starts cold: a fresh process has
empty tau, connected-series, oracle and character caches.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def run_session(ht, queries: list) -> dict:
    answers, latency_ns = [], []
    clock = time.perf_counter_ns
    start = clock()
    for query in queries:
        t0 = clock()
        try:
            if query[0] == "double":
                _, d, b, mu, nu = query
                value = ht.double_hurwitz(d, b, mu, nu).value
            else:
                _, g, d = query
                value = ht.simple_hurwitz(g, d)
            answer = str(value)
        except Exception as exc:  # a failed call is counted, not fatal
            answer = f"error: {type(exc).__name__}: {exc}"
        latency_ns.append(clock() - t0)
        answers.append(answer)
    return {"answers": answers, "latency_ns": latency_ns,
            "loop_s": (clock() - start) / 1e9}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cli", "session"))
    parser.add_argument("--trace", default=None)
    opts = parser.parse_args(argv[:cut])
    cli_args = argv[cut + 1:]

    import hurwitz_toda as ht
    if opts.mode == "cli":
        import hurwitz_toda.cli  # loaded before tracing so its bindings are wrapped

    tracer = None
    if opts.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(ht)
    chars = getattr(getattr(ht, "characters", None), "DEFAULT_CACHE", None)
    before = chars.stats() if chars is not None else {}

    if opts.mode == "cli":
        code, operations = ht.cli.main(cli_args), 1
    else:
        queries = json.load(sys.stdin)
        result = run_session(ht, queries)
        sys.stdout.write(json.dumps(result))
        code, operations = 0, len(queries)

    if tracer is not None:
        after = chars.stats() if chars is not None else {}
        extra = {f"characters.{k}": after[k] - before[k]
                 for k in ("hits", "misses") if k in before and k in after}
        tracer.dump(opts.trace, {**extra, "operations": operations})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
