"""One traced excite-iter process.

    PYTHONPATH=src python3 perfbench/cli_child.py SPANS_JSON ARGS...

Times the import of excite_iter.cli, wraps the package's entry points
(tracer.py), runs excite_iter.cli.main(ARGS) in a span of its own and,
after main returns, writes the spans to SPANS_JSON. Exits with main's
return code.
"""

from time import perf_counter

T_MAIN = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import excite_iter.cli as cli
    t1 = perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    tracer.add_span("startup.import", t0, t1)
    main = tracer.wrap("cli.main", cli.main)
    rc = main(argv)
    t_end = perf_counter()
    tracer.end_op()
    # one write of the whole document: far fewer calls than json.dump
    text = json.dumps({"t_main": T_MAIN, "t_end": t_end,
                       "spans": tracer.ops[0],
                       "root_evals": tracer.root_evals[0]})
    with open(spans_path, "w") as f:
        f.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())
