"""Traced ``cm`` launcher: per-layer spans and counts from outside the program.

Usage: ``python3 bench/tracer.py TRACE_JSON <cm arguments>`` with ``src`` on
``PYTHONPATH``.  It imports ``cmnl.cli`` (timing the import), replaces the
public functions of each module at the attributes their callers resolve
(``cmnl.cli.locate_roots``, ``cmnl.jet.solve``, the kernel classes'
``transform`` methods, ...) with wrappers that record a span per call, runs
``cmnl.cli.main`` and, when it returns, writes the per-layer metrics and
self times to TRACE_JSON.  Spans stay in memory until then.  The timed runs
of ``run.py`` never load this file.

A span is ``[layer, start, end, parent]``; a layer's self time is its
duration minus the time its child spans cover.  ``kernel.transform`` is
recorded at the outermost call only, so a ``SumKernel`` transform is not
counted again for its parts.
"""

import json
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.transform_keys = set()

    def wrap(self, layer, fn, before=None, after=None, outermost=False,
             span=True):
        """A function that calls ``fn`` inside a span named ``layer``.

        ``before(args, kwargs)`` and ``after(result)`` record counts; with
        ``span=False`` the call is only counted.
        """
        tracer = self

        if not span:
            def counted(*args, **kwargs):
                tracer.counts[layer] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if outermost and tracer.open[layer]:
                return fn(*args, **kwargs)
            record = [layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer.open[layer] += 1
            if before is not None:
                before(args, kwargs)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
                tracer.open[layer] -= 1
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner, name, layer, **kw):
        setattr(owner, name, self.wrap(layer, getattr(owner, name), **kw))

    # -- counters recorded at the layer boundaries ---------------------------

    def on_transform(self, args, kwargs):
        kernel, nu = args[0], complex(args[1])
        order = args[2] if len(args) > 2 else kwargs.get("order", 0)
        # keyed by the kernel object itself, so ids cannot be reused
        self.transform_keys.add((kernel, nu, int(order)))
        if self.open["spectrum.locate_roots"]:
            self.counts["spectrum.transform_calls"] += 1

    def on_solve(self, args, kwargs):
        """Block rows of the bordered solve: (q + 1 + alpha) n per frequency."""
        problem = args[0] if args else kwargs["problem"]
        g, basis = problem.g, problem.projection.basis
        roots = []
        for el in basis.elements:
            for r in roots:
                if abs(el.nu - r[0]) <= 1e-7:
                    r[1] += 1
                    break
            else:
                roots.append([el.nu, 1])
        for nu, coeffs in g.terms:
            alpha = next((a for r, a in roots if abs(nu - r) <= 1e-7), 0)
            rows = (coeffs.shape[0] + alpha) * g.n
            self.counts["tsolve.block_rows"] += rows
            self.maxima["tsolve.block_rows_max"] = max(
                self.maxima["tsolve.block_rows_max"], rows)

    def on_jet(self, result):
        self.counts["jet.psi_entries"] += len(result.psi)

    def on_report(self, text):
        self.counts["cli.report_bytes"] += len(text.encode("utf-8"))

    # -- summary -------------------------------------------------------------

    def summary(self):
        """Per-layer call counts, inclusive times and self times."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered
        return {
            "calls": dict(calls),
            "seconds": dict(total),
            "self_seconds": dict(own),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "transform_distinct": len(self.transform_keys),
            "spans": len(self.spans),
        }


def install(tracer):
    """Wrap every traced function where its callers look it up."""
    import cmnl.cli
    import cmnl.jet
    import cmnl.kernel
    import cmnl.nonlin
    import cmnl.quasipoly
    import cmnl.tsolve
    import cmnl.verify

    t = tracer
    cli = cmnl.cli
    t.patch(cli, "load_problem", "problem.load")
    t.patch(cli, "canonical_json", "cli.serialize", after=t.on_report)
    t.patch(cli, "locate_roots", "spectrum.locate_roots")
    t.patch(cli, "kernel_basis", "projection.basis")
    t.patch(cli, "build_pointwise", "projection.build")
    t.patch(cli, "build_gram", "projection.build")
    t.patch(cli, "compute_jet", "jet.compute", after=t.on_jet)
    t.patch(cmnl.jet, "apply_term", "nonlin.apply_term")
    t.patch(cmnl.jet, "solve", "tsolve.solve", before=t.on_solve)
    apply_T = t.wrap("kernel.apply_T", cmnl.kernel.apply_T)
    cmnl.jet.apply_T = cmnl.tsolve.apply_T = apply_T
    convolve = t.wrap("kernel.convolve", cmnl.kernel.convolve)
    cmnl.kernel.convolve = cmnl.nonlin.convolve = convolve
    for cls in (cmnl.kernel.GaussianMixture, cmnl.kernel.ExponentialMixture,
                cmnl.kernel.DiracMixture, cmnl.kernel.SymbolKernel,
                cmnl.kernel.SumKernel):
        t.patch(cls, "transform", "kernel.transform", before=t.on_transform,
                outermost=True)
    t.patch(cmnl.quasipoly.QuasiPolynomial, "__init__", "quasipoly.construct")
    ver = cmnl.verify
    t.patch(ver, "find_homoclinic", "verify.shoot")
    t.patch(ver, "find_front", "verify.shoot")
    t.patch(ver, "rk4_step", "verify.rk4_steps", span=False)
    t.patch(ver, "reconstruct", "verify.reconstruct")
    t.patch(ver, "residual", "verify.residual")
    t.patch(ver, "grid_convolve", "verify.grid_convolve", span=False)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    t0 = perf_counter()
    import cmnl.cli
    import_s = perf_counter() - t0
    import_modules = len(sys.modules) - before

    tracer = Tracer()
    install(tracer)
    t1 = perf_counter()
    rc = cmnl.cli.main(argv)
    main_s = perf_counter() - t1
    summary = tracer.summary()
    summary.update(import_s=import_s, import_modules=import_modules,
                   main_s=main_s, exit_code=rc)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
