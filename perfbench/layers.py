"""Which cohalab functions the traced mode wraps, and the per-layer metrics.

The layers are the package's modules.  ``cli`` is not wrapped: it only
parses and prints.  Functions not listed here run inside the span of
their nearest wrapped caller, so their time counts toward that caller's
layer.
"""

from __future__ import annotations

from fractions import Fraction

from tracing import Tracer

PACKAGE = "cohalab"

LAYERS = (
    "paths",
    "quiver",
    "cells",
    "partitions",
    "series",
    "coha",
    "linalg",
    "polys",
    "charts",
)


def _inspect(tracer: Tracer, values, bits_key: str):
    """Count floats and track the largest numerator/denominator bit length."""
    nonexact = 0
    bits = tracer.maxima[bits_key]
    for x in values:
        if isinstance(x, float):
            nonexact += 1
        elif isinstance(x, Fraction):
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
        else:
            bits = max(bits, abs(int(x)).bit_length())
    tracer.counts["linalg.nonexact_entries"] += nonexact
    tracer.maxima[bits_key] = bits


def _on_rref(tracer, args, out):
    tracer.counts["linalg.rref.rows_in"] += len(args[0])
    tracer.counts["linalg.rref.rows_out"] += len(out)
    _inspect(tracer, (x for row in out for x in row), "linalg.rref.max_coeff_bits")


def _on_shuffle(tracer, args, out):
    tracer.counts["coha.shuffle_product.terms_out"] += len(out.poly.terms)
    _inspect(tracer, out.poly.terms.values(), "polys.max_coeff_bits")


def _on_det(tracer, args, out):
    _inspect(tracer, out.terms.values(), "polys.max_coeff_bits")


def _on_kernel(tracer, args, out):
    tracer.counts["coha.kernel.rank"] += out.dim


def _count_len(key):
    def observe(tracer, args, out):
        tracer.counts[key] += len(out)

    return observe


def _on_in_cell(tracer, args, out):
    tracer.counts["cells.in_cell.hits"] += bool(out)


def install(tracer: Tracer, lab) -> None:
    """Wrap the measured functions of a freshly imported cohalab package."""
    m = {name: getattr(lab, name) for name in LAYERS}
    fn = tracer.patch_function

    hot = dict(hot=True)
    tracer.patch_method(m["paths"].PathOrder, "compare", "paths.order", **hot)
    tracer.patch_method(m["paths"].PathOrder, "sort", "paths.order", **hot)
    tracer.patch_method(
        m["quiver"].FramedQuiver, "critical_dim_vector", "quiver.critical_dim_vector", **hot
    )
    tracer.patch_method(m["polys"].Poly, "__mul__", "polys.mul", **hot)
    tracer.patch_method(m["polys"].Poly, "permute_vars", "polys.permute_vars", **hot)
    tracer.patch_method(m["cells"].NumericRep, "path_vector", "cells.path_vector", **hot)
    fn(PACKAGE, m["partitions"], "satisfies_phi", "partitions.satisfies_phi", **hot)

    tracer.patch_method(m["polys"].Poly, "exact_div", "polys.exact_div")
    fn(PACKAGE, m["polys"], "det_bareiss", "polys.det_bareiss", observe=_on_det)

    fn(PACKAGE, m["linalg"], "rref", "linalg.rref", observe=_on_rref)
    for method in ("add", "contains", "reduce"):
        tracer.patch_method(m["linalg"].Span, method, "linalg.span")

    cells = m["cells"]
    fn(PACKAGE, cells, "enumerate_trees", "cells.enumerate_trees",
       observe=_count_len("cells.trees_out"))
    fn(PACKAGE, cells, "critical_set", "cells.critical_set")
    fn(PACKAGE, cells, "cell_dim", "cells.cell_dim")
    fn(PACKAGE, cells, "classify", "cells.classify")
    fn(PACKAGE, cells, "in_cell", "cells.in_cell", observe=_on_in_cell)
    fn(PACKAGE, cells, "in_degeneracy_locus", "cells.in_degeneracy_locus")

    parts = m["partitions"]
    fn(PACKAGE, parts, "enumerate_partitions", "partitions.enumerate_partitions",
       observe=_count_len("partitions.labels_out"))
    fn(PACKAGE, parts, "tree_to_partition", "partitions.bijection")
    fn(PACKAGE, parts, "partition_to_tree", "partitions.bijection")

    fn(PACKAGE, m["series"], "motivic_class", "series.motivic_class")
    fn(PACKAGE, m["series"], "betti_numbers", "series.betti_numbers")

    coha = m["coha"]
    fn(PACKAGE, coha, "verify_basis", "coha.verify_basis")
    fn(PACKAGE, coha, "kernel_graded_piece", "coha.kernel_graded_piece", observe=_on_kernel)
    fn(PACKAGE, coha, "shuffle_product", "coha.shuffle_product", observe=_on_shuffle)
    fn(PACKAGE, coha, "monomial_symmetric", "coha.monomial_symmetric")
    fn(PACKAGE, coha, "tautological_monomial", "coha.tautological_monomial")

    charts = m["charts"]
    fn(PACKAGE, charts, "membership_minors", "charts.membership_minors",
       observe=_count_len("charts.minors_out"))
    fn(PACKAGE, charts, "multiplicity_power", "charts.multiplicity_power")


def _kernel_generators(tracer: Tracer) -> int:
    """Shuffle products whose span lies inside a kernel_graded_piece span."""
    by_id = {s.id: s for s in tracer.spans}
    total = 0
    for s in tracer.spans:
        if s.name != "coha.shuffle_product":
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != "coha.kernel_graded_piece":
            p = by_id.get(p.parent)
        total += p is not None
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer counts (exact) and self times of one traced pass.

    ``wall_s`` is the traced pass's item time; each layer's self time is
    reported as a share of it, and ``share.other`` is what no wrapped
    function covers (the benchmark's own loop and the tracer's inspection).
    """
    calls, counts, maxima = tracer.calls, tracer.counts, tracer.maxima
    own = tracer.self_by_name()
    generators = _kernel_generators(tracer)

    out: dict[str, tuple[float, str]] = {}

    def count(name, value):
        out[name] = (value, "count")

    def seconds(name):
        out[name + ".self_s"] = (own.get(name, 0.0), "s")

    def ratio(name, value):
        out[name] = (value, "ratio")

    for name in ("coha.shuffle_product", "coha.kernel_graded_piece"):
        count(name + ".calls", calls[name])
        seconds(name)
    count("coha.shuffle_product.terms_out", counts["coha.shuffle_product.terms_out"])
    count("coha.kernel.generators", generators)
    count("coha.kernel.rank", counts["coha.kernel.rank"])
    ratio("coha.kernel.useful_ratio", _ratio(counts["coha.kernel.rank"], generators))
    seconds("coha.monomial_symmetric")
    seconds("coha.tautological_monomial")

    count("linalg.rref.calls", calls["linalg.rref"])
    seconds("linalg.rref")
    count("linalg.rref.rows_in", counts["linalg.rref.rows_in"])
    ratio("linalg.rref.rank_ratio",
          _ratio(counts["linalg.rref.rows_out"], counts["linalg.rref.rows_in"]))
    count("linalg.span.calls", calls["linalg.span"])
    seconds("linalg.span")
    count("linalg.nonexact_entries", counts["linalg.nonexact_entries"])
    out["linalg.rref.max_coeff_bits"] = (maxima["linalg.rref.max_coeff_bits"], "bits")

    count("polys.mul.calls", calls["polys.mul"])
    count("polys.permute_vars.calls", calls["polys.permute_vars"])
    for name in ("polys.exact_div", "polys.det_bareiss"):
        count(name + ".calls", calls[name])
        seconds(name)
    out["polys.max_coeff_bits"] = (maxima["polys.max_coeff_bits"], "bits")

    count("partitions.enumerate_partitions.calls", calls["partitions.enumerate_partitions"])
    seconds("partitions.enumerate_partitions")
    count("partitions.satisfies_phi.calls", calls["partitions.satisfies_phi"])
    ratio("partitions.phi_accept_ratio",
          _ratio(counts["partitions.labels_out"], calls["partitions.satisfies_phi"]))
    count("partitions.bijection.calls", calls["partitions.bijection"])
    seconds("partitions.bijection")

    for name in ("cells.enumerate_trees", "cells.critical_set"):
        count(name + ".calls", calls[name])
        seconds(name)
    count("cells.trees_out", counts["cells.trees_out"])
    seconds("cells.classify")
    count("cells.in_cell.calls", calls["cells.in_cell"])
    seconds("cells.in_cell")
    ratio("cells.in_cell.hit_ratio", _ratio(counts["cells.in_cell.hits"], calls["cells.in_cell"]))
    seconds("cells.in_degeneracy_locus")
    count("cells.path_vector.calls", calls["cells.path_vector"])
    seconds("cells.path_vector")

    seconds("charts.membership_minors")
    seconds("charts.multiplicity_power")
    count("charts.minors_out", counts["charts.minors_out"])

    seconds("series.motivic_class")
    seconds("series.betti_numbers")

    count("paths.order.calls", calls["paths.order"])
    seconds("paths.order")
    count("quiver.critical_dim_vector.calls", calls["quiver.critical_dim_vector"])

    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, value in own.items():
        by_layer[name.split(".", 1)[0]] += value
    for layer, value in by_layer.items():
        ratio(f"share.{layer}", _ratio(value, wall_s))
    ratio("share.other", _ratio(wall_s - sum(by_layer.values()), wall_s))
    return out
